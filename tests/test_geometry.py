import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from morreylab.geometry import (
    Ball,
    Disk,
    Grid,
    Interval,
    SampledField,
    ball_sweep,
    distance,
    integrate,
    sweep_centers,
)
from morreylab.spaces import lp_weighted_norm, weak_lp_weighted_norm
from morreylab.weights import ConstantWeight, weight_measure


def unit_grid(n=64):
    return Grid(Interval(0.0, 1.0), n)


def test_interval_basic():
    dom = Interval(0.0, 1.0)
    assert dom.diameter == 1.0
    assert dom.boundary_distance(np.array([0.25])) == pytest.approx(0.25)
    assert dom.boundary_distance(np.array([[0.9]]))[0] == pytest.approx(0.1)


def test_disk_basic():
    dom = Disk((0.0, 0.0), 1.0)
    assert dom.dim == 2
    assert dom.diameter == 2.0
    assert dom.boundary_distance(np.array([0.5, 0.0])) == pytest.approx(0.5)


@pytest.mark.parametrize("dom", [Interval(-1.0, 2.0), Disk((0.5, -0.25), 1.5)])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_point_convention(dom, shape):
    # a point is (dim,); a stack (..., dim) gives one value per point
    rng = np.random.default_rng(1)
    x = rng.uniform(-2.0, 2.5, size=shape + (dom.dim,))
    dist = dom.boundary_distance(x)
    inside = dom.contains(x)
    assert np.shape(dist) == shape and np.shape(inside) == shape
    for p, d, c in zip(x.reshape(-1, dom.dim), np.ravel(dist), np.ravel(inside)):
        assert dom.boundary_distance(p) == d
        assert dom.contains(p) == c == (d > 0)


@pytest.mark.parametrize("dim", [1, 2])
def test_distance_is_linalg_norm(dim):
    rng = np.random.default_rng(3)

    def pts(shape, spread=False):
        # magnitudes 1e-150 to 1e150, one per point or one per coordinate
        scale = 10.0 ** rng.integers(-150, 151, size=shape if spread else shape[:-1] + (1,))
        return rng.standard_normal(shape) * scale

    x = pts((500, dim))
    cases = [(pts((dim,)), pts((dim,))), (x, x + pts((500, dim)) * 1e-3),
             (pts((500, dim), spread=True), pts((dim,))),
             (pts((4, 1, dim)), pts((1, 6, dim))), (x, x), (x, np.zeros(dim))]
    for a, b in cases:
        want = np.linalg.norm(a - b, axis=-1)
        got = distance(a, b)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    assert not distance(x, x).any()


def test_sweep_centers_literal_lattice():
    pts = sweep_centers(Interval(0.0, 1.0), 4)
    assert np.array_equal(pts, [[0.125], [0.375], [0.625], [0.875]])
    # the four corners of the 4 x 4 lattice over [-1, 1]^2 lie outside the disk
    pts = sweep_centers(Disk((0.0, 0.0), 1.0), 4)
    want = [(-0.75, -0.25), (-0.75, 0.25),
            (-0.25, -0.75), (-0.25, -0.25), (-0.25, 0.25), (-0.25, 0.75),
            (0.25, -0.75), (0.25, -0.25), (0.25, 0.25), (0.25, 0.75),
            (0.75, -0.25), (0.75, 0.25)]
    assert np.array_equal(pts, want)


def test_grid_nodes_interior():
    for g in (unit_grid(17), Grid(Disk(), 24)):
        assert np.all(g.boundary_dist > 0)


def test_grid_measure_refinement():
    # masked-cell measure converges to |domain| at first order
    dom = Disk((0.0, 0.0), 1.0)
    errs = []
    for n in (64, 128, 256):
        g = Grid(dom, n)
        errs.append(abs(g.n_cells * g.cell_measure - dom.volume))
    assert errs[2] < errs[0]
    assert errs[2] < 2.0 / 256  # <= C/N with modest C


def test_integrate_constant_interval():
    g = unit_grid(64)
    f = SampledField(g, np.ones(g.n_cells))
    assert integrate(f) == pytest.approx(1.0, abs=1.0 / 64)


def test_integrate_linear_interval():
    g = unit_grid(64)
    f = SampledField.from_function(g, lambda x: x)
    assert integrate(f) == pytest.approx(0.5, abs=1.0 / 64)


def test_integrate_disk_area():
    g = Grid(Disk(), 256)
    f = SampledField(g, np.ones(g.n_cells))
    assert integrate(f) == pytest.approx(np.pi, rel=0.02)


def test_integrate_matches_oracle():
    g = unit_grid(32)
    rng = np.random.default_rng(0)
    f = SampledField(g, rng.normal(size=g.n_cells))
    nodes = [tuple(p) for p in g.nodes]
    got = integrate(f, Ball((0.4,), 0.3))
    want = oracles.integrate(nodes, f.values, g.cell_measure, (0.4,), 0.3)
    assert got == pytest.approx(want, rel=1e-14)


def test_integrate_empty_region():
    g = unit_grid(16)
    f = SampledField(g, np.ones(g.n_cells))
    w = ConstantWeight(1.0)
    empty = Ball((5.0,), 0.01)
    for call in (lambda: integrate(f, empty),
                 lambda: weight_measure(w, empty, g),
                 lambda: lp_weighted_norm(f, w, 2.0, empty),
                 lambda: weak_lp_weighted_norm(f, w, 2.0, empty)):
        with pytest.raises(ValueError, match="empty region"):
            call()


def test_field_rejects_nonfinite():
    g = unit_grid(8)
    v = np.ones(g.n_cells)
    v[0] = np.nan
    with pytest.raises(ValueError):
        SampledField(g, v)


def test_ball_sweep_interval():
    g = unit_grid(16)
    balls = ball_sweep(g, 3, 2)
    assert len(balls) == 6
    radii = sorted({b.radius for b in balls})
    assert radii == pytest.approx([g.h, 1.0])


def test_ball_sweep_disk():
    g = Grid(Disk(), 32)
    balls = ball_sweep(g, 2, 3)
    assert len(balls) <= 4 * 3
    dom = g.domain
    for b in balls:
        assert dom.contains(np.array([b.center]))[0]
    assert max(b.radius for b in balls) == dom.diameter


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(8, 40))
def test_integrate_linear_monotone(c1, c2, n):
    g = unit_grid(n)
    rng = np.random.default_rng(n)
    a = SampledField(g, rng.uniform(0.1, 1.0, g.n_cells))
    b = SampledField(g, rng.uniform(0.1, 1.0, g.n_cells))
    lin = integrate(c1 * a + c2 * b)
    assert lin == pytest.approx(c1 * integrate(a) + c2 * integrate(b), abs=1e-12)
    # monotone: a + b >= a pointwise
    assert integrate(a + b) >= integrate(a) - 1e-15


def test_integrate_additive_disjoint():
    g = unit_grid(128)
    f = SampledField.from_function(g, lambda x: 1.0 + x)
    left = integrate(f, Ball((0.25,), 0.25))
    right = integrate(f, Ball((0.75,), 0.25))
    whole = integrate(f, Ball((0.5,), 0.5001))
    # straddle error bounded by perimeter * cell measure * max|f|
    assert abs(left + right - whole) <= 2 * 2 * g.cell_measure * 2.0


def test_refinement_first_order():
    dom = Interval(0.0, 1.0)
    vals = []
    for n in (64, 128, 256):
        g = Grid(dom, n)
        f = SampledField.from_function(g, lambda x: np.abs(x - 0.3))  # Lipschitz
        vals.append(integrate(f))
    assert abs(vals[1] - vals[0]) < 1.0 / 64
    assert abs(vals[2] - vals[1]) < 1.0 / 128


def test_zero_extension_box():
    # enlarging the embedding box leaves masked nodes and integrals unchanged
    dom = Interval(0.0, 1.0)
    g = Grid(dom, 32)
    pad = 8 * g.h
    g2 = Grid(dom, 32 + 16, box=((0.0 - pad, 1.0 + pad),))
    assert g2.h == pytest.approx(g.h)
    assert g2.n_cells == g.n_cells
    np.testing.assert_allclose(np.sort(g2.nodes[:, 0]), np.sort(g.nodes[:, 0]), atol=1e-13)

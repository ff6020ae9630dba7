import numpy as np
import pytest

import oracles
from morreylab.corpus import polynomial_bump
from morreylab.geometry import Disk, Grid, Interval
from morreylab.greens import (
    FundamentalSolution,
    PoissonKernel,
    green_function,
    sample_pairs,
    verify_kernel_bounds,
    verify_poisson_bounds,
)
from morreylab.spaces import multi_indices

UNIT = Interval(0.0, 1.0)
DISK = Disk((0.0, 0.0), 1.0)


# --- fundamental solutions ---------------------------------------------------

def _fd_lap(func, pts, h, dim):
    if dim == 1:
        return (func(pts + h) - 2 * func(pts) + func(pts - h)) / h**2
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    return (func(pts + e1) + func(pts - e1) + func(pts + e2) + func(pts - e2)
            - 4 * func(pts)) / h**2


@pytest.mark.parametrize("dim,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_gamma_polyharmonic_on_annulus(dim, m):
    gam = FundamentalSolution(dim, m)
    h = 1.0 / 256
    rng = np.random.default_rng(0)
    if dim == 1:
        pts = np.concatenate([rng.uniform(0.3, 0.6, 40), -rng.uniform(0.3, 0.6, 40)])
    else:
        th = rng.uniform(0, 2 * np.pi, 80)
        rr = rng.uniform(0.3, 0.6, 80)
        pts = np.column_stack([rr * np.cos(th), rr * np.sin(th)])
    func = gam
    for _ in range(m - 1):
        func = (lambda f: lambda q: _fd_lap(f, q, h, dim))(func)
    resid = np.abs(_fd_lap(func, pts, h, dim))
    scale = max(np.abs(func(pts)).max() / 0.3**2, 1e-9)
    assert resid.max() / scale < 1e-3


def test_gamma_alpha_lookup_consistency():
    gam = FundamentalSolution(2, 2)
    z = np.array([[0.3, -0.2], [0.1, 0.5]])
    # mixed partial symmetry built into the lookup: d(2,1) equals d(1,2) with
    # the roles of the coordinates swapped
    a = gam.derivative((2, 1), z)
    b = gam.derivative((1, 2), z[:, ::-1])
    np.testing.assert_allclose(a, b, rtol=1e-13)


# --- Green functions ---------------------------------------------------------

def test_interval_m1_value():
    gf = green_function(UNIT, 1)
    assert gf([[0.25]], [[0.5]])[0] == pytest.approx(0.125, abs=1e-14)


def test_disk_m1_center_log():
    gf = green_function(DISK, 1)
    got = gf([[0.5, 0.0]], [[0.0, 0.0]])[0]
    assert got == pytest.approx(np.log(2.0) / (2 * np.pi), rel=1e-12)


def test_on_diagonal_error():
    gf = green_function(UNIT, 1)
    with pytest.raises(ValueError, match="on-diagonal"):
        gf([[0.25]], [[0.25]])


def test_no_green_function():
    with pytest.raises(ValueError, match="no Green function"):
        green_function(UNIT, 3)


@pytest.mark.parametrize("dom,m", [(UNIT, 1), (UNIT, 2), (DISK, 1), (DISK, 2)])
def test_green_symmetry(dom, m):
    gf = green_function(dom, m)
    pairs = 100
    x, y = sample_pairs(dom, pairs, seed=2, min_sep=1e-3 * dom.diameter)
    np.testing.assert_allclose(gf(x, y), gf(y, x), rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("dom,m", [(UNIT, 1), (UNIT, 2), (DISK, 1), (DISK, 2)])
def test_green_boundary_decay(dom, m):
    # G(x, y0) -> 0 as x -> boundary at rate dist^m along a ray
    gf = green_function(dom, m)
    if dom.dim == 1:
        y0 = np.array([[0.43]])
        xs = lambda d: np.array([[1.0 - d]])
    else:
        y0 = np.array([[0.21, -0.1]])
        xs = lambda d: np.array([[1.0 - d, 0.0]])
    d1, d2 = 1e-3, 5e-4
    v1, v2 = abs(gf(xs(d1), y0)[0]), abs(gf(xs(d2), y0)[0])
    rate = np.log(v1 / v2) / np.log(d1 / d2)
    assert rate == pytest.approx(m, abs=0.25)


@pytest.mark.parametrize("dom,m", [(UNIT, 1), (UNIT, 2), (DISK, 1), (DISK, 2)])
def test_regular_part_smooth_across_diagonal(dom, m):
    # second differences of h across y = x stay bounded as the probe scale
    # shrinks (no singularity hides in the regular part)
    gf = green_function(dom, m)
    x0 = np.array([[0.37]] if dom.dim == 1 else [[0.27, 0.11]])
    curvatures = []
    for h in (0.02, 0.01, 0.005):
        e = np.zeros((1, dom.dim))
        e[0, 0] = h
        c = (gf.regular_part(x0, x0 + e) - 2 * gf.regular_part(x0, x0)
             + gf.regular_part(x0, x0 - e)) / h**2
        curvatures.append(abs(c[0]))
    assert max(curvatures) <= 2.0 * min(curvatures) + 1e-9


@pytest.mark.parametrize("dom,m,probe", [
    (UNIT, 1, [0.45]),
    (UNIT, 2, [0.45]),
    (DISK, 1, [0.15, -0.1]),
    (DISK, 2, [0.15, -0.1]),
])
def test_reproduction_identity(dom, m, probe):
    # integral of G(x, y) (-Lap)^m phi(y) dy must reproduce phi(x)
    grid = Grid(dom, 256)
    gf = green_function(dom, m)
    box = dom.bounding_box
    center = [0.5 * (lo + hi) for lo, hi in box]
    # support at 70% of the inradius: narrow bumps make the m = 2 identity a
    # cancellation of integrals ~ rho^{-4} larger than the reproduced value
    rho = 0.35 * dom.diameter
    phi, lap, bilap = polynomial_bump(center, rho, dom.dim)
    rhs = bilap(grid.nodes) if m == 2 else -lap(grid.nodes)
    x = np.array([probe])
    vals = gf(np.repeat(x, grid.n_cells, axis=0), grid.nodes)
    got = float((vals * rhs).sum() * grid.cell_measure)
    want = float(phi(x)[0])
    assert got == pytest.approx(want, rel=0.02)


def test_disk_m2_derivative_matches_fd_of_green():
    # closed-form gradient vs plain differences of G itself
    gf = green_function(DISK, 2)
    x = np.array([[0.3, 0.2]])
    y = np.array([[-0.1, 0.4]])
    h = 1e-5
    e1 = np.array([[h, 0.0]])
    fd = (gf(x + e1, y) - gf(x - e1, y)) / (2 * h)
    got = gf.derivative((1, 0), x, y)
    np.testing.assert_allclose(got, fd, rtol=1e-6)


def test_disk_m2_fd_higher_orders_trace():
    # Lap^2_x G = 0 away from the diagonal: sum of fourth derivatives cancels
    gf = green_function(DISK, 2)
    x = np.array([[0.25, -0.15]])
    y = np.array([[-0.3, 0.35]])
    total = (gf.derivative((4, 0), x, y) + 2.0 * gf.derivative((2, 2), x, y)
             + gf.derivative((0, 4), x, y))
    scale = abs(gf.derivative((4, 0), x, y)[0])
    assert abs(total[0]) < 5e-3 * scale


# --- jets ----------------------------------------------------------------------

# (domain, m, highest derivative order the jet serves)
JET_CASES = [(UNIT, 1, 2), (UNIT, 2, 4), (DISK, 1, 2), (DISK, 2, 4)]


@pytest.mark.parametrize("regular", [False, True])
@pytest.mark.parametrize("dom,m,kmax", JET_CASES)
def test_jet_unbroadcast_equals_broadcast(dom, m, kmax, regular):
    # per-point terms on (b,1,d) x (1,n,d) operands give the very bits of the
    # jet on fully broadcast (b,n,d) operands, diagonal cells included
    gf = green_function(dom, m)
    nodes = Grid(dom, 16 if dom.dim == 1 else 8).nodes
    x, y = nodes[:, None, :], nodes[None, :, :]
    alphas = multi_indices(dom.dim, kmax)
    got = list(gf.jet(alphas, x, y, regular))
    want = list(gf.jet(alphas, *np.broadcast_arrays(x, y), regular))
    assert [a for a, _ in got] == [a for a, _ in want] == alphas
    for (a, v), (_, w) in zip(got, want):
        assert v.shape == w.shape == (len(nodes), len(nodes))
        assert v.tobytes() == w.tobytes(), a


def _layouts(a):
    """a in C order, in Fortran order and as a strided slice of a larger
    array."""
    sliced = np.full(tuple(2 * s for s in a.shape), np.nan)[(slice(None, None, 2),) * a.ndim]
    sliced[...] = a
    return [np.ascontiguousarray(a), np.asfortranarray(a), sliced]


@pytest.mark.parametrize("regular", [False, True])
@pytest.mark.parametrize("dom,m,kmax", JET_CASES)
def test_jet_bits_do_not_depend_on_layout(dom, m, kmax, regular):
    # every pairing of operand layouts gives the bits of C-ordered operands,
    # diagonal cells included
    gf = green_function(dom, m)
    nodes = Grid(dom, 16 if dom.dim == 1 else 8).nodes
    alphas = multi_indices(dom.dim, kmax)
    xs, ys = _layouts(nodes[:, None, :]), _layouts(nodes[None, :, :])
    assert not xs[2].flags.c_contiguous and not ys[2].flags.c_contiguous
    want = [v.tobytes() for _, v in gf.jet(alphas, xs[0], ys[0], regular)]
    for x in xs:
        for y in ys:
            assert [v.tobytes() for _, v in gf.jet(alphas, x, y, regular)] == want


@pytest.mark.parametrize("dom,m,kmax", JET_CASES)
def test_fundamental_solution_bits_do_not_depend_on_layout(dom, m, kmax):
    gam = FundamentalSolution(dom.dim, m)
    nodes = Grid(dom, 16 if dom.dim == 1 else 8).nodes
    zs = _layouts(nodes[:, None, :] - nodes[None, :, :])
    for alpha in multi_indices(dom.dim, kmax):
        want = gam.derivative(alpha, zs[0]).tobytes()
        assert all(gam.derivative(alpha, z).tobytes() == want for z in zs), alpha


@pytest.mark.parametrize("regular", [False, True])
@pytest.mark.parametrize("dom,m,kmax", JET_CASES)
def test_jet_entries_are_derivatives_of_the_order_below(dom, m, kmax, regular):
    # each entry of order k >= 1 matches a central difference of an order
    # k-1 entry at interior off-diagonal points
    gf = green_function(dom, m)
    if dom.dim == 1:
        x, y = np.array([[0.2], [0.35]]), np.array([[0.6], [0.75], [0.9]])
    else:
        x = np.array([[0.1, -0.3], [-0.4, 0.2], [0.3, 0.25]])
        y = np.array([[0.5, 0.1], [-0.1, 0.6], [0.2, -0.7], [-0.6, -0.2]])
    x, y = x[:, None, :], y[None, :, :]
    jet = dict(gf.jet(multi_indices(dom.dim, kmax), x, y, regular))
    eps = 1e-5
    for alpha, val in jet.items():
        if sum(alpha) == 0:
            continue
        axis = next(i for i, k in enumerate(alpha) if k)
        below = tuple(k - (i == axis) for i, k in enumerate(alpha))
        step = eps * np.eye(dom.dim)[axis]
        fd = (dict(gf.jet([below], x + step, y, regular))[below]
              - dict(gf.jet([below], x - step, y, regular))[below]) / (2 * eps)
        np.testing.assert_allclose(val, fd, rtol=1e-6,
                                   atol=1e-8 * np.abs(jet[below]).max(), err_msg=str(alpha))


@pytest.mark.parametrize("n,rows", [
    (64, 512), (300, 64), (256, 128), (1804, 16), (1 << 15, 1), ((1 << 15) + 3, 1),
])
def test_row_blocks(n, rows):
    # the largest power of two of rows within the entry budget, at least one
    from morreylab.greens import _BLOCK_ENTRIES, _row_blocks

    blocks = list(_row_blocks(n))
    cells = np.arange(n)
    assert np.array_equal(np.concatenate([cells[s] for s in blocks]), cells)
    assert [s.stop - s.start for s in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 0 < blocks[-1].stop - blocks[-1].start <= rows
    assert rows == 1 or rows * n <= _BLOCK_ENTRIES < 2 * rows * n


# --- kernel bounds -----------------------------------------------------------

def test_kernel_bounds_interval_m2_bounded_regime():
    x, y = sample_pairs(UNIT, 800, seed=3, min_sep=1.0 / 256)
    fits = verify_kernel_bounds(UNIT, 2, x, y, [(0,), (1,), (2,)])
    by = {f.alpha: f for f in fits if f.regime == "bounded"}
    gmax = 1.0 / 192  # max of the clamped cubic kernel is below this
    assert by[(0,)].constant <= gmax
    for a in ((0,), (1,), (2,)):
        assert np.isfinite(by[a].constant)


def test_kernel_bounds_disk_m1_stability():
    # the deterministic configuration lattice saturates the sups, so
    # quadrupling the sample moves the per-class fits little
    fits = {}
    for count in (1000, 4000):
        x, y = sample_pairs(DISK, count, seed=5, min_sep=2.0 / 256)
        for f in verify_kernel_bounds(DISK, 1, x, y, [(2, 0), (1, 1), (0, 2)]):
            cur = fits.setdefault(f.regime, {})
            cur[count] = max(cur.get(count, 0.0), f.constant)
    for regime in ("singular-min-dy", "power", "regular-part"):
        a, b = fits[regime][1000], fits[regime][4000]
        assert abs(b - a) <= 0.10 * max(a, b), (regime, a, b)
    # the d(x) reading of the singular bound is not a true estimate (the
    # ratio is unbounded near the boundary); its fit exists but may wander
    assert np.isfinite(fits["singular-min-dx"][4000])


def test_kernel_bounds_regime_not_applicable():
    x, y = sample_pairs(UNIT, 10, seed=7, min_sep=0.01)
    with pytest.raises(ValueError, match="regime not applicable"):
        verify_kernel_bounds(UNIT, 1, x, y, [])


@pytest.mark.parametrize("dom", [UNIT, DISK])
@pytest.mark.parametrize("count,n", [(1000, 48), (1000, 512), (4000, 48), (4000, 256)])
def test_sample_pairs_lattice_matches_loop_oracle(dom, count, n):
    from morreylab.geometry import nested_log_radii
    from morreylab.greens import _direction_fan, _pair_positions

    min_sep = dom.diameter / n
    x, y = sample_pairs(dom, count, seed=7, min_sep=min_sep)
    assert x.shape == y.shape == (count, dom.dim)
    # the lattice part of sample_pairs, rebuilt from the same ingredients
    budget = int(0.9 * count)
    seps = nested_log_radii(dom.diameter / 2.0, min_sep, 2)
    n_dir = 2 if dom.dim == 1 else 8
    positions = _pair_positions(dom)[:max(2, budget // (len(seps) * n_dir))]
    fans = [_direction_fan(dom, b, n_dir) for b in positions]
    xo, yo = oracles.pair_lattice(dom, positions, fans, seps, dom.diameter / 2048.0,
                                  budget)
    assert len(xo) > 0
    assert np.array_equal(x[:len(xo)], np.array(xo))
    assert np.array_equal(y[:len(yo)], np.array(yo))


def test_poisson_bounds():
    rep = verify_poisson_bounds(DISK, 4000, seed=11)
    assert rep["center_value"] == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)
    assert rep["fitted"] <= (1.0 / np.pi) * 1.02
    assert rep["fitted"] >= 0.9 / np.pi  # sharpness witnessed near the boundary
    assert rep["normalization"] == pytest.approx(1.0, abs=1e-4)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from morreylab import weights
from morreylab.geometry import Ball, Disk, Grid, Interval, ball_sweep
from morreylab.weights import (
    ApEstimate,
    ConstantWeight,
    PowerWeight,
    ap_constant,
    ap_membership,
    ap_sweep,
    ball_measure,
    conjugate_weight,
    weight_cell_integrals,
    weight_measure,
)

SYM = Interval(-1.0, 1.0)


def test_power_weight_rejects_nonintegrable():
    with pytest.raises(ValueError):
        PowerWeight((0.0,), -1.0)
    with pytest.raises(ValueError):
        PowerWeight((0.0, 0.0), -2.5)


def test_weight_measure_lebesgue():
    g = Grid(Interval(0.0, 1.0), 64)
    w = ConstantWeight(1.0)
    assert weight_measure(w, Ball((0.5,), 0.25), g) == pytest.approx(0.5, abs=1e-12)


def test_weight_measure_power_exact():
    # r aligned with the lattice: the union of selected cells is exactly (-r, r)
    g = Grid(SYM, 64)
    w = PowerWeight((0.0,), 0.5)
    for r in (0.25, 0.5, 1.0):
        got = weight_measure(w, Ball((0.0,), r + g.h / 4), g)
        assert got == pytest.approx((4.0 / 3.0) * r**1.5, rel=1e-12)


def test_weight_measure_singular_power():
    g = Grid(SYM, 128)
    w = PowerWeight((0.0,), -0.5)
    assert weight_measure(w, Ball((0.0,), 1.0 + g.h), g) == pytest.approx(4.0, rel=0.01)


def test_weight_cells_match_oracle_1d():
    g = Grid(SYM, 32)
    w = PowerWeight((0.3,), 0.7)
    got = weight_cell_integrals(w, g)
    nodes = [tuple(p) for p in g.nodes]
    want = oracles.weight_cell_integrals(nodes, g.h, None, 1, analytic_1d=(0.3, 0.7))
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_weight_cells_match_oracle_2d():
    g = Grid(Disk(), 16)
    w = PowerWeight((0.0, 0.0), 0.5)
    got = weight_cell_integrals(w, g)
    nodes = [tuple(p) for p in g.nodes]
    want = oracles.weight_cell_integrals(
        nodes, g.h, lambda q: np.hypot(*q) ** 0.5, 2)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("dom", [SYM, Disk()])
@pytest.mark.parametrize("kind", ["power", "conjugate"])
@pytest.mark.parametrize("chunk", [1, 200])
def test_subcell_chunks_equal_one_pass(monkeypatch, dom, kind, chunk):
    # per-cell sums do not depend on how the cells are chunked, for a power
    # weight and for the non-integrable conjugate of an out-of-class one
    g = Grid(dom, 40)
    c = (0.3,) + (-0.2,) * (dom.dim - 1)
    w = PowerWeight(c, -0.4) if kind == "power" else conjugate_weight(PowerWeight(c, 1.5), 1.5)
    assert kind == "power" or isinstance(w, weights._RawPower)
    monkeypatch.setattr(weights, "_SUBCELL_CHUNK", 10**9)
    whole = weights._oversampled_cells(w, g)
    monkeypatch.setattr(weights, "_SUBCELL_CHUNK", chunk)
    assert np.array_equal(weights._oversampled_cells(w, g), whole)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_weight_point_convention(dim, shape):
    # a point (dim,) gives a scalar, a stack (..., dim) one value per point
    x = np.random.default_rng(2).uniform(-1.0, 1.0, size=shape + (dim,))
    c = (0.3,) + (-0.2,) * (dim - 1)
    ws = [ConstantWeight(2.5), PowerWeight(c, -0.4), PowerWeight(c, 2.5),
          PowerWeight((0.0,) * dim, 0.7), weights._RawPower(c, -dim - 0.5)]
    for w in ws:
        vals = w(x)
        assert np.shape(vals) == shape, w.label
        for p, v in zip(x.reshape(-1, dim), np.ravel(vals)):
            assert np.shape(w(p)) == ()
            assert w(p) == v, w.label


@pytest.mark.parametrize("dim", [2])
def test_ball_measure_matches_polar_oracle(dim):
    # the 2D power path, node for node the oracle's meshgrid sum
    c = (0.3,) + (-0.2,) * (dim - 1)
    ws = [PowerWeight(c, g) for g in (-0.4, 0.5, 2.5)] + [PowerWeight((0.0,) * dim, 0.7)]
    for w in ws:
        for x, r in [((0.0,) * dim, 1.0), (c, 0.05), ((-0.7,) + (0.4,) * (dim - 1), 2.3)]:
            assert ball_measure(w, x, r) == oracles.ball_measure_polar(w, x, r), w.label


def test_ball_measure_full_space():
    w = PowerWeight((0.0,), 0.5)
    assert ball_measure(w, [0.0], 2.0) == pytest.approx((4.0 / 3.0) * 2.0**1.5, rel=1e-12)
    w2 = ConstantWeight(3.0)
    assert ball_measure(w2, [0.0, 0.0], 2.0) == pytest.approx(12.0 * np.pi, rel=1e-12)
    # 2D power measure vs closed form for a ball centered at the singularity:
    # integral of |y|^g over B(0,r) = 2 pi r^{2+g}/(2+g)
    w3 = PowerWeight((0.0, 0.0), 1.0)
    assert ball_measure(w3, [0.0, 0.0], 1.0) == pytest.approx(2 * np.pi / 3.0, rel=1e-3)


def test_ap_constant_lebesgue_exact():
    g = Grid(Interval(0.0, 1.0), 32)
    w = ConstantWeight(2.0)
    for p in (1.0, 1.5, 2.0, 3.0):
        est = ap_constant(w, p, g, ball_sweep(g, 5, 6))
        assert est.value == pytest.approx(1.0, abs=1e-12)


def test_ap_constant_power_origin_balls():
    g = Grid(SYM, 64)
    w = PowerWeight((0.0,), 0.5)
    balls = [Ball((0.0,), r) for r in (0.25, 0.5, 1.0)]
    est = ap_constant(w, 2.0, g, balls)
    assert est.value == pytest.approx(4.0 / 3.0, rel=1e-10)
    # dense sweep may only raise the max
    dense = ap_constant(w, 2.0, g, ap_sweep(g, w, centers_per_axis=17, per_octave=6))
    assert dense.value >= est.value - 1e-12


def test_ap_constant_matches_oracle():
    # the last disk ball holds no cell center
    cases = [(Grid(SYM, 32), PowerWeight((0.2,), 0.5), (2.0,),
              [Ball((0.0,), 0.5), Ball((0.3,), 0.4), Ball((-0.4,), 0.25)]),
             (Grid(Disk(), 16), PowerWeight((0.1, -0.2), 0.5), (1.5, 2.0, 3.0),
              [Ball((0.0, 0.0), 0.9), Ball((0.3, -0.2), 0.5), Ball((-0.4, 0.1), 0.3),
               Ball((0.1, 0.1), 0.05)])]
    for g, w, ps, balls in cases:
        wc = weight_cell_integrals(w, g)
        nodes = [tuple(q) for q in g.nodes]
        for p in ps:
            cc = weight_cell_integrals(conjugate_weight(w, p), g)
            exprs = [oracles.ap_expression(nodes, list(wc), list(cc), p, b.center,
                                           b.radius, g.cell_measure)
                     for b in balls]
            want = max(e for e in exprs if e is not None)
            first = next(i for i, e in enumerate(exprs)
                         if e is not None and e >= want * (1 - 1e-12))
            got = ap_constant(w, p, g, balls)
            assert got.value == pytest.approx(want, rel=1e-12)
            assert got.attaining_ball == balls[first]
    assert exprs[-1] is None


def test_ap_divergence_out_of_class():
    # gamma = n(p-1) + 0.5 with p = 2: estimate grows without bound under
    # refinement (rate ~ sqrt(2) per doubling; see decisions ledger)
    w = PowerWeight((0.0,), 1.5)
    vals = []
    for n in (64, 128, 256):
        g = Grid(SYM, n)
        est = ap_constant(w, 2.0, g, ap_sweep(g, w, 9))
        vals.append(est.value)
    assert vals[1] / vals[0] > 1.5
    assert vals[2] / vals[1] > 1.5


def test_ap_membership_constant():
    for p in (1.0, 2.0, 3.0):
        rep = ap_membership(ConstantWeight(1.0), p)
        assert rep.in_class


def test_ap_membership_power_in_class():
    g64 = Grid(SYM, 64)
    g128 = Grid(SYM, 128)
    w = PowerWeight((0.0,), 0.5)
    assert ap_membership(w, 2.0).in_class
    e1 = ap_constant(w, 2.0, g64, ap_sweep(g64, w, 9, 12))
    e2 = ap_constant(w, 2.0, g128, ap_sweep(g128, w, 9, 12))
    assert abs(e2.value - e1.value) <= 0.05 * e1.value


def test_ap_membership_boundary_case():
    assert not ap_membership(PowerWeight((0.0,), 1.0), 2.0).in_class


def test_ap_scale_invariance():
    # dilating the domain, the sweep and the weight's center by 2 multiplies
    # the weight by 2^gamma, which both A_p averages cancel
    w = PowerWeight((0.1,), 0.4)
    g, g2 = Grid(SYM, 48), Grid(Interval(-2.0, 2.0), 48)
    sweep = ap_sweep(g, w, 7, 8)
    sweep2 = [Ball((2.0 * b.center[0],), 2.0 * b.radius) for b in sweep]
    for p in (1.0, 2.0, 3.0):
        a = ap_constant(w, p, g, sweep)
        b = ap_constant(PowerWeight((0.2,), 0.4), p, g2, sweep2)
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert b.attaining_ball == Ball((2.0 * a.attaining_ball.center[0],),
                                        2.0 * a.attaining_ball.radius)


def test_ap_duality_p2():
    g = Grid(SYM, 48)
    w = PowerWeight((0.0,), 0.5)
    winv = w.pow(-1.0)
    sweep = ap_sweep(g, w, 7, 8)
    a = ap_constant(w, 2.0, g, sweep)
    b = ap_constant(winv, 2.0, g, sweep)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_ap_monotone_in_sweep():
    g = Grid(SYM, 48)
    w = PowerWeight((0.0,), 0.5)
    small = ball_sweep(g, 3, 4)
    large = small + ball_sweep(g, 9, 8)
    assert ap_constant(w, 2.0, g, large).value >= ap_constant(w, 2.0, g, small).value


def test_ap_estimate_invariant_guard():
    with pytest.raises(ValueError):
        ApEstimate(p=2.0, value=0.5, attaining_ball=Ball((0.0,), 1.0), n_balls=1)


def test_conjugate_exponent_minus_one():
    # gamma / (p - 1) == 1 makes the conjugate |x|^-1: cells off the
    # singular point integrate to log ratios, not 0/0
    g = Grid(SYM, 24)
    w = PowerWeight((0.0,), 0.8999999999999999)
    cells = weight_cell_integrals(conjugate_weight(w, 1.9), g)
    x = g.nodes[:, 0]
    lo, hi = np.abs(x) - g.h / 2, np.abs(x) + g.h / 2
    off = lo > 0
    np.testing.assert_allclose(cells[off], np.log(hi[off] / lo[off]), rtol=1e-12)
    assert np.all(np.isfinite(cells))
    assert ap_constant(w, 1.9, g, ball_sweep(g, 5, 5)).value >= 1.0 - 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 0.9), st.floats(1.2, 3.0))
def test_ap_at_least_one(gamma, p):
    g = Grid(SYM, 24)
    w = PowerWeight((0.0,), gamma)
    est = ap_constant(w, p, g, ball_sweep(g, 5, 5))
    assert est.value >= 1.0 - 1e-9

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import morreylab
from morreylab.geometry import (
    Ball,
    Disk,
    Grid,
    Interval,
    SampledField,
    ball_sweep,
    centered_sweep,
    nested_sweep,
)
from morreylab.spaces import (
    InverseWeightMeasurePhi,
    MorreyEvaluator,
    PowerLawPhi,
    SweepCache,
    WeightMeasurePhi,
    condition_213,
    lp_weighted_norm,
    morrey_norm,
    multi_indices,
    sobolev_morrey_norm,
    weak_lp_weighted_norm,
)
from morreylab.weights import ConstantWeight, PowerWeight, weight_cell_integrals

UNIT = Interval(0.0, 1.0)
ONE = ConstantWeight(1.0)


def grid(n=64, dom=UNIT):
    return Grid(dom, n)


def const_field(g, c=1.0):
    return SampledField(g, np.full(g.n_cells, c))


# --- weighted L_p ----------------------------------------------------------

def test_lp_norm_constant():
    g = grid()
    assert lp_weighted_norm(const_field(g), ONE, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_lp_norm_linear():
    g = grid(256)
    f = SampledField.from_function(g, lambda x: x)
    assert lp_weighted_norm(f, ONE, 2.0) == pytest.approx(1 / np.sqrt(3), rel=1e-4)


def test_lp_norm_weighted():
    g = grid(128)
    f = const_field(g)
    w = PowerWeight((0.0,), 1.0)
    assert lp_weighted_norm(f, w, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_lp_norm_matches_oracle():
    g = grid(32)
    rng = np.random.default_rng(3)
    f = SampledField(g, rng.normal(size=g.n_cells))
    w = PowerWeight((0.5,), 0.5)
    wc = weight_cell_integrals(w, g)
    nodes = [tuple(q) for q in g.nodes]
    for region in (None, Ball((0.5,), 0.3)):
        got = lp_weighted_norm(f, w, 2.5, region)
        want = oracles.lp_weighted_norm(
            nodes, list(f.values), list(wc), 2.5,
            None if region is None else region.center,
            None if region is None else region.radius)
        assert got == pytest.approx(want, rel=1e-12)


# --- weak norm -------------------------------------------------------------

def test_weak_norm_constant_field():
    g = grid()
    f = const_field(g, 3.0)
    assert weak_lp_weighted_norm(f, ONE, 2.0) == pytest.approx(3.0 * 1.0**0.5, rel=1e-10)


def test_weak_norm_indicator():
    g = grid(64)
    f = SampledField.from_function(g, lambda x: (x > 0.5).astype(float))
    assert weak_lp_weighted_norm(f, ONE, 1.0) == pytest.approx(0.5, rel=1e-10)


def test_weak_norm_linear_quarter():
    g = grid(512)
    f = SampledField.from_function(g, lambda x: x)
    # sup_t t|{x > t}| = 1/4
    assert weak_lp_weighted_norm(f, ONE, 1.0) == pytest.approx(0.25, rel=5e-3)


def test_weak_norm_dense_t_oracle():
    g = grid(48)
    rng = np.random.default_rng(5)
    f = SampledField(g, rng.uniform(0, 2, g.n_cells))
    wc = weight_cell_integrals(ONE, g)
    nodes = [tuple(q) for q in g.nodes]
    got = weak_lp_weighted_norm(f, ONE, 1.5)
    want = oracles.weak_lp_weighted_norm(nodes, list(f.values), list(wc), 1.5)
    assert got == pytest.approx(want, rel=1e-12)
    # a dense threshold sweep can only fall below the value-grid sup
    dense = oracles.weak_norm_dense_t(nodes, list(f.values), list(wc), 1.5,
                                      np.linspace(1e-4, 2.0, 2000))
    assert dense <= got * (1 + 1e-9)
    assert dense >= 0.99 * got


def test_weak_le_strong():
    g = grid(64)
    rng = np.random.default_rng(7)
    f = SampledField(g, rng.normal(size=g.n_cells))
    w = PowerWeight((0.3,), 0.5)
    for p in (1.0, 2.0, 3.0):
        assert weak_lp_weighted_norm(f, w, p) <= lp_weighted_norm(f, w, p) * (1 + 1e-12)


# --- Morrey ----------------------------------------------------------------

def test_morrey_collapse_to_global():
    g = grid(128)
    f = SampledField.from_function(g, lambda x: x)
    phi = InverseWeightMeasurePhi(p=2.0, w=ONE)
    sweep = ball_sweep(g, 5, 6)
    res = morrey_norm(f, ONE, phi, 2.0, sweep)
    assert res.value == pytest.approx(lp_weighted_norm(f, ONE, 2.0), rel=1e-10)
    assert res.value == pytest.approx(1 / np.sqrt(3), rel=1e-3)


def test_morrey_powerlaw_constant_one():
    g = grid(128)
    f = const_field(g)
    phi = PowerLawPhi(lam=0.5, p=1.0, n=1)
    res = morrey_norm(f, ONE, phi, 1.0, ball_sweep(g, 9, 12))
    # sup_{x,r} r^{(n-lam)/p} |O(x,r)|^{-1} |O(x,r)| -> attained at r = d = 1
    assert res.value == pytest.approx(1.0, rel=1e-6)
    assert res.attaining_ball.radius == pytest.approx(1.0)


def test_morrey_zero_field():
    g = grid(32)
    f = const_field(g, 0.0)
    for phi in (PowerLawPhi(0.5, 2.0, 1), InverseWeightMeasurePhi(2.0, ONE),
                WeightMeasurePhi(0.5, 2.0, ONE)):
        assert morrey_norm(f, ONE, phi, 2.0, ball_sweep(g, 3, 4)).value == 0.0


def test_morrey_matches_oracle():
    g = grid(24)
    rng = np.random.default_rng(11)
    f = SampledField(g, rng.normal(size=g.n_cells))
    w = PowerWeight((0.25,), 0.4)
    p = 2.0
    sweep = ball_sweep(g, 4, 5)
    phi = PowerLawPhi(lam=0.5, p=p, n=1)
    res = morrey_norm(f, w, phi, p, sweep)
    wc = weight_cell_integrals(w, g)
    nodes = [tuple(q) for q in g.nodes]
    want, want_i = oracles.morrey_norm(
        nodes, list(f.values), list(wc), p,
        lambda c, r: phi(c, r), [(b.center, b.radius) for b in sweep])
    assert res.value == pytest.approx(want, rel=1e-11)
    assert res.attaining_ball == sweep[want_i]


def test_morrey_weak_flag():
    g = grid(48)
    rng = np.random.default_rng(13)
    f = SampledField(g, rng.uniform(0, 1, g.n_cells))
    phi = PowerLawPhi(0.5, 1.0, 1)
    sweep = ball_sweep(g, 5, 5)
    weak = morrey_norm(f, ONE, phi, 1.0, sweep, weak=True)
    strong = morrey_norm(f, ONE, phi, 1.0, sweep, weak=False)
    assert weak.value <= strong.value * (1 + 1e-12)
    wc = weight_cell_integrals(ONE, g)
    nodes = [tuple(q) for q in g.nodes]
    want, _ = oracles.morrey_norm(nodes, list(f.values), list(wc), 1.0,
                                  lambda c, r: phi(c, r),
                                  [(b.center, b.radius) for b in sweep], weak=True)
    assert weak.value == pytest.approx(want, rel=1e-11)


def test_morrey_homogeneity_and_triangle():
    g = grid(40)
    rng = np.random.default_rng(17)
    f1 = SampledField(g, rng.normal(size=g.n_cells))
    f2 = SampledField(g, rng.normal(size=g.n_cells))
    w = PowerWeight((0.5,), 0.5)
    phi = PowerLawPhi(0.5, 2.0, 1)
    sweep = ball_sweep(g, 5, 5)
    n1 = morrey_norm(f1, w, phi, 2.0, sweep).value
    n2 = morrey_norm(f2, w, phi, 2.0, sweep).value
    n12 = morrey_norm(f1 + f2, w, phi, 2.0, sweep).value
    assert morrey_norm(-2.5 * f1, w, phi, 2.0, sweep).value == pytest.approx(2.5 * n1, rel=1e-12)
    assert n12 <= n1 + n2 + 1e-12


def test_morrey_attaining_ball_invariant_under_weight_scaling():
    g = grid(40)
    rng = np.random.default_rng(19)
    f = SampledField(g, rng.normal(size=g.n_cells))
    w = ONE
    cw = ConstantWeight(9.0)
    phi = PowerLawPhi(0.5, 2.0, 1)
    # radii below diam/2 keep the attaining ball generic (r = diam balls all
    # cover the whole domain and tie)
    sweep = [b for b in ball_sweep(g, 5, 8) if b.radius < 0.5]
    a = morrey_norm(f, w, phi, 2.0, sweep)
    b = morrey_norm(f, cw, phi, 2.0, sweep)
    assert b.attaining_ball == a.attaining_ball
    # the two c^{±1/p} factors cancel, so the value is unchanged too
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_morrey_invalid_phi():
    g = grid(16)
    f = const_field(g)
    sweep = ball_sweep(g, 3, 3)
    # a NaN exponent, and r^1000 underflowing to 0 on the balls with r < 1
    for bad in (PowerLawPhi(np.nan, 2.0, 1), PowerLawPhi(2001.0, 2.0, 1)):
        with pytest.raises(ValueError, match="invalid phi"):
            morrey_norm(f, ONE, bad, 2.0, sweep)
        with pytest.raises(ValueError, match="invalid phi"):
            MorreyEvaluator(g, sweep).norm(f.values, ONE, bad, 2.0)


def test_morrey_skips_balls_without_cells():
    g = grid(16)
    rng = np.random.default_rng(23)
    f = SampledField(g, rng.normal(size=g.n_cells))
    sweep = ball_sweep(g, 3, 3)
    # no cell center lies within 0.01 of a cell boundary point
    empty = [Ball((g.h,), 0.01), Ball((2 * g.h,), 0.01)]
    for phi in (PowerLawPhi(0.5, 2.0, 1), WeightMeasurePhi(0.5, 2.0, ONE)):
        for weak in (False, True):
            want = morrey_norm(f, ONE, phi, 2.0, sweep, weak=weak)
            got = morrey_norm(f, ONE, phi, 2.0, empty[:1] + sweep + empty[1:], weak=weak)
            assert got.value == want.value
            assert got.attaining_ball == want.attaining_ball
            with pytest.raises(ValueError, match="empty region"):
                morrey_norm(f, ONE, phi, 2.0, empty, weak=weak)
    with pytest.raises(ValueError, match="empty sweep"):
        morrey_norm(f, ONE, PowerLawPhi(0.5, 2.0, 1), 2.0, [])


# --- the stacked engine ----------------------------------------------------

def _stack_case(dim):
    """A grid, a sweep with two balls that hold no cells, a weight and a
    four-row stack: two random rows, a zero row and a spike."""
    if dim == 1:
        g = grid(24)
        sweep = ball_sweep(g, 4, 5)
        w = PowerWeight((0.25,), 0.4)
    else:
        g = Grid(Disk((0.0, 0.0), 1.0), 10)
        sweep = ball_sweep(g, 3, 4)
        w = PowerWeight((0.1, 0.2), 0.5)
    # a corner of the cell around a node is h/sqrt(2) or h/2 from every node
    corner = tuple(float(v) for v in g.nodes[len(g.nodes) // 2] + 0.5 * g.h)
    # a ball with a node on its sphere, which it must leave out
    c0 = tuple(float(v) for v in g.nodes[0])
    on_sphere = Ball(c0, float(np.linalg.norm(g.nodes[5] - g.nodes[0])))
    sweep = [Ball(corner, 0.01 * g.h), on_sphere] + sweep + [Ball(corner, 0.02 * g.h)]
    rng = np.random.default_rng(29)
    spike = np.zeros(g.n_cells)
    spike[3] = 5.0
    stack = np.stack([rng.normal(size=g.n_cells), np.zeros(g.n_cells),
                      rng.uniform(0.0, 2.0, g.n_cells), spike])
    return g, sweep, w, stack


def _phis(dim, p, w):
    # the last measures a weight other than the norm's
    return (PowerLawPhi(lam=0.5 * dim, p=p, n=dim), WeightMeasurePhi(0.3, p, w),
            InverseWeightMeasurePhi(p, w), WeightMeasurePhi(0.6, p, ConstantWeight(2.0)))


def _oracle_phi(phi, g, c, r):
    """phi with the domain-restricted measure the evaluator uses."""
    if isinstance(phi, PowerLawPhi):
        return phi(c, r)
    nodes = [tuple(q) for q in g.nodes]
    m = oracles.weight_measure(nodes, list(weight_cell_integrals(phi.w, g)), c, r)
    k = phi.k if isinstance(phi, WeightMeasurePhi) else 0.0
    return m ** ((k - 1.0) / phi.p)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("weak", [False, True])
def test_stacked_morrey_matches_oracle_and_rows(dim, weak):
    g, sweep, w, stack = _stack_case(dim)
    ev = MorreyEvaluator(g, sweep)
    assert ev.cache.sizes[0] == ev.cache.sizes[-1] == 0
    nodes = [tuple(q) for q in g.nodes]
    wcells = list(weight_cell_integrals(w, g))
    balls = [(b.center, b.radius) for b in sweep]
    for p in (1.0, 1.5, 2.0):
        # every ball's oracle (inner norm, weight measure), per row
        inner = oracles.weak_lp_weighted_norm if weak else oracles.lp_weighted_norm
        per_row = [[(inner(nodes, list(row), wcells, p, c, r),
                     oracles.weight_measure(nodes, wcells, c, r)) for c, r in balls]
                   for row in stack]
        for phi in _phis(dim, p, w):
            values, idx = ev.attaining(stack, w, phi, p, weak)
            assert values.shape == idx.shape == (len(stack),)
            for i, row in enumerate(stack):
                # a row's result does not depend on the rest of its stack,
                # and a 1-D field is a one-row stack
                assert ev.norm(stack[i:i + 1], w, phi, p, weak)[0] == values[i]
                assert ev.attaining(row, w, phi, p, weak) == (values[i], idx[i])
                ov = [-np.inf if wm <= 0 else
                      nb / (_oracle_phi(phi, g, c, r) * wm ** (1.0 / p))
                      for (nb, wm), (c, r) in zip(per_row[i], balls)]
                best = max(ov)
                assert values[i] == pytest.approx(best, rel=1e-10, abs=0.0)
                # balls that tie in exact arithmetic (the whole domain seen
                # from two centers) are told apart by rounding
                assert ov[idx[i]] >= best * (1 - 1e-12)
            assert values[1] == 0.0 and idx[1] == 1  # zero row: first ball with cells


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("weak", [False, True])
def test_stacked_attaining_is_first_maximum(dim, weak):
    g, sweep, w, stack = _stack_case(dim)
    twice = [b for b in sweep for _ in range(2)]  # each ball twice in a row
    once, doubled = MorreyEvaluator(g, sweep), MorreyEvaluator(g, twice)
    for phi in _phis(dim, 1.5, w):
        v1, i1 = once.attaining(stack, w, phi, 1.5, weak)
        v2, i2 = doubled.attaining(stack, w, phi, 1.5, weak)
        assert np.array_equal(v1, v2)
        assert np.array_equal(i2, 2 * i1)


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_ball_sums_match_prefix_sums(dim):
    g, sweep, _, stack = _stack_case(dim)
    cache = SweepCache(g, sweep)
    got = cache.ball_sums(stack)
    assert got.shape == (len(stack), len(sweep))
    for row, sums in zip(stack, got):
        assert np.array_equal(cache.ball_sums(row), sums)
        want = [cache.prefix_sums(b.center, row)[n] for b, n in zip(sweep, cache.sizes)]
        np.testing.assert_allclose(sums, want, rtol=1e-12, atol=1e-15)
    assert np.all(got[:, 0] == 0.0) and np.all(got[:, -1] == 0.0)


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    return sum(map(_array_bytes, obj)) if isinstance(obj, (list, tuple)) else 0


def test_sweep_cache_holds_its_shells_only():
    # per center the runs of its shells (1.7 times one cell array's
    # distances and ordering, over all 21 centers here), not a distance and
    # an ordering of every cell per center
    g = Grid(Disk((0.0, 0.0), 1.0), 128)
    cache = SweepCache(g, nested_sweep(g, 5))
    held = sum(_array_bytes(v) for k, v in vars(cache).items() if k != "grid")
    assert 0 < held < 2 * (2 * g.n_cells * 8)


@pytest.mark.parametrize("dim", [1, 2])
def test_ball_sums_match_fsum_oracle(dim):
    g = grid(160) if dim == 1 else Grid(Disk((0.0, 0.0), 1.0), 24)
    # radii from far below h: empty shells and balls that hold no cells
    radii = np.geomspace(0.01 * g.h, g.domain.diameter, 24)
    corner = tuple(float(v) for v in g.nodes[len(g.nodes) // 2] + 0.5 * g.h)
    sweep = centered_sweep(g, 2, radii) + [Ball(corner, 0.3 * g.h), Ball(corner, g.h)]
    rng = np.random.default_rng(41)
    spike = rng.random(g.n_cells)
    spike[2] = 1e12  # early in cell order
    stack = np.stack([rng.random(g.n_cells), spike,
                      10.0 ** rng.uniform(-6.0, 6.0, g.n_cells)])
    cache = SweepCache(g, sweep)
    got = cache.ball_sums(stack)
    nodes = [tuple(q) for q in g.nodes]
    balls = [(b.center, b.radius) for b in sweep]
    assert np.any(cache.sizes == 0) and np.any(cache.sizes == g.n_cells)
    for row, sums in zip(stack, got):
        np.testing.assert_allclose(sums, oracles.ball_sums(nodes, list(row), balls),
                                   rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("dom", [UNIT, Disk((0.0, 0.0), 1.0)], ids=["1d", "2d"])
def test_balls_that_hold_every_cell_tie_exactly(dom):
    g = Grid(dom, 64 if dom.dim == 1 else 24)
    sweep = nested_sweep(g, 5 if dom.dim == 2 else 9)
    cache = SweepCache(g, sweep)
    whole = cache.sizes == g.n_cells
    assert len({b.center for b, full in zip(sweep, whole) if full}) > 1
    rows = np.random.default_rng(1).random((4, g.n_cells))
    for sums in cache.ball_sums(rows):
        assert len(set(sums[whole])) == 1
    ev = MorreyEvaluator(g, sweep)
    w = PowerWeight((0.1,) * dom.dim, 0.5)
    assert len(set(ev.weight_sums(w)[whole])) == 1


@pytest.mark.parametrize("weak", [False, True])
def test_norm_in_two_row_chunks_keeps_the_bits(monkeypatch, weak):
    import morreylab.spaces as spaces

    g, sweep, w, stack = _stack_case(2)
    wide = np.concatenate([stack, stack[::-1] * 3.0, stack[:1]])  # 9 rows
    wc = weight_cell_integrals(w, g)
    phis = _phis(2, 1.5, w)
    want = [MorreyEvaluator(g, sweep).norm(wide, w, phi, 1.5, weak) for phi in phis]
    whole = SweepCache(g, sweep).ball_sums(np.abs(wide) ** 1.5 * wc)
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 2 * g.n_cells + 1)
    ev = MorreyEvaluator(g, sweep)
    for phi, norms in zip(phis, want):
        assert np.array_equal(ev.norm(wide, w, phi, 1.5, weak), norms)
    assert np.array_equal(ev.cache.power_sums(wide, wc, 1.5), whole)


@pytest.mark.parametrize("chunk_rows", [None, 2])
@pytest.mark.parametrize("weak", [False, True])
def test_norm_of_a_list_of_rows_keeps_the_stack_bits(monkeypatch, weak, chunk_rows):
    # within one chunk (9 rows of a small grid) and across five chunks
    import morreylab.spaces as spaces

    g, sweep, w, stack = _stack_case(2)
    wide = np.concatenate([stack, stack[::-1] * 3.0, stack[:1]])  # 9 rows
    if chunk_rows:
        monkeypatch.setattr(spaces, "_CHUNK_CELLS", chunk_rows * g.n_cells + 1)
    rows = list(wide)
    for phi in _phis(2, 1.5, w):
        want = MorreyEvaluator(g, sweep).attaining(wide, w, phi, 1.5, weak)
        got = MorreyEvaluator(g, sweep).attaining(rows, w, phi, 1.5, weak)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(SweepCache(g, sweep).ball_sums(rows),
                          SweepCache(g, sweep).ball_sums(wide))


def test_ball_sums_bytes_do_not_depend_on_blas_threads():
    code = ("import sys, numpy as np\n"
            "from morreylab.geometry import Disk, Grid, nested_sweep\n"
            "from morreylab.spaces import SweepCache\n"
            "g = Grid(Disk((0.0, 0.0), 1.0), 48)\n"
            "rows = np.random.default_rng(5).random((7, g.n_cells))\n"
            "sys.stdout.buffer.write(SweepCache(g, nested_sweep(g, 5)).ball_sums(rows).tobytes())\n")
    src = str(Path(morreylab.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, timeout=300).stdout)
    assert len(outs[0]) > 0 and outs[0] == outs[1]


# --- Sobolev-Morrey --------------------------------------------------------

def test_ball_sums_in_chunks_equal_each_row(monkeypatch):
    import morreylab.spaces as spaces

    g, sweep, _, stack = _stack_case(2)
    wide = np.concatenate([stack, stack[::-1] * 3.0, stack[:1]])  # 9 rows
    want = [SweepCache(g, sweep).ball_sums(row) for row in wide]
    # chunks of 2 rows: four full chunks and a last one of one row
    monkeypatch.setattr(spaces, "_CHUNK_CELLS", 2 * g.n_cells + 1)
    got = SweepCache(g, sweep).ball_sums(wide)
    assert np.array_equal(got, np.array(want))


def test_sobolev_morrey_zero():
    g = grid(32)
    jet = {(0,): const_field(g, 0.0), (1,): const_field(g, 0.0)}
    phi = InverseWeightMeasurePhi(2.0, ONE)
    assert sobolev_morrey_norm(jet, ONE, phi, 2.0, ball_sweep(g, 3, 4), m=1) == 0.0


def test_sobolev_morrey_linear():
    g = grid(256)
    jet = {(0,): SampledField.from_function(g, lambda x: x),
           (1,): const_field(g, 1.0)}
    phi = InverseWeightMeasurePhi(2.0, ONE)
    got = sobolev_morrey_norm(jet, ONE, phi, 2.0, ball_sweep(g, 5, 6), m=1)
    assert got == pytest.approx(1 / np.sqrt(3) + 1.0, rel=1e-3)


def test_sobolev_morrey_quadratic_m2():
    g = grid(256)
    u = SampledField.from_function(g, lambda x: x * (1 - x) / 2)
    du = SampledField.from_function(g, lambda x: (1 - 2 * x) / 2)
    d2u = const_field(g, -1.0)
    jet = {(0,): u, (1,): du, (2,): d2u}
    phi = InverseWeightMeasurePhi(2.0, ONE)
    got = sobolev_morrey_norm(jet, ONE, phi, 2.0, ball_sweep(g, 5, 6), m=2)
    want = 1 / np.sqrt(120) + 1 / np.sqrt(12) + 1.0
    assert got == pytest.approx(want, rel=1e-3)


def test_sobolev_morrey_incomplete_jet():
    g = grid(16)
    jet = {(0,): const_field(g)}
    with pytest.raises(ValueError, match="incomplete jet"):
        sobolev_morrey_norm(jet, ONE, InverseWeightMeasurePhi(2.0, ONE), 2.0,
                            ball_sweep(g, 3, 3), m=1)


def test_multi_indices():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert multi_indices(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(multi_indices(2, 4)) == 15


# --- condition (2.13) ------------------------------------------------------

@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_condition_powerlaw_closed_form(lam, p):
    phi = PowerLawPhi(lam=lam, p=p, n=1)
    rep = condition_213(phi, phi, ONE, p, [0.0], np.geomspace(0.01, 1.0, 8),
                        upper_limit=1e24, points=256, sensitivity_checks=False)
    want = oracles.condition_213_powerlaw_constant(lam, 1, p)
    assert rep.constant == pytest.approx(want, rel=0.02)


def test_condition_rejects_p_below_one():
    phi = PowerLawPhi(0.5, 0.5, 1)
    with pytest.raises(ValueError, match="invalid exponent"):
        condition_213(phi, phi, ONE, 0.5, [0.0], [0.1, 0.5], upper_limit=10.0)


def test_condition_constant_phi_truncation_sensitive():
    phi = PowerLawPhi(lam=1.0, p=2.0, n=1)  # r^0: phi == 1 exactly
    rep = condition_213(phi, phi, ONE, 2.0, [0.0], [0.1, 0.5], upper_limit=10.0,
                        points=128)
    assert np.isfinite(rep.constant)
    assert "truncation-sensitive" in rep.flags


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("gamma", [None, 0.5])
def test_condition_rows_match_loop_oracle(dim, gamma):
    # every (phi1, phi2) of the power-law, weight-measure and inverse
    # weight-measure families, for the constant weight and a power weight
    p, lam, k = 2.0, 0.5 * dim, 0.3
    x = (0.1, -0.2)[:dim]
    if gamma is None:
        w = ONE
        measure = (lambda t: 2.0 * t) if dim == 1 else (lambda t: math.pi * t * t)
    else:
        w = PowerWeight((0.0,) * dim, gamma)
        measure = ((lambda t: oracles.power_cell_integral_1d(x[0] - t, x[0] + t, 0.0, gamma))
                   if dim == 1 else (lambda t: oracles.ball_measure_polar(w, x, t)))
    phis = [(PowerLawPhi(lam=lam, p=p, n=dim), lambda t, m: t ** ((lam - dim) / p)),
            (WeightMeasurePhi(k=k, p=p, w=w), lambda t, m: m ** ((k - 1.0) / p)),
            (InverseWeightMeasurePhi(p=p, w=w), lambda t, m: m ** (-1.0 / p))]
    r_grid = np.geomspace(0.02, 0.9, 6) * 2.0
    for phi1, loop1 in phis:
        for phi2, loop2 in phis:
            rep = condition_213(phi1, phi2, w, p, x, r_grid, upper_limit=20.0,
                                points=48, sensitivity_checks=False)
            want = oracles.condition_rows(loop1, loop2, measure, p, r_grid, 20.0, 48)
            assert [r for r, _ in rep.per_r] == [r for r, _ in want]
            np.testing.assert_allclose([v for _, v in rep.per_r],
                                       [v for _, v in want], rtol=1e-12)
            assert rep.constant == max(v for _, v in rep.per_r)


def test_condition_phi2_scaling():
    phi1 = PowerLawPhi(0.5, 2.0, 1)
    # (2r / 32)^(-1/4) = 2 r^(-1/4) = 2 phi1
    phi2 = WeightMeasurePhi(0.5, 2.0, ConstantWeight(1.0 / 32.0))
    a = condition_213(phi1, phi1, ONE, 2.0, [0.0], [0.2, 0.6], 100.0,
                      sensitivity_checks=False)
    b = condition_213(phi1, phi2, ONE, 2.0, [0.0], [0.2, 0.6], 100.0,
                      sensitivity_checks=False)
    assert b.constant == pytest.approx(a.constant / 2.0, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(1.0, 3.0), st.floats(0.1, 2.0))
def test_norm_zero_iff_zero(p, c):
    g = grid(20)
    f = const_field(g, 0.0)
    assert lp_weighted_norm(f, ONE, p) == 0.0
    fz = const_field(g, c)
    assert lp_weighted_norm(fz, ONE, p) > 0.0

import numpy as np
import pytest

import oracles

from morreylab.corpus import build_corpus, smoothstep_indicator
from morreylab.geometry import Disk, Grid, Interval, SampledField
from morreylab.operators import _pow2, maximal_field, operator_radius_grid
from morreylab.solver import residual_check, solve_dirichlet, solve_dirichlet_many
from morreylab.spaces import multi_indices

UNIT = Interval(0.0, 1.0)
DISK = Disk((0.0, 0.0), 1.0)


def ones(g):
    return SampledField(g, np.ones(g.n_cells))


# the pairwise driver runs N = 256 in two 128-row blocks and N = 300 in
# 64-row blocks, the last of them partial (44 rows)
def test_interval_m1_exact():
    for n in (256, 300):
        g = Grid(UNIT, n)
        sol = solve_dirichlet(UNIT, 1, ones(g))
        x = g.nodes[:, 0]
        want = x * (1 - x) / 2
        assert np.abs(sol.u.values - want).max() / want.max() < 1e-10


def test_interval_m2_exact():
    for n in (256, 300):
        g = Grid(UNIT, n)
        sol = solve_dirichlet(UNIT, 2, ones(g))
        x = g.nodes[:, 0]
        want = x**2 * (1 - x) ** 2 / 24
        assert np.abs(sol.u.values - want).max() / want.max() < 1e-6
        mid = np.argmin(np.abs(x - 0.5))
        assert sol.u.values[mid] == pytest.approx(1 / 384, rel=1e-4)


def test_disk_m1_exact():
    g = Grid(DISK, 128)
    sol = solve_dirichlet(DISK, 1, ones(g))
    want = (1 - (g.nodes**2).sum(-1)) / 4
    assert np.abs(sol.u.values - want).max() / want.max() < 2e-4
    center = np.argmin((g.nodes**2).sum(-1))
    assert sol.u.values[center] == pytest.approx(0.25, rel=0.01)


def test_disk_m2_exact():
    g = Grid(DISK, 48)
    sol = solve_dirichlet(DISK, 2, ones(g))
    want = (1 - (g.nodes**2).sum(-1)) ** 2 / 64
    assert np.abs(sol.u.values - want).max() / want.max() < 1e-4


@pytest.mark.parametrize("dom,m,n", [(UNIT, 1, 64), (UNIT, 2, 64), (DISK, 1, 32),
                                     (DISK, 2, 16)])
def test_jet_complete(dom, m, n):
    sol = solve_dirichlet(dom, m, ones(Grid(dom, n)))
    assert list(sol.jet) == multi_indices(dom.dim, 2 * m)


def test_jet_derivatives_interval_m1():
    g = Grid(UNIT, 256)
    sol = solve_dirichlet(UNIT, 1, ones(g))
    x = g.nodes[:, 0]
    assert np.abs(sol.jet[(1,)].values - (0.5 - x)).max() < 1e-8
    interior = (x > 0.05) & (x < 0.95)
    assert np.abs(sol.jet[(2,)].values + 1.0)[interior].max() < 1e-6


def test_residual_exact_cases():
    for dom, m, n, tol in ((UNIT, 1, 256, 1e-8), (UNIT, 2, 256, 1e-5),
                           (DISK, 1, 128, 0.05)):
        g = Grid(dom, n)
        f = ones(g)
        sol = solve_dirichlet(dom, m, f)
        assert residual_check(dom, m, sol, f) < tol * 1.0


def test_zero_field_zero_solution():
    g = Grid(UNIT, 64)
    f = SampledField(g, np.zeros(g.n_cells))
    sol = solve_dirichlet(UNIT, 1, f)
    for field in sol.jet.values():
        assert np.all(field.values == 0.0)


def test_linearity():
    g = Grid(UNIT, 64)
    rng = np.random.default_rng(0)
    f1 = SampledField(g, rng.normal(size=g.n_cells))
    f2 = SampledField(g, rng.normal(size=g.n_cells))
    a = solve_dirichlet(UNIT, 2, f1)
    b = solve_dirichlet(UNIT, 2, f2)
    ab = solve_dirichlet(UNIT, 2, f1 + f2)
    for alpha in ab.jet:
        lin = a.jet[alpha].values + b.jet[alpha].values
        np.testing.assert_allclose(ab.jet[alpha].values, lin, rtol=1e-10, atol=1e-12)


def test_positivity_m1():
    for dom, n in ((UNIT, 128), (DISK, 64)):
        g = Grid(dom, n)
        center = [0.6] if dom.dim == 1 else [0.3, -0.2]
        f = SampledField.from_function(g, smoothstep_indicator(center, 0.2))
        sol = solve_dirichlet(dom, 1, f)
        assert sol.u.values.min() >= -1e-12


def test_boundary_decay_rate():
    # |u| on the three outermost cell layers scales like dist^m
    for m, n in ((1, 256), (2, 128)):
        g = Grid(UNIT, n)
        sol = solve_dirichlet(UNIT, m, ones(g))
        layers = []
        for k in range(3):
            sel = (g.boundary_dist >= k * g.h) & (g.boundary_dist < (k + 1) * g.h)
            layers.append(np.abs(sol.u.values[sel]).max())
        # dist of layer k is (k + 1/2) h: ratios follow ((k+1.5)/(k+0.5))^m
        for k in range(2):
            want = ((k + 1.5) / (k + 0.5)) ** m
            assert layers[k + 1] / layers[k] == pytest.approx(want, rel=0.2)


def test_pointwise_domination_by_maximal():
    # |D^alpha u| <= C Mf holds with a refinement-stable constant
    consts = {}
    for n in (64, 128):
        g = Grid(UNIT, n)
        corpus = build_corpus(g, seed=1, n_random=2)
        worst = 0.0
        for _, f in corpus:
            sol = solve_dirichlet(UNIT, 1, f)
            mf = maximal_field(f, operator_radius_grid(g, 24))
            ratio = np.abs(sol.jet[(1,)].values) / np.maximum(mf.values, 1e-300)
            worst = max(worst, ratio.max())
        consts[n] = worst
    assert np.isfinite(consts[128])
    assert abs(consts[128] - consts[64]) <= 0.1 * consts[64]


@pytest.mark.parametrize("n", [32, 33])
def test_disk_m1_solve_does_not_depend_on_convolver_state(n, monkeypatch):
    from morreylab import operators

    sizes = []
    apply = operators._Convolver.apply
    monkeypatch.setattr(operators._Convolver, "apply",
                        lambda self, *a: sizes.append(self.size) or apply(self, *a))
    g = Grid(DISK, n)
    rng = np.random.default_rng(n)
    f = SampledField(g, rng.normal(size=g.n_cells))
    first = solve_dirichlet(DISK, 1, f).jet
    assert set(sizes) == {operators._pow2(3 * n - 2)}
    sizes.clear()
    maximal_field(f, operator_radius_grid(g, 8))
    assert set(sizes) == {operators._pow2(2 * n - 1)}
    again = solve_dirichlet(DISK, 1, f).jet
    assert first.keys() == again.keys()
    for alpha in first:
        assert np.array_equal(first[alpha].values, again[alpha].values), alpha
    assert operators._convolver.cache_info().currsize == 1


def test_no_green_function():
    g = Grid(UNIT, 16)
    with pytest.raises(ValueError, match="no Green function"):
        solve_dirichlet(UNIT, 3, ones(g))


def test_domain_mismatch():
    g = Grid(UNIT, 16)
    with pytest.raises(ValueError, match="different domain"):
        solve_dirichlet(Interval(0.0, 2.0), 1, ones(g))


@pytest.mark.parametrize("dom,m,n", [(UNIT, 1, 64), (UNIT, 2, 64), (DISK, 1, 32),
                                     (DISK, 2, 16)])
def test_batch_equals_single(dom, m, n):
    g = Grid(dom, n)
    fields = [f for _, f in build_corpus(g, seed=3, n_random=2)]
    batch = solve_dirichlet_many(dom, m, fields)
    for f, many in zip(fields, batch):
        one = solve_dirichlet(dom, m, f)
        assert list(many.jet) == list(one.jet)
        for a, fld in one.jet.items():
            got, want = many.jet[a].values, fld.values
            if dom == DISK and m == 1:
                assert np.array_equal(got, want)  # each column solved alone
            else:
                scale = max(np.abs(want).max(), 1e-300)
                assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("dom,m,n", [(UNIT, 1, 100), (UNIT, 2, 100), (DISK, 2, 20)])
def test_pairwise_values_do_not_move_with_the_block_budget(dom, m, n, monkeypatch):
    # 8 to 64 rows per block, each ending in a partial block: one column
    # keeps its bits, a batch its values to 1e-13.  The node counts (100,
    # 316) are multiples of 4; at some odd counts (the disk at n = 15, 17
    # and 25) one column's bits moved with the row count as well
    from morreylab import greens
    from morreylab.solver import _pairwise_values

    g = Grid(dom, n)
    F = np.column_stack([f.values for _, f in build_corpus(g, seed=3, n_random=2)])
    results = []
    for rows in (8, 16, 32, 64):
        assert g.n_cells % rows
        monkeypatch.setattr(greens, "_BLOCK_ENTRIES", rows * g.n_cells)
        results.append((_pairwise_values(g, m, F[:, :1]), _pairwise_values(g, m, F)))
    (one0, many0), rest = results[0], results[1:]
    for one, many in rest:
        for a in one0:
            assert np.array_equal(one[a], one0[a]), a
            scale = np.abs(many0[a]).max(axis=1)  # row i: right-hand side i
            assert (np.abs(many[a] - many0[a]).max(axis=1) <= 1e-13 * scale).all(), a


def test_pairwise_values_working_set():
    # the row blocks bound the traced peak; 256-row blocks took 92 MB
    import tracemalloc

    from morreylab.solver import _pairwise_values

    g = Grid(DISK, 40)
    F = np.random.default_rng(0).random((g.n_cells, 1))
    tracemalloc.start()
    try:
        _pairwise_values(g, 2, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _boundary_data(n):
    th = np.arange(8 * n) * (2 * np.pi / (8 * n))
    return np.cos(3 * th) + 0.5 * np.sin(7 * th) + np.random.default_rng(n).normal(size=8 * n)


@pytest.mark.parametrize("dom,n", [(DISK, 32), (Disk((0.5, -0.25), 2.0), 41)])
def test_harmonic_completion_matches_out_of_place_horner(dom, n, monkeypatch):
    # with no tail dropped every node runs every degree, and the in-place
    # Horner on suffixes of the radius-sorted nodes keeps the oracle's bits
    from morreylab import solver

    monkeypatch.setattr(solver, "_TAIL_EPS", 0.0)
    g = Grid(dom, n)
    data = _boundary_data(n)
    got = solver._harmonic_completion(g, data, solver._radius_order(g))
    want = oracles.harmonic_completion(dom.center, dom.radius, g.nodes, data)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dom,n", [(Disk((0.5, -0.25), 2.0), 41), (DISK, 256)])
def test_harmonic_completion_tail_stays_within_its_bound(dom, n):
    # the dropped terms add at most _TAIL_EPS * max|c| to |F| + |F'| at a
    # node; the two Horner sums also round apart, by up to 2.9 units of
    # u * B at these grids, B = sum |c_k| (r^k + k r^(k-1)) the node's
    # absolute sum; 8 units are allowed
    from morreylab import solver

    g = Grid(dom, n)
    data = _boundary_data(n)
    got = solver._harmonic_completion(g, data, solver._radius_order(g))
    want = oracles.harmonic_completion(dom.center, dom.radius, g.nodes, data)
    M = len(data)
    ghat = np.fft.rfft(data) / M
    size = 2.0 * np.abs(ghat)
    size[0] = abs(ghat[0].real)
    r = np.hypot(*(g.nodes - np.asarray(dom.center)).T) / dom.radius
    k = np.arange(len(size))
    B = (np.polynomial.polynomial.polyval(r, size)
         + np.polynomial.polynomial.polyval(r, (k * size)[1:]))
    bound = solver._TAIL_EPS * size.max() + 8 * (np.finfo(float).eps / 2) * B
    assert not all(np.array_equal(a, b) for a, b in zip(got, want))  # terms were dropped
    for i, (a, b) in enumerate(zip(got, want)):
        scale = 1.0 if i == 0 else dom.radius  # derivatives carry 1 / radius
        assert (np.abs(a - b) * scale <= bound).all(), i


def test_harmonic_completion_of_zero_data_is_zero():
    from morreylab.solver import _harmonic_completion, _radius_order

    g = Grid(DISK, 33)  # a node sits at the center, r = 0
    for field in _harmonic_completion(g, np.zeros(8 * 33), _radius_order(g)):
        assert np.all(field == 0.0)


@pytest.mark.parametrize("dom,m,n", [(UNIT, 2, 32), (DISK, 1, 24)])
def test_batch_jets_are_read_only_rows_of_one_block(dom, m, n):
    g = Grid(dom, n)
    fields = [f for _, f in build_corpus(g, seed=3, n_random=2)]
    sols = solve_dirichlet_many(dom, m, fields)
    for a in sols[0].jet:
        rows = [sol.jet[a].values for sol in sols]
        block = rows[0].base
        assert block.shape == (len(fields), g.n_cells), a
        assert all(np.shares_memory(block, row) for row in rows), a
        with pytest.raises(ValueError, match="read-only"):
            rows[-1][0] = 1.0


def test_disk_m1_batch_working_set():
    # each jet field is held once, as a row of its block: the parent's
    # copies and whole-stack differences peaked at 7.5 MB here
    import tracemalloc

    g = Grid(DISK, 64)
    fields = [f for _, f in build_corpus(g, seed=7, n_random=12)]
    assert len(fields) == 21
    solve_dirichlet_many(DISK, 1, fields[:1])  # the convolver and radius caches
    tracemalloc.start()
    try:
        sols = solve_dirichlet_many(DISK, 1, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = len(sols[0].jet) * len(fields) * g.n_cells * 8  # 3.3 MB of blocks
    # the three Gamma spectra (1.6 MB) are built inside the call: no
    # spectrum outlives a call to be reused by the next
    size = _pow2(3 * g.n - 2)
    assert peak < held + 2.2e6 + 3 * size * (size // 2 + 1) * 16

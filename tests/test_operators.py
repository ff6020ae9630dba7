import importlib.util
from pathlib import Path

import numpy as np
import pytest

import oracles
from morreylab.corpus import polynomial_bump
from morreylab.geometry import Disk, Grid, Interval, SampledField
from morreylab.harness import _nested_operator_grid
from morreylab.operators import (
    CZKernel,
    _ball_kernel,
    _convolutions,
    _Convolver,
    _gamma_kernel,
    _pow2,
    _truncated_kernel,
    _window_sums_1d,
    maximal_field,
    operator_radius_grid,
    singular_field,
    singular_identity_check,
)
from morreylab.solver import solve_dirichlet, solve_dirichlet_many
from morreylab.spaces import multi_indices


def disk_grid(n=64, R=1.0):
    return Grid(Disk((0.0, 0.0), R), n)


def lattice_cells(g):
    """Integer lattice index of every masked node, in node order."""
    return [tuple(int(i) for i in c)
            for c in np.argwhere(g.lattice_mask.reshape((g.n,) * g.dim))]


def nearest_node(g, x):
    return int(np.argmin(np.linalg.norm(g.nodes - np.asarray(x, dtype=float), axis=1)))


def kernel_at(kernel):
    return lambda z: float(kernel(np.array([z]))[0])


# --- maximal -----------------------------------------------------------------

def test_maximal_constant_one():
    g = Grid(Interval(-1.0, 1.0), 257)
    f = SampledField(g, np.ones(g.n_cells))
    i = nearest_node(g, [0.0])
    assert g.nodes[i, 0] == 0.0
    got = maximal_field(g, [f.values], operator_radius_grid(g))[0, i]
    # the 2k + 1 cells within k h < t against the exact-ball denominator
    # are off by a factor within 1 +- h/2t: an overshoot of at most 1.5,
    # at t just above h, and below 2% from t = 25 h on (index 28 on)
    assert 1.0 - 1e-12 <= got <= 1.5
    coarse = maximal_field(g, [f.values], operator_radius_grid(g)[28:])[0, i]
    assert coarse == pytest.approx(1.0, rel=0.02)


def test_maximal_offset_indicator():
    g = Grid(Interval(-4.0, 4.0), 512)
    f = SampledField.from_function(g, lambda x: (np.abs(x) < 1.0).astype(float))
    i = nearest_node(g, [2.0])
    radii = np.concatenate([operator_radius_grid(g, 64), [3.0]])
    got = maximal_field(g, [f.values], radii)[0, i]
    assert got == pytest.approx(1.0 / 3.0, rel=0.02)
    # dense sweep oracle: the optimum over a fine t grid agrees
    dense = maximal_field(g, [f.values], np.linspace(0.1, 8.0, 1500))[0, i]
    assert got == pytest.approx(dense, rel=0.02)


def test_maximal_dominates_single_ball_average():
    g = disk_grid(48)
    rng = np.random.default_rng(1)
    f = SampledField(g, rng.uniform(0, 1, g.n_cells))
    i = nearest_node(g, [0.2, -0.1])
    radii = operator_radius_grid(g, 16)
    m = maximal_field(g, [f.values], radii)[0, i]
    cells = lattice_cells(g)
    r2 = np.array([oracles.lattice_r2(cells[i], b, g.h) for b in cells])
    for t in radii[:4]:
        avg = f.values[r2 < t**2].sum() * g.cell_measure / (np.pi * t**2)
        assert m >= avg - 1e-12


def test_maximal_sublinear_homogeneous():
    g = Grid(Interval(0.0, 1.0), 128)
    rng = np.random.default_rng(2)
    f1 = SampledField(g, rng.normal(size=g.n_cells))
    f2 = SampledField(g, rng.normal(size=g.n_cells))
    radii = operator_radius_grid(g, 24)
    m1, m2 = maximal_field(g, [f1.values, f2.values], radii)
    assert np.all(maximal_field(g, [f1.values + f2.values], radii)[0] <= m1 + m2 + 1e-12)
    np.testing.assert_allclose(maximal_field(g, [-3.0 * f1.values], radii)[0], 3.0 * m1,
                               rtol=1e-12)


def test_maximal_field_matches_pointwise():
    for g in (Grid(Interval(0.0, 1.0), 64), disk_grid(32)):
        rng = np.random.default_rng(3)
        f = SampledField(g, rng.uniform(-1, 1, g.n_cells))
        radii = operator_radius_grid(g, 12)
        field = maximal_field(g, [f.values], radii)[0]
        idx = rng.integers(0, g.n_cells, 12)
        cells = lattice_cells(g)
        want = oracles.maximal_lattice(cells, f.values, g.h, radii,
                                       centers=[cells[i] for i in idx])
        np.testing.assert_allclose(field[idx], want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n", [16, 17, 24, 25])
def test_fields_match_pointwise_at_the_alias_boundary(n):
    # at n = 16 the transform is 2n long, one more than the alias-free
    # 2n - 1; at 2n - 2 a field on one rim wraps onto the other.  The
    # radii are half-integer and integer cell counts up to the diameter,
    # h and the diameter included: every integer one ties with a lattice
    # distance, and the oracles decide those ties by the fields' rule
    g = disk_grid(n)
    assert _Convolver(g).size == {16: 32, 17: 64, 24: 64, 25: 64}[n]
    x0 = g.nodes[:, 0]
    f = SampledField(g, np.where(x0 > 0.6, 1.0 + x0, 0.0))
    k = np.arange(1, n + 1)
    radii = np.concatenate([(k + 0.5) * g.h, k * g.h, [g.domain.diameter]])
    cz = CZKernel(2, 1, (1, 1))
    cells = lattice_cells(g)
    np.testing.assert_allclose(
        maximal_field(g, [f.values], radii)[0],
        oracles.maximal_lattice(cells, f.values, g.h, radii), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        singular_field(g, [f.values], cz, radii)[0],
        oracles.maximal_singular_lattice(cells, f.values, g.h, kernel_at(cz), radii),
        rtol=1e-9, atol=1e-12)


def test_radii_one_rounding_apart_keep_their_own_balls():
    # the ball of k h and that of the next float up differ on this grid:
    # a spectrum shared between two such radii would stand for both
    g = disk_grid(24)
    f = SampledField(g, np.random.default_rng(11).uniform(0, 1, g.n_cells))
    cz = CZKernel(2, 1, (1, 1))
    cells = lattice_cells(g)
    for k in (1, 3, 5):
        radii = [k * g.h, np.nextafter(k * g.h, np.inf)]
        np.testing.assert_allclose(
            maximal_field(g, [f.values], radii)[0],
            oracles.maximal_lattice(cells, f.values, g.h, radii), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            singular_field(g, [f.values], cz, radii)[0],
            oracles.maximal_singular_lattice(cells, f.values, g.h, kernel_at(cz), radii),
            rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_stacks_equal_each_field(n, k):
    # 4 radii: k = 1, 2 hold the rows' transforms and stream the spectra,
    # k = 5 holds the spectra and streams the rows
    g = disk_grid(n)
    rng = np.random.default_rng(n + k)
    fields = rng.normal(size=(k, g.n_cells))
    radii = operator_radius_grid(g, 4)
    cz = CZKernel(2, 1, (1, 1))
    for stack, each in ((maximal_field(g, fields, radii),
                         [maximal_field(g, [f], radii)[0] for f in fields]),
                        (singular_field(g, fields, cz, radii),
                         [singular_field(g, [f], cz, radii)[0] for f in fields])):
        assert stack.shape == (k, g.n_cells)
        for got, want in zip(stack, each):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("g", [Grid(Interval(0.0, 1.0), 40), disk_grid(24)])
@pytest.mark.parametrize("k", [1, 3])
def test_operators_take_an_array_or_a_list_of_rows(g, k):
    rows = np.random.default_rng(k).normal(size=(k, g.n_cells))
    radii = operator_radius_grid(g, 6)
    cz = CZKernel(2, 1, (1, 1))
    for op in (lambda r: maximal_field(g, r, radii),
               lambda r: singular_field(g, r, cz, radii)):
        stack = op(rows)
        assert type(stack) is np.ndarray and stack.shape == (k, g.n_cells)
        assert np.array_equal(stack, op(list(rows)))


def test_stacks_take_one_grid():
    # every row holds one value per masked cell of the grid passed
    cz = CZKernel(2, 1, (1, 1))
    for g in (Grid(Interval(0.0, 1.0), 16), disk_grid(16)):
        for empty in ([], np.zeros((0, g.n_cells))):
            assert maximal_field(g, empty, [0.5]).shape == (0, g.n_cells)
            assert singular_field(g, empty, cz, [0.5]).shape == (0, g.n_cells)
        for bad in ([np.ones(g.n_cells + 1)], np.ones((2, g.n_cells - 1)),
                    [np.ones(g.n_cells), np.ones(g.n_cells - 1)], np.ones(g.n_cells)):
            with pytest.raises(ValueError):
                maximal_field(g, bad, [0.5])
            with pytest.raises(ValueError):
                singular_field(g, bad, cz, [0.5])


def _traced_peak(call) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [1, 2, 8, 24])
def test_stack_working_set(k):
    # a k-row stack against K spectra holds min(k, K) transforms and the
    # streamed one, plus apply's product buffer when a held transform meets
    # more than one streamed one (the last use takes the product in the
    # streamed transform's own buffer, which the next transform reuses).
    # One more transform covers apply's row buffer and a kernel block with
    # its temporaries: 0.83 of it here; a fresh buffer per transform or
    # rfft2's padded copy would put the peak past that
    g = disk_grid(65)  # a 256-point transform: the outputs stay small
    rng = np.random.default_rng(k)
    fields = rng.normal(size=(k, g.n_cells))
    radii = operator_radius_grid(g, 12)
    maximal_field(g, fields[:1], radii)  # first-call state stays out of the peak
    size = _Convolver(g).size
    transform = size * (size // 2 + 1) * 16
    outputs = k * (g.n_cells + g.n**2) * 8  # |f| rows and running maxima
    held = min(k, len(radii))
    schedule = held + 1 + (held > 1)
    peak = _traced_peak(lambda: maximal_field(g, fields, radii))
    assert peak <= (schedule + 1) * transform + outputs


def test_single_rhs_solve_working_set():
    # one right-hand side against the solver's three Gamma kernels at its
    # pow2(3n-2) size: the row's transform and one spectrum at a time, each
    # built into the buffer of the one before, plus apply's row buffer, a
    # kernel block's temporaries and the solver's blocks: 2.64 transforms
    # here, 3.02 with each kernel built on the whole lattice, and 4.26 with
    # that, a fresh buffer per spectrum and rfft2's padded copy
    g = disk_grid(256)
    f = SampledField(g, np.random.default_rng(5).normal(size=g.n_cells))
    solve_dirichlet(g.domain, 1, f)  # first-call state stays out of the peak
    size = _pow2(3 * g.n - 2)
    transform = size * (size // 2 + 1) * 16
    assert _traced_peak(lambda: solve_dirichlet(g.domain, 1, f)) <= 3.0 * transform


@pytest.mark.parametrize("n,integer_radii", [(98, True), (322, False)])
def test_maximal_field_1d_decides_ties_by_the_lattice_rule(n, integer_radii):
    # on these grids a radius of the nested grid at 5 per octave, or an
    # integer number of cells, lands on a lattice distance up to one
    # rounding: the 1D half-widths must decide it as the 2D kernels and
    # the oracle do
    g = Grid(Interval(0.0, 1.0), n)
    f = SampledField.from_function(g, lambda x: 1.0 + x)
    radii = _nested_operator_grid(g, 5)
    if integer_radii:
        radii = np.concatenate([radii, np.arange(1, n) * g.h])
    want = np.array(oracles.ball_averages_lattice(lattice_cells(g), f.values, g.h, radii))
    for t, col in zip(radii, want.T):
        np.testing.assert_allclose(maximal_field(g, [f.values], [t])[0], col,
                                   rtol=1e-9, atol=1e-12)


def test_maximal_zero_extension_box_invariance():
    dom = Interval(0.0, 1.0)
    g1 = Grid(dom, 64)
    pad = 16 * g1.h
    g2 = Grid(dom, 64 + 32, box=((-pad, 1.0 + pad),))
    vals = np.sin(np.pi * g1.nodes[:, 0])
    radii = operator_radius_grid(g1, 16)
    m1 = maximal_field(g1, [vals], radii)[0]
    m2 = maximal_field(g2, [vals], radii)[0]
    assert np.abs(m1 - m2).max() < 1e-12


# --- CZ kernels ---------------------------------------------------------------

def test_czkernel_zero_mean():
    # every order-2m derivative of Gamma has zero mean over the unit circle;
    # the midpoint rule is exact for these trigonometric polynomials
    th = (np.arange(4096) + 0.5) * (2 * np.pi / 4096)
    circle = np.column_stack([np.cos(th), np.sin(th)])
    for m in (1, 2):
        for alpha in multi_indices(2, 2 * m):
            if sum(alpha) == 2 * m:
                vals = CZKernel(2, m, alpha)(circle)
                assert abs(vals.mean()) <= 1e-12 * np.abs(vals).mean(), alpha


def test_czkernel_rejects_wrong_order():
    with pytest.raises(ValueError):
        CZKernel(2, 1, (1, 0))


def test_czkernel_1d_vanishes():
    k = CZKernel(1, 1, (2,))
    assert np.all(k(np.array([[0.2], [-0.4]])) == 0.0)


# --- truncated singular --------------------------------------------------------

def test_truncated_radial_cancellation():
    g = disk_grid(65)
    f = SampledField(g, np.ones(g.n_cells))  # radial indicator of the disk
    i = nearest_node(g, [0.0, 0.0])
    assert not g.nodes[i].any()
    k = CZKernel(2, 1, (2, 0))
    for eps in (2 * g.h, 0.3, 0.7):
        assert singular_field(g, [f.values], k, [eps])[0, i] < 1e-10


def test_truncated_odd_symmetry():
    g = disk_grid(49)
    f = SampledField.from_function(g, lambda x, y: x)  # odd under x1 -> -x1
    k = CZKernel(2, 1, (2, 0))  # even under the reflection
    axis = np.abs(g.nodes[:, 0]) < 1e-12
    assert axis.sum() > 10
    assert singular_field(g, [f.values], k, [3 * g.h])[0, axis].max() < 1e-10


def test_truncated_below_resolution():
    g = disk_grid(16)
    f = SampledField(g, np.ones(g.n_cells))
    with pytest.raises(ValueError, match="truncation below resolution"):
        singular_field(g, [f.values], CZKernel(2, 1, (2, 0)), [g.h / 2, 2 * g.h])


def test_truncated_smooth_oversampling_oracle():
    # a node outside the support: nonsingular quadrature must converge under
    # refinement (3x finer grid within 1e-4 relative); each cell of grid
    # 65 has its center at the center of a cell of grid 195
    k = CZKernel(2, 1, (1, 1))
    bump, _, _ = polynomial_bump([0.5, 0.0], 0.5, 2)
    coarse = disk_grid(65, R=2.0)
    x = coarse.nodes[nearest_node(coarse, [-1.2, 0.0])]
    vals = {}
    for n in (65, 195):
        g = disk_grid(n, R=2.0)
        i = nearest_node(g, x)
        assert np.linalg.norm(g.nodes[i] - x) < 1e-12
        f = SampledField(g, bump(g.nodes))
        vals[n] = singular_field(g, [f.values], k, [2 * g.h])[0, i]
    assert vals[195] == pytest.approx(vals[65], rel=1e-4)


def test_maximal_singular_dominates_and_constant_region():
    g = Grid(Disk((0.0, 0.0), 3.0), 96)
    f = SampledField.from_function(g, lambda x, y: (np.hypot(x, y) < 1.0).astype(float))
    k = CZKernel(2, 1, (2, 0))
    i = nearest_node(g, [2.0, 0.0])
    eps_grid = operator_radius_grid(g, 24)
    ks = singular_field(g, [f.values], k, eps_grid)[0, i]
    for e in eps_grid[:5]:
        assert ks >= singular_field(g, [f.values], k, [e])[0, i] - 1e-14
    # truncations below the distance to the support see the whole support
    a = singular_field(g, [f.values], k, [0.3])[0, i]
    b = singular_field(g, [f.values], k, [0.8])[0, i]
    assert a == pytest.approx(b, abs=1e-6 * max(a, 1))


def test_singular_field_matches_pointwise():
    g = disk_grid(32)
    rng = np.random.default_rng(5)
    f = SampledField(g, rng.normal(size=g.n_cells))
    k = CZKernel(2, 1, (1, 1))
    eps_grid = operator_radius_grid(g, 8)
    field = singular_field(g, [f.values], k, eps_grid)[0]
    idx = rng.integers(0, g.n_cells, 8)
    cells = lattice_cells(g)
    want = oracles.maximal_singular_lattice(cells, f.values, g.h, kernel_at(k), eps_grid,
                                            centers=[cells[i] for i in idx])
    np.testing.assert_allclose(field[idx], want, rtol=1e-8, atol=1e-11)


def test_singular_linearity():
    g = disk_grid(24)
    rng = np.random.default_rng(7)
    f1, f2 = rng.normal(size=(2, g.n_cells))
    kern = [_truncated_kernel(g, CZKernel(2, 1, (2, 0)), 3 * g.h)]
    lhs, a, b = (out for _, _, out in _convolutions(g, [f1 + 2.0 * f2, f1, f2], kern))
    np.testing.assert_allclose(lhs, a + 2.0 * b, rtol=1e-11, atol=1e-13)


def test_no_spectrum_outlives_its_call(monkeypatch):
    from morreylab.operators import _convolver

    convs = set()
    spectrum = _Convolver.spectrum
    monkeypatch.setattr(_Convolver, "spectrum",
                        lambda self, *a: convs.add(self) or spectrum(self, *a))
    a, b = disk_grid(24), disk_grid(20)
    rng = np.random.default_rng(9)
    fa = SampledField(a, rng.normal(size=a.n_cells))
    fb = SampledField(b, rng.normal(size=b.n_cells))
    radii = operator_radius_grid(a, 8)
    cz = CZKernel(2, 1, (1, 1))
    first = maximal_field(a, [fa.values], radii)[0]
    for call in (lambda: maximal_field(a, [fa.values] * 2, radii),
                 lambda: singular_field(a, [fa.values], cz, radii),
                 lambda: singular_field(a, [fa.values] * 9, cz, radii),
                 lambda: singular_identity_check(fa, [((2, 0), (1, 0))]),
                 lambda: solve_dirichlet_many(a.domain, 1, [fa]),
                 lambda: solve_dirichlet_many(a.domain, 1, [fa] * 4),
                 lambda: maximal_field(b, [fb.values], operator_radius_grid(b, 8))):
        call()
        for conv in convs:
            assert conv._spectra == {} and conv._spare is None and conv._last is None
            assert conv._work is None and conv._rows is None
    assert _convolver.cache_info().currsize == 1
    # the spectra are built again at each call, to the same bits
    assert np.array_equal(first, maximal_field(a, [fa.values], radii)[0])


# --- identity -----------------------------------------------------------------

def test_identity_zero_field():
    g = disk_grid(32, R=2.0)
    f = SampledField(g, np.zeros(g.n_cells))
    [rep] = singular_identity_check(f, [((2, 0), (1, 0))])
    assert rep.max_discrepancy == 0.0


def test_identity_mollified_disk_indicator():
    g = disk_grid(256, R=2.0)
    bump, _, _ = polynomial_bump([0.0, 0.0], 1.0, 2)
    f = SampledField(g, bump(g.nodes))
    [rep] = singular_identity_check(f, [((2, 0), (1, 0))])
    assert rep.expected_a == -0.5
    assert rep.fitted_a == pytest.approx(-0.5, abs=0.01)
    assert rep.max_discrepancy < 0.02
    assert rep.trace_residual < 0.02


def test_identity_requires_compatible_indices():
    g = disk_grid(16)
    f = SampledField(g, np.ones(g.n_cells))
    with pytest.raises(ValueError):
        singular_identity_check(f, [((2, 0), (1, 0)), ((2, 0), (0, 1))])


def test_identity_pairs_equal_each_pair():
    # one stack of convolutions gives each pair's report bit for bit
    g = disk_grid(32, R=2.0)
    bump, _, _ = polynomial_bump([0.0, 0.0], 1.0, 2)
    f = SampledField(g, bump(g.nodes))
    pairs = [((2, 0), (1, 0)), ((0, 2), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (0, 1))]
    assert singular_identity_check(f, pairs) == [
        singular_identity_check(f, [pair])[0] for pair in pairs]


# --- one convolution path -----------------------------------------------------

def test_one_forward_transform_per_field(monkeypatch):
    from morreylab.operators import _Convolver

    calls = []
    forward = _Convolver.forward
    monkeypatch.setattr(_Convolver, "forward",
                        lambda self, lattice: calls.append(1) or forward(self, lattice))
    g = disk_grid(32, R=2.0)
    bump, _, _ = polynomial_bump([0.0, 0.0], 1.0, 2)
    f = SampledField(g, bump(g.nodes))
    radii = operator_radius_grid(g, 6)
    singular_identity_check(f, [((2, 0), (1, 0)), ((0, 2), (0, 1))])
    assert len(calls) == 1
    maximal_field(g, [f.values], radii)
    singular_field(g, [f.values], CZKernel(2, 1, (1, 1)), radii)
    assert len(calls) == 3
    # a stack of k fields: one transform per field, whichever set is held
    for k in (2, 9):
        calls.clear()
        maximal_field(g, [f.values] * k, radii)
        assert len(calls) == k
    calls.clear()
    solve_dirichlet(g.domain, 1, f)
    assert len(calls) == 1
    solve_dirichlet_many(g.domain, 1, [f] * 5)
    assert len(calls) == 6


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_probe_counts_the_schedule():
    # benchmark/tracer.py's Probe, installed as benchmark/child.py does,
    # wraps _Convolver.spectrum(key, build) and apply(fwd, key, build) in
    # pre-hooks of fixed positional arguments and reads _spectra, grid and
    # size: those signatures and attributes are the convolver's contract
    from morreylab import cli, greens, harness, operators, spaces

    tracing = _bench_tracer()
    g = disk_grid(24)
    rows = np.random.default_rng(6).normal(size=(5, g.n_cells))
    fields = [SampledField(g, r) for r in rows[:3]]
    radii = operator_radius_grid(g, 4)
    pairs = [((2, 0), (1, 0)), ((0, 2), (0, 1))]

    def fields_of(jet):
        return [f.values for f in jet.values()]

    def identity():
        return [np.array([[r.fitted_a, r.max_discrepancy, r.trace_residual]
                          for r in singular_identity_check(fields[0], pairs)])]

    # (call, applies, spectrum builds): 5 rows hold the 4 spectra, one
    # row meets the solver's 3 kernels, 3 rows are held against them, and
    # the identity check meets 2 potentials and 2 truncations
    calls = [(lambda: [maximal_field(g, rows, radii)], 20, 4),
             (lambda: fields_of(solve_dirichlet(g.domain, 1, fields[0])), 3, 3),
             (lambda: list(solve_dirichlet_many(g.domain, 1, fields).values()), 9, 3),
             (identity, 4, 4)]
    untraced = [call() for call, _, _ in calls]
    originals = {a: vars(_Convolver)[a] for a in ("spectrum", "apply")}
    tracer = tracing.Tracer("test")
    probe = tracing.Probe(tracer)
    probe.install(cli, harness, spaces, greens, operators)
    try:
        assert all(vars(_Convolver)[a] is not f for a, f in originals.items())
        for (call, applies, builds), want in zip(calls, untraced):
            before = probe.fft_applies, probe.spectrum_builds
            got = call()
            assert (probe.fft_applies - before[0],
                    probe.spectrum_builds - before[1]) == (applies, builds)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    finally:
        tracer.restore()
    assert all(vars(_Convolver)[a] is f for a, f in originals.items())
    assert probe.spectrum_lookups == probe.fft_applies == 36
    assert probe.spectra_held() == (0, 0)


@pytest.mark.parametrize("grid", [Grid(Interval(0.0, 1.0), 16), disk_grid(24)])
def test_masked_fd_exact_on_linear_fields(grid):
    from morreylab.operators import _masked_fd

    slopes = [3.0, -2.0][: grid.dim]
    lattice = (grid.lattice_nodes @ slopes + 0.25).reshape((grid.n,) * grid.dim)
    mask = grid.lattice_mask.reshape(lattice.shape)
    for axis in range(grid.dim):
        out, central = _masked_fd(grid, lattice, axis)
        up = np.roll(mask, -1, axis=axis)
        down = np.roll(mask, 1, axis=axis)
        np.moveaxis(up, axis, 0)[-1] = False
        np.moveaxis(down, axis, 0)[0] = False
        assert np.array_equal(central, mask & up & down)
        one_sided = mask & (up ^ down)
        assert one_sided.any() and central.any()
        assert np.allclose(out[central | one_sided], slopes[axis], rtol=1e-12)
        assert not out[~mask].any()


def test_masked_fd_zero_on_isolated_cell():
    from types import SimpleNamespace

    from morreylab.operators import _masked_fd

    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 2] = True          # isolated along both axes
    mask[0, 1:4] = True        # a row: isolated along axis 0 only
    grid = SimpleNamespace(lattice_mask=mask.ravel(), h=0.5, n=5, dim=2)
    lattice = np.arange(25.0).reshape(5, 5) ** 2
    out0, central0 = _masked_fd(grid, lattice, 0)
    out1, central1 = _masked_fd(grid, lattice, 1)
    assert out0[2, 2] == 0.0 and out1[2, 2] == 0.0
    assert not out0[0].any()
    assert out1[0, 2] == (lattice[0, 3] - lattice[0, 1]) / (2 * grid.h)
    assert not central0.any()
    assert central1.sum() == 1 and central1[0, 2]


@pytest.mark.parametrize("grid", [Grid(Interval(0.0, 1.0), 16), disk_grid(24)])
def test_masked_fd_stack_equals_each_lattice(grid):
    from morreylab.operators import _masked_fd

    rng = np.random.default_rng(5)
    for k in (1, 3):
        stack = grid.embed(rng.normal(size=(k, grid.n_cells)))
        for axis in range(grid.dim):
            out, central = _masked_fd(grid, stack, axis)
            assert out.shape == central.shape == stack.shape
            for row, got, got_central in zip(stack, out, central):
                want, want_central = _masked_fd(grid, row, axis)
                assert np.array_equal(got, want)
                assert np.array_equal(got_central, want_central)


# --- the convolver's inverse transform ----------------------------------------

def _lattice_kernels(g):
    return [_ball_kernel(g, 3.5 * g.h),
            _truncated_kernel(g, CZKernel(2, 1, (1, 1)), 2.0 * g.h),
            _gamma_kernel(g, 1, (1, 0))]


# the operators' default size keeps the plain ids; the solver's pow2(3n-2)
@pytest.mark.parametrize("n,solver_size", [
    pytest.param(n, solver, id=f"{n}-solver" if solver else str(n))
    for solver in (False, True) for n in (12, 33, 64)])
def test_convolver_apply_is_irfft2_central_block(n, solver_size):
    g = disk_grid(n)
    conv = _Convolver(g, _pow2(3 * n - 2) if solver_size else None)
    lattice = g.embed(np.random.default_rng(n).normal(size=g.n_cells))
    fwd = conv.forward(lattice)
    size = conv.size
    # the staged forward transforms keep rfft2's bits
    assert np.array_equal(fwd, np.fft.rfft2(lattice, s=(size, size)))
    for key, build in enumerate(_lattice_kernels(g)):
        spectrum = conv.spectrum(key, build)
        assert np.array_equal(spectrum, np.fft.rfft2(build(*conv.offsets), s=(size, size)))
        want = np.fft.irfft2(fwd * spectrum, s=(size, size))
        assert np.array_equal(conv.apply(fwd, key, build),
                              want[n - 1: 2 * n - 1, n - 1: 2 * n - 1])


def test_convolver_apply_results_do_not_share_its_buffers():
    g = disk_grid(20)
    conv = _Convolver(g)
    fwd = conv.forward(g.embed(np.random.default_rng(2).normal(size=g.n_cells)))
    b0, b1, b2 = _lattice_kernels(g)
    first = conv.apply(fwd, 0, b0)
    kept = first.copy()
    second = conv.apply(fwd, 1, b1)
    conv.apply(fwd, 2, b2)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    assert np.array_equal(conv.apply(fwd, 0, b0), kept)


def test_window_sums_stack_equals_each_half_width():
    lattice = np.random.default_rng(4).uniform(size=40)
    ks = np.array([0, 1, 5, 39, 60])
    got = _window_sums_1d(lattice, ks)
    assert got.shape == (len(ks), len(lattice))
    for k, row in zip(ks, got):
        assert np.array_equal(row, _window_sums_1d(lattice, int(k)))
        want = [lattice[max(i - k, 0): i + k + 1].sum() for i in range(len(lattice))]
        np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-15)

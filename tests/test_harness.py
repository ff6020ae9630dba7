import copy
import gc
import json

import numpy as np
import pytest

import oracles
from morreylab import harness
from morreylab.corpus import build_corpus
from morreylab.geometry import Disk, Grid, Interval, nested_sweep
from morreylab.harness import (
    SUITES,
    MorreyEvaluator,
    default_config,
    default_weights,
    run_suite,
    run_suites,
    trend_verdict,
    write_reports,
)
from morreylab.operators import maximal_field
from morreylab.spaces import PowerLawPhi, WeightMeasurePhi
from morreylab.weights import ConstantWeight, PowerWeight, ap_membership


def tiny_config():
    cfg = copy.deepcopy(default_config())
    cfg["ap"]["grids"] = [32, 64, 128]
    cfg["kernels"]["pair_counts"] = [200, 800]
    cfg["kernels"]["grids"] = [128]
    cfg["identity"]["grid"] = 96
    cfg["pointwise"].update(grids_1d=[48, 96], grids_2d=[48, 96], n_random=2)
    cfg["lemma22"].update(grids_1d=[32, 64], grids_2d=[24, 48], pairs=4)
    cfg["lemma24"].update(grids_1d=[64, 128], grids_2d=[48, 96], corpus_2d=5)
    cfg["boundedness"].update(grids=[48, 96, 192], corpus_2d=5)
    cfg["marok1"]["grids"] = [48, 96]
    cfg["apriori"].update(grids=[48, 96], n_random=6,
                          cases=[["interval", 1], ["disk", 1]])
    return cfg


def test_default_config_loads():
    cfg = default_config()
    assert set(cfg) >= {"seed", "ap", "kernels", "boundedness", "apriori"}


@pytest.mark.parametrize("dom", [Interval(0.0, 1.0), Disk((0.0, 0.0), 1.0)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_default_weights_tags_follow_ap_membership(dom, p):
    ws = default_weights(dom, p)
    for name, w, tag in ws:
        assert (tag == "in-class") == ap_membership(w, p).in_class, name
    if p == 1.0:  # the positive-gamma powers fall outside A_1 and are filtered
        assert all("+0.5" not in n for n, _, t in ws if t == "in-class")


def test_default_weights_tags():
    ws = default_weights(Interval(0.0, 1.0), 2.0)
    tags = [t for _, _, t in ws]
    assert tags.count("out-of-class (negative control)") == 1
    ctrl = [w for _, w, t in ws if t.startswith("out")][0]
    assert ctrl.gamma == pytest.approx(1.5)


def test_trend_verdict_rules():
    assert trend_verdict([1.0, 1.05, 1.02], 0.15) == "PASS"
    assert trend_verdict([1.0, 1.3, 1.1], 0.15) == "UNSTABLE"
    assert trend_verdict([1.0, 1.6, 2.6], 0.15) == "DIVERGENT"
    assert trend_verdict([1.0, np.nan], 0.15) == "FAIL"
    # a step from 0 to 0 is no growth, one from 0 to more is unbounded
    assert trend_verdict([0.0, 0.0, 0.0], 0.15) == trend_verdict([0.0, 0.0], 0.15) == "PASS"
    assert trend_verdict([1.0, 0.0, 0.0], 0.15) == "UNSTABLE"
    assert trend_verdict([0.0, 1.0, 2.0], 0.15) == "DIVERGENT"
    # one level is no refinement study
    assert trend_verdict([1.0], 0.15) == trend_verdict([0.0], 0.15) == "UNSTABLE"


def test_lemma22_vacuous_1d_rows_pass_at_three_levels():
    # the off-diagonal order-2m kernel vanishes in 1D: every level fits 0
    cfg = tiny_config()
    cfg["lemma22"].update(cases=[["interval", 1]], grids_1d=[16, 32, 64])
    r = run_suite("lemma22", cfg)
    assert r.trend == [[0.0, 0.0, 0.0]] and r.verdict == "PASS"


def test_suite_ap_control_needs_a_growth_step():
    # one grid gives the out-of-class control no refinement step to diverge
    cfg = tiny_config()
    cfg["ap"]["grids"] = [64]
    assert run_suite("ap", cfg).verdict == "FAIL"
    cfg["ap"]["grids"] = [32, 64]
    assert run_suite("ap", cfg).verdict == "PASS"


@pytest.mark.parametrize("ap", [{"p": 1.6, "grids": [64, 128, 256]},
                                {"grids": [128, 256, 512]}])
def test_suite_ap_control_is_judged_by_its_span(ap):
    # the control grows toward sqrt(2) per step, under the 1.5 gate here
    # (1.455 and 1.476 at p = 1.6); across the study it spans over 2
    cfg = tiny_config()
    cfg["ap"].update(ap)
    r = run_suite("ap", cfg)
    steps = [b / a for a, b in zip(r.trend, r.trend[1:])]
    assert min(steps) < 1.5 <= harness._control_span(r.trend)
    assert r.verdict == "PASS"


def test_control_span_rejects_a_converging_series():
    # the in-class |x|^0.5 of the ap suite converges: it spans about 1.003
    from morreylab.weights import ap_constant, ap_sweep

    w = PowerWeight((0.0,), 0.5)
    grids = [Grid(Interval(-1.0, 1.0), n) for n in (64, 128, 256)]
    vals = [ap_constant(w, 2.0, g, ap_sweep(g, w)).value for g in grids]
    assert harness._control_span(vals) < 1.5
    assert harness._control_span([0.0, 1.0]) == 0.0


def test_nested_sweep_is_nested():
    dom = Interval(0.0, 1.0)
    coarse = {(b.center, round(b.radius, 12)) for b in nested_sweep(Grid(dom, 32), 5)}
    fine = {(b.center, round(b.radius, 12)) for b in nested_sweep(Grid(dom, 64), 5)}
    assert coarse <= fine


def test_morrey_evaluator_matches_direct():
    g = Grid(Interval(0.0, 1.0), 48)
    sweep = nested_sweep(g, 5)
    ev = MorreyEvaluator(g, sweep)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=g.n_cells)
    w = PowerWeight((0.5,), 0.5)
    phi = PowerLawPhi(0.5, 2.0, 1)
    got = ev.norm(vals, w, phi, 2.0)
    from morreylab.geometry import SampledField
    from morreylab.spaces import morrey_norm

    want = morrey_norm(SampledField(g, vals), w, phi, 2.0, sweep).value
    assert got == pytest.approx(want, rel=1e-12)


def test_suite_ap_passes():
    r = run_suite("ap", tiny_config())
    assert r.verdict == "PASS"
    assert r.fitted_constant >= 4.0 / 3.0 - 1e-9


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_suite_ap_expects_the_origin_quotient_at_p(p):
    # (1/(1+g)) ((p-1)/(p-1-g))^(p-1) for |x|^g, g = 1/2: 4/3 at p = 2
    cfg = tiny_config()
    cfg["ap"]["p"] = p
    r = run_suite("ap", cfg)
    assert r.verdict == "PASS"
    expected = {row[1]: row[3] for row in r.rows}
    assert expected["pow+0.5-full-sweep"] == {2.0: 4.0 / 3.0, 3.0: pytest.approx(32 / 27)}[p]


def test_suite_identity_passes(monkeypatch):
    calls = []
    check = harness.singular_identity_check
    monkeypatch.setattr(harness, "singular_identity_check",
                        lambda f, pairs: calls.append(pairs) or check(f, pairs))
    r = run_suite("identity", tiny_config())
    assert r.verdict == "PASS"
    # one check for every (alpha, beta): they share the potentials' spectra
    assert calls == [(((2, 0), (1, 0)), ((0, 2), (0, 1)), ((1, 1), (1, 0)))]


def test_suite_lemma24_one_maximal_field_per_level(monkeypatch):
    # per level, one stack: M|f| of every corpus member, reused as M|g| when
    # the member is one of the first four test functions, plus M|g| of the
    # two dist-g test functions of each member; one K* stack on the disk
    calls = []
    mf, sf = harness.maximal_field, harness.singular_field
    monkeypatch.setattr(harness, "maximal_field", lambda g, fs, radii: calls.append(
        ("M", g.n, len(fs))) or mf(g, fs, radii))
    monkeypatch.setattr(harness, "singular_field", lambda g, fs, k, radii: calls.append(
        ("K*", g.n, len(fs))) or sf(g, fs, k, radii))
    cfg = tiny_config()
    cfg["lemma24"].update(cases=[["interval", 1], ["disk", 1]], grids_1d=[32, 64],
                          grids_2d=[24, 48], corpus_2d=5)
    run_suite("lemma24", cfg)
    members = {n: len(build_corpus(Grid(Interval(0.0, 1.0), n), seed=cfg["seed"],
                                   n_random=4)) for n in (32, 64)}
    assert calls == [("M", 32, 3 * members[32]), ("M", 64, 3 * members[64]),
                     ("M", 24, 3 * 5), ("K*", 24, 5), ("M", 48, 3 * 5), ("K*", 48, 5)]


def test_suite_kernels_small():
    r = run_suite("kernels", tiny_config())
    assert r.verdict in ("PASS", "FAIL")
    assert np.isfinite(r.fitted_constant)
    poisson = [row for row in r.rows if row[1] == "poisson-bound"]
    assert poisson[0][2] <= (1.0 / np.pi) * 1.02


def test_suite_lemma22_oracle_n64():
    # module double sums against a plain nested-loop oracle at N=64
    from morreylab.greens import green_function
    from morreylab.operators import maximal_field
    from morreylab.harness import _nested_operator_grid

    dom = Interval(0.0, 1.0)
    g = Grid(dom, 64)
    corpus = build_corpus(g, seed=7, n_random=2)[:3]
    gf = green_function(dom, 1)
    radii = _nested_operator_grid(g, 5)
    name_f, f = corpus[1]
    name_g, gg = corpus[2]
    mf, mg = maximal_field(g, [f.values, gg.values], radii)
    nodes = [tuple(p) for p in g.nodes]
    dists = list(g.boundary_dist)

    def kernel(xi, yj):
        return float(gf.derivative((2,), np.array([xi]), np.array([yj]))[0])

    lhs, rhs = oracles.lemma22_sides(nodes, dists, g.cell_measure, kernel,
                                     list(np.abs(f.values)), list(np.abs(gg.values)),
                                     list(mf), list(mg))
    # 1D order-2m kernels vanish off-diagonal: both sides agree on that
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs > 0


def test_lemma22_region_sums_match_oracle_2d(monkeypatch):
    # the blocked masked double sums against plain Python loops on a small
    # disk, for every order-2m alpha the jet serves (disk m=1 and m=2), in
    # 32-row blocks with a partial last one
    from morreylab import greens
    from morreylab.greens import green_function
    from morreylab.harness import _nested_operator_grid, _offdiagonal_region_sums
    from morreylab.spaces import multi_indices

    dom = Disk((0.0, 0.0), 1.0)
    g = Grid(dom, 10)
    monkeypatch.setattr(greens, "_BLOCK_ENTRIES", 32 * g.n_cells)
    assert [s.stop - s.start for s in greens._row_blocks(g.n_cells)] == [32, 32, 16]
    corpus = build_corpus(g, seed=7, n_random=1)[:2]
    F = np.column_stack([np.abs(f.values) for _, f in corpus])
    MF = maximal_field(g, F.T, _nested_operator_grid(g, 3)).T
    hn = g.cell_measure
    nodes = [tuple(p) for p in g.nodes]
    dists = list(g.boundary_dist)
    for m in (1, 2):
        gf = green_function(dom, m)
        alphas = [a for a in multi_indices(2, 2 * m) if sum(a) == 2 * m]
        kf, sf, smf = _offdiagonal_region_sums(g, gf, alphas, F, MF)
        rhs_mod = float((F[:, 1] * smf[:, 0]).sum() * hn * hn
                        + (MF[:, 1] * sf[:, 0]).sum() * hn * hn)
        for a in alphas:
            lhs_mod = float((kf[a][:, 0] * F[:, 1]).sum() * hn * hn)

            def kernel(xi, yj):
                return float(gf.derivative(a, np.array([xi]), np.array([yj]))[0])

            lhs_or, rhs_or = oracles.lemma22_sides(
                nodes, dists, hn, kernel, list(F[:, 0]), list(F[:, 1]),
                list(MF[:, 0]), list(MF[:, 1]))
            assert lhs_mod == pytest.approx(lhs_or, rel=1e-10), (m, a)
            assert rhs_mod == pytest.approx(rhs_or, rel=1e-10), (m, a)


def test_offdiagonal_region_sums_working_set():
    # the row blocks bound the traced peak; 512-row blocks took 127 MB
    import tracemalloc

    from morreylab.greens import green_function
    from morreylab.harness import _offdiagonal_region_sums

    dom = Disk((0.0, 0.0), 1.0)
    g = Grid(dom, 48)
    rng = np.random.default_rng(0)
    F, MF = rng.random((2, g.n_cells, 5))
    tracemalloc.start()
    try:
        _offdiagonal_region_sums(g, green_function(dom, 1), [(2, 0), (1, 1), (0, 2)], F, MF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_suite_boundedness_small():
    cfg = tiny_config()
    cfg["boundedness"].update(cases=[["interval", 1]], grids=[64, 128, 256])
    r = run_suite("boundedness", cfg)
    assert r.verdict == "PASS"
    assert any("negative-control" in note for note in r.notes)
    # the notes print plain floats, not numpy reprs
    assert not any("np.float64" in note for note in r.notes)
    assert any("attained by" in note for note in r.notes)
    # the trend lists distinct series, not one series per equal combo
    assert 1 < len(r.trend) == len({tuple(v) for v in r.trend}) <= 6


@pytest.mark.parametrize("suite,section", [
    ("pointwise", {"cases": [["disk", 1]], "grids_2d": [24, 48]}),
    ("lemma22", {"cases": [["disk", 1]], "grids_2d": [24, 48]}),
    ("boundedness", {"cases": [["disk", 1]], "grids": [24, 48], "ps_2d": [1.5, 2.0]}),
    ("marok1", {"grids": [24, 48]}),
])
def test_suites_take_one_operator_stack_per_level(monkeypatch, suite, section):
    calls = []
    mf, sf = harness.maximal_field, harness.singular_field
    monkeypatch.setattr(harness, "maximal_field", lambda g, fs, radii: calls.append(
        ("M", g.n)) or mf(g, fs, radii))
    monkeypatch.setattr(harness, "singular_field", lambda g, fs, k, radii: calls.append(
        ("K*", g.n)) or sf(g, fs, k, radii))
    cfg = tiny_config()
    cfg[suite].update(section)
    run_suite(suite, cfg)
    assert calls and len(calls) == len(set(calls))


def test_apriori_and_boundedness_skip_the_same_condition_failures(monkeypatch):
    # one gate, _morrey_combos, serves both suites: a (w, phi) pair that
    # fails condition (2.13) gets the same skip row in each and no sup row
    check = harness._condition_ok

    def reject_wmeas07(phi1, phi2, w, p, dom):
        if isinstance(phi1, WeightMeasurePhi) and phi1.k == 0.7:
            return None
        return check(phi1, phi2, w, p, dom)

    monkeypatch.setattr(harness, "_condition_ok", reject_wmeas07)
    cfg = tiny_config()
    study = dict(cases=[["interval", 1]], grids=[32, 64], ps_1d=[2.0],
                 lams=[0.5], ks=[0.3, 0.7])
    cfg["apriori"].update(study, n_random=2)
    cfg["boundedness"].update(study)
    skips = {}
    for suite in ("apriori", "boundedness"):
        rows = run_suite(suite, cfg).rows
        skip = "condition-divergent-skip"
        skips[suite] = [r[:2] + r[5:] for r in rows if r[6] == skip]
        assert not [r for r in rows if "wmeas0.7" in r[1] and r[6] != skip]
        assert any("wmeas0.3" in r[1] and "sup at" in r[6] for r in rows)
    in_class = [r for r in skips["boundedness"] if "control" not in r[1]]
    assert skips["apriori"] == in_class
    assert {r[1] for r in in_class} == {
        f"p2.0-{w}-wmeas0.7" for w in ("const", "pow-0.4-center", "pow+0.5-center",
                                       "pow+0.5-boundary")}
    assert len(skips["boundedness"]) == len(in_class) + 2  # the control, per level


def test_suite_apriori_small():
    cfg = tiny_config()
    cfg["apriori"].update(cases=[["interval", 1]], grids=[64, 128],
                          ps_1d=[2.0], lams=[0.5], ks=[0.7], n_random=4)
    r = run_suite("apriori", cfg)
    assert r.verdict == "PASS"
    assert np.isfinite(r.fitted_constant)


def test_apriori_ratio_scale_invariance():
    # f -> 2f leaves ratios unchanged: homogeneity of both norms
    from morreylab.geometry import SampledField
    from morreylab.solver import solve_dirichlet
    from morreylab.spaces import InverseWeightMeasurePhi, multi_indices

    dom = Interval(0.0, 1.0)
    g = Grid(dom, 64)
    f = build_corpus(g, seed=3, n_random=1)[2][1]
    sweep = nested_sweep(g, 5)
    ev = MorreyEvaluator(g, sweep)
    w = ConstantWeight(1.0)
    phi = InverseWeightMeasurePhi(2.0, w)

    def ratio(field):
        jet = solve_dirichlet(dom, 1, field)
        un = sum(ev.norm(jet[a].values, w, phi, 2.0)
                 for a in multi_indices(1, 2))
        return un / ev.norm(field.values, w, phi, 2.0)

    assert ratio(2.0 * f) == pytest.approx(ratio(f), rel=1e-8)


@pytest.mark.parametrize("suite", ["apriori", "boundedness", "lemma24", "marok1"])
def test_no_grid_outlives_a_suite(suite):
    # no module-level cache keeps a grid: once a suite returns, the only
    # grid it leaves alive is the one of the cached convolver
    from morreylab.operators import _Convolver

    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, Grid)]  # kept alive
    run_suite(suite, tiny_config())
    gc.collect()
    alive = [o for o in gc.get_objects()
             if isinstance(o, Grid) and not any(o is b for b in before)]
    held = [c.grid for c in gc.get_objects() if isinstance(c, _Convolver)]
    assert len(alive) <= 1
    assert all(any(g is h for h in held) for g in alive)


def test_run_suite_unknown():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nope", tiny_config())


def test_write_reports(tmp_path):
    cfg = tiny_config()
    res = run_suite("ap", cfg)
    summary = write_reports([res], str(tmp_path))
    assert (tmp_path / "ap.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert summary["ap"]["verdict"] == res.verdict
    loaded = json.loads((tmp_path / "summary.json").read_text())
    assert loaded["ap"]["fittedConstant"] == res.fitted_constant


def test_run_suites_parallel_matches_serial():
    cfg = tiny_config()
    serial = run_suites(["ap", "identity"], cfg, jobs=1)
    parallel = run_suites(["ap", "identity"], cfg, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.verdict == b.verdict
        assert a.fitted_constant == b.fitted_constant

import copy
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


def test_suite_identity_passes(monkeypatch):
    calls = []
    check = harness.singular_identity_check
    monkeypatch.setattr(harness, "singular_identity_check",
                        lambda *a: calls.append(a[1:]) or check(*a))
    r = run_suite("identity", tiny_config())
    assert r.verdict == "PASS"
    # one check per (alpha, beta); the trace residual comes from the first
    assert calls == [((2, 0), (1, 0)), ((0, 2), (0, 1)), ((1, 1), (1, 0))]


def test_suite_lemma24_one_maximal_field_per_member(monkeypatch):
    # per level: M|f| once per corpus member, reused as M|g| when the member
    # is one of the first four test functions, plus M|g| of the two dist-g
    # test functions of each member
    levels = []
    mf = harness.maximal_field
    monkeypatch.setattr(harness, "maximal_field",
                        lambda f, radii: levels.append(f.grid.n) or mf(f, radii))
    cfg = tiny_config()
    cfg["lemma24"].update(cases=[["interval", 1], ["disk", 1]], grids_1d=[32, 64],
                          grids_2d=[24, 48], corpus_2d=5)
    run_suite("lemma24", cfg)
    for n in (32, 64):
        members = len(build_corpus(Grid(Interval(0.0, 1.0), n), seed=cfg["seed"],
                                   n_random=4))
        assert levels.count(n) == 3 * members
    assert levels.count(24) == levels.count(48) == 3 * 5


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
    mf = maximal_field(f, radii).values
    mg = maximal_field(gg, radii).values
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
    MF = np.column_stack([maximal_field(f, _nested_operator_grid(g, 3)).values
                          for _, f in corpus])
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
        sol = solve_dirichlet(dom, 1, field)
        un = sum(ev.norm(sol.jet[a].values, w, phi, 2.0)
                 for a in multi_indices(1, 2))
        return un / ev.norm(field.values, w, phi, 2.0)

    assert ratio(2.0 * f) == pytest.approx(ratio(f), rel=1e-8)


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

"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers when its assertions hold.

Criteria (tolerances pinned here, not configurable):
 1 exact-solution solver errors and runtimes,
 2 norm operations vs brute-force oracles (1e-10, 20 random cases, N=64),
 3 collapse of the Morrey norm to the weighted Lebesgue norm (1e-6),
 4 A_p values: 1 exactly, 4/3 within 3%, out-of-class growth >= 1.5x,
 5 Hardy best constant 1 +- 1e-6, 50-member family, near-sharpness 0.9 B,
 6 phi-condition closed form p/(n-lam) within 2%,
 7 kernel-bound fits stable +-10%, Poisson constant <= (1/pi)(1+2%),
 8 differentiation identity: a = -1/2 within 2%, trace within 2%,
 9 boundedness suites: in-class stable +-15%, control growth >= 1.5x,
10 a priori estimate: bounded, stable +-15%, scaling-invariant to 1e-8.
"""

import time

import numpy as np
import pytest

import oracles
from morreylab.corpus import build_corpus, polynomial_bump
from morreylab.geometry import Ball, Disk, Grid, Interval, SampledField, ball_sweep, nested_sweep
from morreylab.greens import sample_pairs, verify_kernel_bounds, verify_poisson_bounds
from morreylab.hardy import HardySetting, hardy_best_constant, hardy_verify_inequality
from morreylab.harness import (
    MorreyEvaluator,
    default_config,
    run_suite,
)
from morreylab.operators import singular_identity_check
from morreylab.solver import solve_dirichlet
from morreylab.spaces import (
    InverseWeightMeasurePhi,
    PowerLawPhi,
    condition_213,
    lp_weighted_norm,
    morrey_norm,
    multi_indices,
    sobolev_morrey_norm,
    weak_lp_weighted_norm,
)
from morreylab.weights import (
    ConstantWeight,
    PowerWeight,
    ap_constant,
    ap_sweep,
    weight_cell_integrals,
)

ONE = ConstantWeight(1.0)


def report(criterion: int, detail: str):
    print(f"\n[criterion {criterion:2d}] PASS  {detail}")


# --- 1 -----------------------------------------------------------------------

def test_criterion_1_exact_solutions():
    cases = [
        (Interval(0.0, 1.0), 1, lambda x: x[:, 0] * (1 - x[:, 0]) / 2),
        (Interval(0.0, 1.0), 2, lambda x: x[:, 0] ** 2 * (1 - x[:, 0]) ** 2 / 24),
        (Disk((0.0, 0.0), 1.0), 1, lambda x: (1 - (x**2).sum(-1)) / 4),
    ]
    details = []
    for dom, m, exact in cases:
        for n, tol in ((256, 0.01), (512, 0.003)):
            g = Grid(dom, n)
            f = SampledField(g, np.ones(g.n_cells))
            t0 = time.time()
            u = solve_dirichlet(dom, m, f)[(0,) * dom.dim]
            dt = time.time() - t0
            want = exact(g.nodes)
            err = np.abs(u.values - want).max() / np.abs(want).max()
            assert err < tol, (dom, m, n, err)
            assert dt < 30.0, (dom, m, n, dt)
            details.append(f"{dom.dim}D m={m} N={n}: err={err:.1e} ({dt:.1f}s)")
    report(1, "; ".join(details))


# --- 2 -----------------------------------------------------------------------

def test_criterion_2_norm_oracles():
    t0 = time.time()
    rng = np.random.default_rng(42)
    g1 = Grid(Interval(-1.0, 1.0), 64)
    g2 = Grid(Disk((0.0, 0.0), 1.0), 64)
    corp1 = build_corpus(g1, seed=5, n_random=4)
    corp2 = build_corpus(g2, seed=5, n_random=4)
    weights = [ONE, PowerWeight((0.25,), 0.5), PowerWeight((0.0,), -0.4)]
    weights2 = [ONE, PowerWeight((0.25, 0.0), 0.5)]
    checked = 0
    for case in range(20):
        two_d = case % 3 == 2
        g, corpus = (g2, corp2) if two_d else (g1, corp1)
        wlist = weights2 if two_d else weights
        name, f = corpus[rng.integers(0, len(corpus))]
        w = wlist[rng.integers(0, len(wlist))]
        p = float(rng.choice([1.0, 1.5, 2.0, 2.5]))
        nodes = [tuple(q) for q in g.nodes]
        wc = list(weight_cell_integrals(w, g))
        fv = list(f.values)
        if two_d:
            region = Ball((0.2, -0.1), 0.6)
        else:
            region = None if case % 2 else Ball((0.1,), 0.7)
        c, r = (None, None) if region is None else (region.center, region.radius)
        got = lp_weighted_norm(f, w, p, region)
        want = oracles.lp_weighted_norm(nodes, fv, wc, p, c, r)
        assert got == pytest.approx(want, rel=1e-10)
        got = weak_lp_weighted_norm(f, w, p, region)
        want = oracles.weak_lp_weighted_norm(nodes, fv, wc, p, c, r)
        assert got == pytest.approx(want, rel=1e-10)
        sweep = ball_sweep(g, 3, 4)
        phi = PowerLawPhi(0.5 * g.dim, p, g.dim)
        res = morrey_norm(f, w, phi, p, sweep)
        want, want_i = oracles.morrey_norm(
            nodes, fv, wc, p, lambda cc, rr: phi(cc, rr),
            [(b.center, b.radius) for b in sweep])
        assert res.value == pytest.approx(want, rel=1e-10)
        if not two_d:
            resw = morrey_norm(f, w, phi, p, sweep, weak=True)
            wantw, _ = oracles.morrey_norm(
                nodes, fv, wc, p, lambda cc, rr: phi(cc, rr),
                [(b.center, b.radius) for b in sweep], weak=True)
            assert resw.value == pytest.approx(wantw, rel=1e-10)
            jet = {(0,): f, (1,): corpus[(case + 1) % len(corpus)][1]}
            got = sobolev_morrey_norm(jet, w, phi, p, sweep, m=1)
            want_s = sum(oracles.morrey_norm(
                nodes, list(fld.values), wc, p, lambda cc, rr: phi(cc, rr),
                [(b.center, b.radius) for b in sweep])[0]
                for fld in jet.values())
            assert got == pytest.approx(want_s, rel=1e-10)
        checked += 1
    dt = time.time() - t0
    assert checked == 20
    assert dt < 60.0
    report(2, f"20 random cases, all norm ops within 1e-10 of oracles ({dt:.1f}s)")


# --- 3 -----------------------------------------------------------------------

def test_criterion_3_collapse_to_lebesgue():
    worst = 0.0
    for dom, wlist in ((Interval(0.0, 1.0), [ONE, PowerWeight((0.5,), 0.5)]),
                       (Disk((0.0, 0.0), 1.0), [ONE, PowerWeight((0.0, 0.0), 1.0)])):
        g = Grid(dom, 64)
        corpus = build_corpus(g, seed=9, n_random=4)
        sweep = ball_sweep(g, 5, 6)
        for w in wlist:
            for p in (1.0, 2.0):
                phi = InverseWeightMeasurePhi(p, w)
                for name, f in corpus:
                    glob = lp_weighted_norm(f, w, p)
                    if glob == 0:
                        continue
                    mor = morrey_norm(f, w, phi, p, sweep).value
                    worst = max(worst, abs(mor - glob) / glob)
    assert worst < 1e-6
    report(3, f"max relative collapse defect {worst:.2e} (full corpus, both domains)")


# --- 4 -----------------------------------------------------------------------

def test_criterion_4_ap_suite():
    t0 = time.time()
    dom = Interval(-1.0, 1.0)
    g = Grid(dom, 256)
    exact = ap_constant(ONE, 2.0, g, ball_sweep(g, 5, 6))
    assert exact.value == pytest.approx(1.0, abs=1e-12)
    w = PowerWeight((0.0,), 0.5)
    origin = ap_constant(w, 2.0, g, [Ball((0.0,), r) for r in (0.25, 0.5, 0.99)])
    assert origin.value == pytest.approx(4.0 / 3.0, rel=0.03)
    full = ap_constant(w, 2.0, g, ap_sweep(g, w, 9))
    assert full.value >= 4.0 / 3.0 - 1e-9
    ctrl = PowerWeight((0.0,), 1.0 * (2.0 - 1.0) + 0.5)
    vals = []
    for n in (64, 128, 256):
        gn = Grid(dom, n)
        vals.append(ap_constant(ctrl, 2.0, gn, ap_sweep(gn, ctrl, 9)).value)
    growth = [b / a for a, b in zip(vals, vals[1:])]
    assert all(gr >= 1.5 for gr in growth), growth
    dt = time.time() - t0
    assert dt < 60.0
    report(4, f"const=1 exact, origin {origin.value:.5f} vs 4/3, sweep max "
              f"{full.value:.3f}, control growth {[round(x, 3) for x in growth]} "
              f"({dt:.1f}s)")


# --- 5 -----------------------------------------------------------------------

def test_criterion_5_hardy():
    t0 = time.time()
    one = lambda t: np.ones_like(t)
    setting = HardySetting(d=1.0, v1=one, v2=one, w=one)
    bound = hardy_best_constant(setting)
    assert bound.value == pytest.approx(1.0, abs=1e-6)
    family = [(f"step{a:.5f}", (lambda a: lambda t: (t > a).astype(float))(a))
              for a in np.geomspace(1e-6, 0.9, 40)]
    family += [(f"pow{k}", (lambda k: lambda t: t**k)(k)) for k in (1, 2, 3)]
    family += [(f"ramp{a:.2f}", (lambda a: lambda t: np.clip(t - a, 0, None))(a))
               for a in np.linspace(0.0, 0.6, 7)]
    assert len(family) == 50
    rep = hardy_verify_inequality(setting, family)
    assert rep.all_hold
    assert rep.max_ratio >= 0.9 * bound.value
    dt = time.time() - t0
    assert dt < 10.0
    report(5, f"B={bound.value:.8f}, 50-member family holds, max ratio "
              f"{rep.max_ratio:.4f} >= 0.9 B ({dt:.1f}s)")


# --- 6 -----------------------------------------------------------------------

def test_criterion_6_condition_closed_form():
    worst = 0.0
    for lam in (0.25, 0.5, 0.75):
        for p in (1.5, 2.0, 3.0):
            phi = PowerLawPhi(lam=lam, p=p, n=1)
            rep = condition_213(phi, phi, ONE, p, [0.0],
                                np.geomspace(0.01, 1.0, 6), upper_limit=1e24,
                                points=256, sensitivity_checks=False)
            want = p / (1.0 - lam)
            err = abs(rep.constant - want) / want
            worst = max(worst, err)
            assert err < 0.02, (lam, p, rep.constant, want)
    report(6, f"fitted C within {worst:.2%} of p/(n-lam) over 9 combinations")


# --- 7 -----------------------------------------------------------------------

TRUE_REGIMES = ("bounded", "log", "power", "singular-min-dy", "regular-part")


def test_criterion_7_kernel_bounds():
    t0 = time.time()
    drift_worst = 0.0
    for kind, m in (("interval", 1), ("interval", 2), ("disk", 1), ("disk", 2)):
        dom = Interval(0.0, 1.0) if kind == "interval" else Disk((0.0, 0.0), 1.0)
        alphas = multi_indices(dom.dim, 2 * m)
        fits = {}
        for n in (256, 512):
            for count in (1000, 4000):
                x, y = sample_pairs(dom, count, seed=11, min_sep=dom.diameter / n)
                for f in verify_kernel_bounds(dom, m, x, y, alphas):
                    # the bounds are stated per derivative class |alpha|
                    key = (f.regime, sum(f.alpha))
                    cur = fits.setdefault(key, {})
                    cur[(n, count)] = max(cur.get((n, count), 0.0), f.constant)
        for (regime, order), cells in fits.items():
            if regime not in TRUE_REGIMES:
                continue
            base = cells[(512, 4000)]
            if base == 0.0:
                continue  # vacuous 1D singular regimes
            for key, v in cells.items():
                drift = abs(v - base) / base
                drift_worst = max(drift_worst, drift)
                assert drift <= 0.10, (kind, m, regime, order, key, drift)
    pb = verify_poisson_bounds(Disk((0.0, 0.0), 1.0), 4000, seed=11)
    assert pb["fitted"] <= (1.0 / np.pi) * 1.02
    dt = time.time() - t0
    assert dt < 120.0
    report(7, f"all true-bound regimes stable (worst drift {drift_worst:.2%}); "
              f"Poisson constant {pb['fitted'] * np.pi:.4f}/pi ({dt:.1f}s)")


# --- 8 -----------------------------------------------------------------------

def test_criterion_8_identity():
    g = Grid(Disk((0.0, 0.0), 2.0), 256)
    bump, _, _ = polynomial_bump([0.0, 0.0], 1.0, 2)
    f = SampledField(g, bump(g.nodes))
    [rep] = singular_identity_check(f, [((2, 0), (1, 0))])
    assert rep.fitted_a == pytest.approx(-0.5, abs=0.01)
    assert rep.max_discrepancy < 0.02
    assert rep.trace_residual < 0.02
    report(8, f"fitted a={rep.fitted_a:.4f} (vs -1/2), discrepancy "
              f"{rep.max_discrepancy:.2e}, trace residual {rep.trace_residual:.2e}")


# --- 9 -----------------------------------------------------------------------

def test_criterion_9_boundedness():
    t0 = time.time()
    cfg = default_config()
    res = run_suite("boundedness", cfg)
    assert res.verdict == "PASS", res.notes
    loc = run_suite("marok1", cfg)
    assert loc.verdict == "PASS", loc.trend
    dt = time.time() - t0
    assert dt < 600.0
    note = next(n for n in res.notes if "negative-control" in n)
    report(9, f"boundedness PASS, local-bound PASS; {note} ({dt:.0f}s)")


# --- 10 ----------------------------------------------------------------------

def test_criterion_10_apriori():
    t0 = time.time()
    cfg = default_config()
    n_members = len(build_corpus(Grid(Interval(0.0, 1.0), 64), seed=cfg["seed"],
                                 n_random=cfg["apriori"]["n_random"]))
    assert n_members >= 20
    res = run_suite("apriori", cfg)
    assert res.verdict == "PASS", res.notes

    # scaling invariance of the ratio under f -> c f
    dom = Interval(0.0, 1.0)
    g = Grid(dom, 128)
    f = build_corpus(g, seed=3, n_random=1)[2][1]
    ev = MorreyEvaluator(g, nested_sweep(g, 5))
    phi = InverseWeightMeasurePhi(2.0, ONE)

    def ratio(field):
        jet = solve_dirichlet(dom, 1, field)
        un = sum(ev.norm(jet[a].values, ONE, phi, 2.0)
                 for a in multi_indices(1, 2))
        return un / ev.norm(field.values, ONE, phi, 2.0)

    r1, r2 = ratio(f), ratio(2.0 * f)
    assert abs(r2 - r1) <= 1e-8 * r1
    dt = time.time() - t0
    assert dt < 900.0
    report(10, f"apriori PASS over {n_members}-member corpus, fitted "
               f"C={res.fitted_constant:.3f}; scaling defect "
               f"{abs(r2 - r1) / r1:.1e} ({dt:.0f}s)")

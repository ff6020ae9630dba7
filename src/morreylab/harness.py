"""Corpus-driven verification suites.

Every suite builds (f, w, phi, p) cases from a config, computes both sides of
one inequality family, fits the implicit constant as the empirical sup of
LHS/RHS, and re-runs under grid refinement.  Verdicts follow one rule:

    PASS      |C*(2N) - C*(N)| / C*(N) <= suite tolerance at every step,
    DIVERGENT growth >= 50% at two consecutive steps,
    UNSTABLE  anything in between,

with negative controls (weights outside the Muckenhoupt class) expected to
come out DIVERGENT.  Suites emit one CSV of rows, optional (r, ratio) plot
data, and a summary entry {suite, verdict, fittedConstant, tolerance, trend}.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .corpus import build_corpus, polynomial_bump
from .geometry import (
    Ball,
    Disk,
    Domain,
    Grid,
    Interval,
    SampledField,
    nested_log_radii,
    sweep_centers,
)
from .greens import green_function, sample_pairs, verify_kernel_bounds, verify_poisson_bounds
from .operators import (
    CZKernel,
    maximal_field,
    singular_field,
    singular_identity_check,
)
from .solver import solve_dirichlet_many
from .spaces import (
    InverseWeightMeasurePhi,
    PowerLawPhi,
    SweepCache,
    WeightMeasurePhi,
    condition_213,
    multi_indices,
)
from .weights import (
    ConstantWeight,
    PowerWeight,
    ap_constant,
    ap_membership,
    ap_sweep,
    weight_cell_integrals,
)

__all__ = ["load_config", "default_config", "run_suite", "run_suites",
           "SUITES", "SuiteResult", "write_reports"]


# ---------------------------------------------------------------------------
# config


def default_config() -> dict:
    from importlib.resources import files

    return json.loads(files("morreylab.data").joinpath("default.json").read_text())


def load_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    with open(path) as fh:
        return json.load(fh)


def _domain_from(spec) -> Domain:
    if spec["kind"] == "interval":
        return Interval(spec.get("a", 0.0), spec.get("b", 1.0))
    if spec["kind"] == "disk":
        return Disk(tuple(spec.get("center", (0.0, 0.0))), spec.get("radius", 1.0))
    raise ValueError(f"unknown domain kind {spec['kind']!r}")


def _interior_center(dom: Domain):
    box = dom.bounding_box
    return tuple(0.5 * (lo + hi) for lo, hi in box)


def _boundary_point(dom: Domain):
    if isinstance(dom, Interval):
        return (dom.a,)
    return (dom.center[0] + dom.radius, dom.center[1])


def default_weights(dom: Domain, p: float, gammas=(-0.4, 0.5)):
    """The standard family: constant, centered/boundary powers (those inside
    the class at this p), and the out-of-class control gamma = n(p-1) + 0.5."""
    n = dom.dim

    def in_class(g):
        return (-n < g < n * (p - 1.0)) if p > 1 else (-n < g <= 0.0)

    out = [("const", ConstantWeight(1.0), "in-class")]
    usable = [g for g in gammas if in_class(g)]
    for g in usable:
        out.append((f"pow{g:+g}-center", PowerWeight(_interior_center(dom), g), "in-class"))
    if usable:
        out.append((f"pow{usable[-1]:+g}-boundary",
                    PowerWeight(_boundary_point(dom), usable[-1]), "in-class"))
    ctrl = n * (p - 1.0) + 0.5
    out.append((f"pow{ctrl:+g}-control", PowerWeight(_interior_center(dom), ctrl),
                "out-of-class (negative control)"))
    return out


def default_phis(dom: Domain, p: float, w, lams=(0.25, 0.5, 0.75), ks=(0.3, 0.7)):
    n = dom.dim
    out = [(f"power{la:g}", PowerLawPhi(lam=la * n, p=p, n=n)) for la in lams]
    out += [(f"wmeas{k:g}", WeightMeasurePhi(k=k, p=p, w=w)) for k in ks]
    out.append(("invwmeas", InverseWeightMeasurePhi(p=p, w=w)))
    return out


def validate_weight_classes(dom: Domain, ps, gammas=(-0.4, 0.5)):
    """Config invariant: every default (w, p) pair is in class or is the
    tagged negative control."""
    for p in ps:
        for name, w, tag in default_weights(dom, p, gammas):
            if isinstance(w, ConstantWeight):
                continue
            rep = ap_membership(w, p)
            if tag == "in-class" and not rep.in_class:
                raise ValueError(f"untagged out-of-class weight {name} at p={p}")
            if tag.startswith("out-of-class") and rep.in_class:
                raise ValueError(f"negative control {name} is actually in class")


def _nested_sweep(grid: Grid, centers_per_axis: int, per_octave: int = 3) -> list[Ball]:
    """Morrey sweep whose ball set at a finer grid contains the coarser
    one: fixed centers, radii anchored at the diameter (sups become
    monotone across refinement levels, so trends measure convergence)."""
    radii = nested_log_radii(grid.domain.diameter, grid.h, per_octave)
    balls = []
    for c in sweep_centers(grid, centers_per_axis):
        for r in radii:
            balls.append(Ball(tuple(float(v) for v in c), float(r)))
    return balls


def _nested_operator_grid(grid: Grid, per_octave: int = 4) -> np.ndarray:
    return nested_log_radii(grid.domain.diameter, grid.h, per_octave)


# ---------------------------------------------------------------------------
# reports


@dataclass
class SuiteResult:
    suite: str
    verdict: str
    fitted_constant: float
    tolerance: float
    trend: list
    rows: list = field(default_factory=list)
    header: tuple = ("suite", "case", "lhs", "rhs", "ratio", "n", "flags")
    notes: list = field(default_factory=list)
    plot_data: list = field(default_factory=list)  # (r, ratio) pairs

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def trend_verdict(values, tolerance: float) -> str:
    """Refinement rule on the fitted constants per level."""
    vals = [v for v in values if np.isfinite(v)]
    if len(vals) != len(values) or not vals:
        return "FAIL"
    growth = [b / a if a > 0 else np.inf for a, b in zip(vals, vals[1:])]
    if len(growth) >= 2 and all(g >= 1.5 for g in growth[-2:]):
        return "DIVERGENT"
    if all(abs(b - a) <= tolerance * a for a, b in zip(vals, vals[1:])):
        return "PASS"
    return "UNSTABLE"


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_reports(results: list[SuiteResult], out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    summary = {}
    for res in results:
        path = os.path.join(out_dir, f"{res.suite}.csv")
        with open(path, "w", newline="") as fh:
            wcsv = csv.writer(fh)
            wcsv.writerow(res.header)
            for row in res.rows:
                wcsv.writerow([_fmt(v) for v in row])
        if res.plot_data:
            ppath = os.path.join(out_dir, f"{res.suite}_plot.csv")
            with open(ppath, "w", newline="") as fh:
                wcsv = csv.writer(fh)
                wcsv.writerow(("r", "ratio"))
                for r, ratio in res.plot_data:
                    wcsv.writerow([_fmt(r), _fmt(ratio)])
        summary[res.suite] = {
            "suite": res.suite,
            "verdict": res.verdict,
            "fittedConstant": res.fitted_constant,
            "tolerance": res.tolerance,
            "N-trend": res.trend,
            "notes": res.notes,
        }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


# ---------------------------------------------------------------------------
# shared norm machinery


def _ball_sums(cache: SweepCache, sweep, a: np.ndarray) -> np.ndarray:
    """Sum of the cell array a over every ball of the sweep."""
    out = np.empty(len(sweep))
    by_center = {}
    for i, b in enumerate(sweep):
        by_center.setdefault(b.center, []).append(i)
    for c, idxs in by_center.items():
        radii = np.array([sweep[i].radius for i in idxs])
        counts = cache.counts(c, radii)
        cs = cache.prefix_sums(c, a)
        out[np.array(idxs)] = cs[counts]
    return out


def _weak_ball_norms(cache: SweepCache, sweep, absf, wcells, p) -> np.ndarray:
    from .spaces import _weak_from_arrays

    out = np.empty(len(sweep))
    for i, b in enumerate(sweep):
        order = cache.order(b.center)
        k = cache.counts(b.center, np.array([b.radius]))[0]
        cells = order[:k]
        out[i] = _weak_from_arrays(absf[cells], wcells[cells], p)
    return out


class MorreyEvaluator:
    """Morrey norms of many fields against one (grid, sweep), reusing the
    distance-sorted prefix sums.  Inner ball norms are cached per
    (values array, w, p), so sweeping the phi family costs one pass over the
    balls per phi; callers must not mutate value arrays between calls."""

    def __init__(self, grid: Grid, sweep):
        self.grid = grid
        self.sweep = sweep
        self.cache = SweepCache(grid, sweep)
        self._wsums = {}
        self._inner = {}

    def weight_sums(self, w) -> np.ndarray:
        if w not in self._wsums:
            self._wsums[w] = _ball_sums(self.cache, self.sweep,
                                        weight_cell_integrals(w, self.grid))
        return self._wsums[w]

    def _inner_norms(self, values: np.ndarray, w, p: float, weak: bool) -> np.ndarray:
        # the cached values array is kept alive inside the entry so a freed
        # array's id can never alias a live key
        key = (id(values), w, p, weak)
        hit = self._inner.get(key)
        if hit is not None and hit[0] is values:
            return hit[1]
        wc = weight_cell_integrals(w, self.grid)
        if weak:
            inner = _weak_ball_norms(self.cache, self.sweep, np.abs(values), wc, p)
        else:
            inner = _ball_sums(self.cache, self.sweep,
                               np.abs(values) ** p * wc) ** (1.0 / p)
        self._inner[key] = (values, inner)
        return inner

    def phi_values(self, phi) -> np.ndarray:
        """phi on every sweep ball; measure-based phis reuse the cached ball
        sums (the domain-restricted measure convention)."""
        if isinstance(phi, PowerLawPhi):
            return np.array([b.radius ** ((phi.lam - phi.n) / phi.p)
                             for b in self.sweep])
        if isinstance(phi, WeightMeasurePhi):
            return self.weight_sums(phi.w) ** ((phi.k - 1.0) / phi.p)
        if isinstance(phi, InverseWeightMeasurePhi):
            return self.weight_sums(phi.w) ** (-1.0 / phi.p)
        return np.array([phi(b.center, b.radius, self.grid) for b in self.sweep])

    def norm(self, values: np.ndarray, w, phi, p: float, weak: bool = False) -> float:
        wsums = self.weight_sums(w)
        inner = self._inner_norms(values, w, p, weak)
        phiv = self.phi_values(phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(wsums > 0, inner / (phiv * wsums ** (1.0 / p)), 0.0)
        return float(np.nanmax(vals, initial=0.0))


# ---------------------------------------------------------------------------
# suite: A_p estimation


def suite_ap(config: dict) -> SuiteResult:
    cfg = config.get("ap", {})
    dom = Interval(cfg.get("a", -1.0), cfg.get("b", 1.0))
    grids = cfg.get("grids", [64, 128, 256])
    p = cfg.get("p", 2.0)
    centers = cfg.get("centers_per_axis", 9)
    rows, notes = [], []
    ok = True

    g = Grid(dom, grids[-1])
    from .geometry import ball_sweep

    one = ap_constant(ConstantWeight(1.0), p, g, ball_sweep(g, 5, 6))
    rows.append(("ap", "const", one.value, 1.0, one.value, grids[-1], ""))
    ok &= abs(one.value - 1.0) < 1e-12

    w_in = PowerWeight(_interior_center(dom), 0.5)
    origin = [Ball(w_in.center, r) for r in (0.25, 0.5, 0.99)]
    est_origin = ap_constant(w_in, p, g, origin)
    rows.append(("ap", "pow+0.5-origin-balls", est_origin.value, 4.0 / 3.0,
                 est_origin.value / (4.0 / 3.0), grids[-1], ""))
    ok &= abs(est_origin.value - 4.0 / 3.0) <= 0.03 * (4.0 / 3.0)
    full = ap_constant(w_in, p, g, ap_sweep(g, w_in, centers))
    rows.append(("ap", "pow+0.5-full-sweep", full.value, 4.0 / 3.0,
                 full.value / (4.0 / 3.0), grids[-1], ""))
    ok &= full.value >= 4.0 / 3.0 - 1e-9
    membership = ap_membership(w_in, p)
    ok &= membership.in_class

    ctrl = PowerWeight(_interior_center(dom), dom.dim * (p - 1.0) + 0.5)
    control_vals = []
    for n in grids:
        gn = Grid(dom, n)
        est = ap_constant(ctrl, p, gn, ap_sweep(gn, ctrl, centers))
        control_vals.append(est.value)
        rows.append(("ap", f"control-N{n}", est.value, np.nan, np.nan, n,
                     "out-of-class"))
    growth = [b / a for a, b in zip(control_vals, control_vals[1:])]
    diverged = all(gr >= 1.5 for gr in growth)
    notes.append(f"control growth per refinement: {[round(g, 4) for g in growth]}")
    verdict = "PASS" if (ok and diverged) else "FAIL"
    return SuiteResult(suite="ap", verdict=verdict, fitted_constant=full.value,
                       tolerance=0.03, trend=control_vals, rows=rows, notes=notes)


# ---------------------------------------------------------------------------
# suite: kernel bounds (Green function and Poisson kernel estimates)


def _kernel_alphas(dom: Domain, m: int):
    return multi_indices(dom.dim, 2 * m)


def suite_kernels(config: dict) -> SuiteResult:
    cfg = config.get("kernels", {})
    pair_counts = cfg.get("pair_counts", [1000, 4000])
    grids = cfg.get("grids", [256, 512])
    seed = config.get("seed", 7)
    tol = cfg.get("tolerance", 0.10)
    rows, notes = [], []
    worst = 0.0
    all_pass = True
    cases = cfg.get("cases", [["interval", 1], ["interval", 2], ["disk", 1], ["disk", 2]])
    for kind, m in cases:
        dom = Interval(0.0, 1.0) if kind == "interval" else Disk((0.0, 0.0), 1.0)
        fits = {}
        for n in grids:
            for count in pair_counts:
                x, y = sample_pairs(dom, count, seed, min_sep=dom.diameter / n)
                out = verify_kernel_bounds(dom, m, x, y, _kernel_alphas(dom, m))
                for f in out:
                    # pool per (regime, |alpha|): the bounds are per class
                    key = (f.regime, sum(f.alpha))
                    cur = fits.setdefault(key, {})
                    cur[(n, count)] = max(cur.get((n, count), 0.0), f.constant)
                    rows.append((f"{kind}-m{m}", f"{f.regime}-a{f.alpha}",
                                 f.constant, np.nan, np.nan, n,
                                 f"pairs={count}"))
        for (regime, order), vals in fits.items():
            if regime == "singular-min-dx":
                continue  # the d(x) reading is not a true bound; reported only
            vs = list(vals.values())
            spread = (max(vs) - min(vs)) / max(vs) if max(vs) > 0 else 0.0
            stable = spread <= tol
            all_pass &= stable
            worst = max(worst, max(vs))
            if not stable:
                notes.append(f"{kind}-m{m} {regime} |a|={order}: spread {spread:.2%}")
    pb = verify_poisson_bounds(Disk((0.0, 0.0), 1.0), max(pair_counts), seed)
    rows.append(("disk-m1", "poisson-bound", pb["fitted"], 1.0 / np.pi,
                 pb["fitted"] * np.pi, grids[-1], ""))
    rows.append(("disk-m1", "poisson-normalization", pb["normalization"], 1.0,
                 pb["normalization"], grids[-1], ""))
    all_pass &= pb["fitted"] <= (1.0 / np.pi) * 1.02
    all_pass &= abs(pb["normalization"] - 1.0) <= 1e-4
    return SuiteResult(suite="kernels", verdict="PASS" if all_pass else "FAIL",
                       fitted_constant=worst, tolerance=tol,
                       trend=grids, rows=rows, notes=notes)


# ---------------------------------------------------------------------------
# suite: differentiation identity


def suite_identity(config: dict) -> SuiteResult:
    cfg = config.get("identity", {})
    n = cfg.get("grid", 256)
    R = cfg.get("radius", 2.0)
    rho = cfg.get("bump_rho", 1.0)
    dom = Disk((0.0, 0.0), R)
    g = Grid(dom, n)
    bump, _, _ = polynomial_bump([0.0, 0.0], rho, 2)
    f = SampledField(g, bump(g.nodes))
    rows = []
    ok = True
    for alpha, beta in (((2, 0), (1, 0)), ((0, 2), (0, 1)), ((1, 1), (1, 0))):
        rep = singular_identity_check(f, alpha, beta)
        rows.append(("identity", f"a{alpha}", rep.fitted_a, rep.expected_a,
                     rep.max_discrepancy, n, f"skipped={rep.skipped_nodes}"))
        ok &= rep.max_discrepancy <= 0.02
        if alpha != (1, 1):
            ok &= abs(rep.fitted_a - rep.expected_a) <= 0.02 * abs(rep.expected_a)
    trace = singular_identity_check(f, (2, 0), (1, 0)).trace_residual
    rows.append(("identity", "trace", trace, 0.0, trace, n, ""))
    ok &= trace <= 0.02
    return SuiteResult(suite="identity", verdict="PASS" if ok else "FAIL",
                       fitted_constant=trace, tolerance=0.02, trend=[n],
                       rows=rows)


# ---------------------------------------------------------------------------
# suite: pointwise domination |D^a u| <= C Mf


def _case_domain(case) -> tuple[Domain, int]:
    kind, m = case
    dom = Interval(0.0, 1.0) if kind == "interval" else Disk((0.0, 0.0), 1.0)
    return dom, m


def suite_pointwise(config: dict) -> SuiteResult:
    cfg = config.get("pointwise", {})
    tol = cfg.get("tolerance", 0.10)
    seed = config.get("seed", 7)
    rows, notes = [], []
    verdicts = []
    worst = 0.0
    for case in cfg.get("cases", [["interval", 1], ["interval", 2], ["disk", 1]]):
        dom, m = _case_domain(case)
        grids = cfg.get("grids_1d", [128, 256]) if dom.dim == 1 else cfg.get("grids_2d", [96, 192])
        narrow = max(0, 2 * m - dom.dim)       # the stated range |a| <= 2m-n
        wide = 2 * m - 1                       # the range the main proof uses
        per_level = {a: [] for a in multi_indices(dom.dim, wide)}
        for n in grids:
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed,
                                  n_random=cfg.get("n_random", 4 if dom.dim == 1 else 3))
            sols = solve_dirichlet_many(dom, m, [f for _, f in corpus])
            radii = _nested_operator_grid(g, 4 if dom.dim == 2 else 6)
            for (name, f), sol in zip(corpus, sols):
                mf = np.maximum(maximal_field(f, radii).values, 1e-300)
                for a in per_level:
                    ratio = (np.abs(sol.jet[a].values) / mf).max()
                    per_level[a].append((n, name, ratio))
        for a in per_level:
            fitted = {}
            for n, name, ratio in per_level[a]:
                fitted[n] = max(fitted.get(n, 0.0), ratio)
            vals = [fitted[n] for n in grids]
            rng_tag = "narrow" if sum(a) <= narrow else "wide"
            verdict = trend_verdict(vals, tol)
            verdicts.append(verdict)
            worst = max(worst, vals[-1])
            rows.append((f"{case[0]}-m{m}", f"alpha{a}-{rng_tag}", vals[0],
                         vals[-1], vals[-1] / vals[0], grids[-1], verdict))
    verdict = "PASS" if all(v == "PASS" for v in verdicts) else "UNSTABLE"
    return SuiteResult(suite="pointwise", verdict=verdict, fitted_constant=worst,
                       tolerance=tol, trend=[], rows=rows, notes=notes)


# ---------------------------------------------------------------------------
# suite: the off-diagonal Green-kernel inequality (both-roles maximal bound)


def _offdiagonal_region_sums(g: Grid, gf, alphas, F: np.ndarray, MF: np.ndarray):
    """Row sums over the region D_i = {j : |x_i - y_j| > d(x_i)}:
    per alpha sum_j |D^a G(x_i, y_j)| F_j, plus sum_j F_j and sum_j MF_j."""
    kf = {a: np.zeros_like(F) for a in alphas}
    sf = np.zeros_like(F)
    smf = np.zeros_like(F)
    block = 512
    for start in range(0, g.n_cells, block):
        sl = slice(start, min(start + block, g.n_cells))
        X = g.nodes[sl][:, None, :]
        Y = g.nodes[None, :, :]
        mask = np.linalg.norm(X - Y, axis=-1) > g.boundary_dist[sl][:, None]
        for a, kv in gf.jet(alphas, X, Y):
            np.abs(kv, out=kv)
            kv[~mask] = 0.0
            kf[a][sl] = kv @ F
        mk = np.where(mask, 1.0, 0.0)
        sf[sl] = mk @ F
        smf[sl] = mk @ MF
    return kf, sf, smf


def suite_lemma22(config: dict) -> SuiteResult:
    cfg = config.get("lemma22", {})
    tol = cfg.get("tolerance", 0.15)
    seed = config.get("seed", 7)
    n_funcs = cfg.get("pairs", 5)
    rows, notes = [], []
    fitted_levels = []
    for case in cfg.get("cases", [["interval", 1], ["disk", 1]]):
        dom, m = _case_domain(case)
        grids = cfg.get("grids_1d", [64, 128]) if dom.dim == 1 else cfg.get("grids_2d", [48, 96])
        level_fits = []
        for n in grids:
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed, n_random=2)[:n_funcs]
            radii = _nested_operator_grid(g, 3 if dom.dim == 2 else 5)
            names = [nm for nm, _ in corpus]
            F = np.column_stack([np.abs(f.values) for _, f in corpus])
            MF = np.column_stack([maximal_field(f, radii).values for _, f in corpus])
            gf = green_function(dom, m)
            alphas = [a for a in multi_indices(dom.dim, 2 * m) if sum(a) == 2 * m]
            hn = g.cell_measure
            kf, sf, smf = _offdiagonal_region_sums(g, gf, alphas, F, MF)
            fits = []
            for i, (fname, _) in enumerate(corpus):
                for jg, (gname, _) in enumerate(corpus):
                    gv = F[:, jg]
                    mgv = MF[:, jg]
                    lhs = max(float((kf[a][:, i] * gv).sum() * hn * hn) for a in alphas)
                    rhs = float((gv * smf[:, i]).sum() * hn * hn
                                + (mgv * sf[:, i]).sum() * hn * hn)
                    ratio = lhs / rhs if rhs > 0 else 0.0
                    fits.append(ratio)
                    rows.append((f"{case[0]}-m{m}", f"{fname}|{gname}", lhs, rhs,
                                 ratio, n, ""))
            level_fits.append(max(fits))
        verdicts = trend_verdict(level_fits, tol)
        fitted_levels.append((case, level_fits, verdicts))
        if dom.dim == 1:
            notes.append(f"{case}: off-diagonal order-2m kernel vanishes in 1D; "
                         "rows are vacuous (lhs = 0)")
    verdict = "PASS" if all(v == "PASS" for _, _, v in fitted_levels) else "UNSTABLE"
    worst = max(max(f) for _, f, _ in fitted_levels)
    return SuiteResult(suite="lemma22", verdict=verdict, fitted_constant=worst,
                       tolerance=tol, trend=[f for _, f, _ in fitted_levels],
                       rows=rows, notes=notes)


# ---------------------------------------------------------------------------
# suite: integral bound for order-2m derivatives (maximal + singular RHS)


def suite_lemma24(config: dict) -> SuiteResult:
    cfg = config.get("lemma24", {})
    tol = cfg.get("tolerance", 0.15)
    seed = config.get("seed", 7)
    p = cfg.get("p", 2.0)
    rows, notes = [], []
    results = []
    for case in cfg.get("cases", [["interval", 1], ["interval", 2], ["disk", 1]]):
        dom, m = _case_domain(case)
        grids = cfg.get("grids_1d", [128, 256]) if dom.dim == 1 else cfg.get("grids_2d", [96, 192])
        level_fits = []
        for n in grids:
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed,
                                  n_random=2 if dom.dim == 2 else 4)
            if dom.dim == 2:
                corpus = corpus[: cfg.get("corpus_2d", 7)]
            sols = solve_dirichlet_many(dom, m, [f for _, f in corpus])
            radii = _nested_operator_grid(g, 4 if dom.dim == 2 else 6)
            kern = CZKernel(2, m, (2 * m, 0)) if dom.dim == 2 else None
            hn = g.cell_measure
            alphas = [a for a in multi_indices(dom.dim, 2 * m) if sum(a) == 2 * m]
            wone = ConstantWeight(1.0)
            wc = weight_cell_integrals(wone, g)
            fits = []
            for (fname, f), sol in zip(corpus, sols):
                mf = maximal_field(f, radii).values
                ksf = (singular_field(f, kern, radii).values if kern is not None
                       else np.zeros(g.n_cells))
                absf = np.abs(f.values)
                dau = sol.jet[alphas[0]].values
                for a in alphas[1:]:
                    if np.abs(sol.jet[a].values).max() > np.abs(dau).max():
                        dau = sol.jet[a].values
                wdist = default_weights(dom, p)[1][1](g.nodes)
                gs = [("dist-g", np.abs(dau) ** (p - 1.0) * np.sign(dau)),
                      ("dist-g-weighted",
                       np.abs(dau) ** (p - 1.0) * np.sign(dau) * wdist)]
                gs += [(gn, fg.values) for gn, fg in corpus[:4]]
                for gname, gv in gs:
                    mg = maximal_field(SampledField(g, np.abs(gv)), radii).values
                    lhs = float((np.abs(dau * gv)).sum() * hn)
                    rhs = float(((ksf + mf) * np.abs(gv) + mg * absf
                                 + absf * np.abs(gv)).sum() * hn)
                    ratio = lhs / rhs if rhs > 0 else 0.0
                    fits.append(ratio)
                    rows.append((f"{case[0]}-m{m}", f"{fname}|{gname}", lhs, rhs,
                                 ratio, n, ""))
            level_fits.append(max(fits))
        v = trend_verdict(level_fits, tol)
        results.append((case, level_fits, v))
    verdict = "PASS" if all(v == "PASS" for _, _, v in results) else "UNSTABLE"
    worst = max(max(f) for _, f, _ in results)
    return SuiteResult(suite="lemma24", verdict=verdict, fitted_constant=worst,
                       tolerance=tol, trend=[f for _, f, _ in results],
                       rows=rows, notes=notes)


# ---------------------------------------------------------------------------
# suite: operator boundedness on the Morrey scale


def _condition_ok(phi1, phi2, w, p, dom: Domain, upper_mult=10.0):
    x = _interior_center(dom)
    r_grid = np.geomspace(0.02 * dom.diameter, 0.9 * dom.diameter, 6)
    try:
        rep = condition_213(phi1, phi2, w, p, x, r_grid,
                            upper_limit=upper_mult * dom.diameter,
                            points=96, sensitivity_checks=False)
    except ValueError:
        return None
    return rep.constant if np.isfinite(rep.constant) else None


def suite_boundedness(config: dict) -> SuiteResult:
    cfg = config.get("boundedness", {})
    tol = cfg.get("tolerance", 0.15)
    seed = config.get("seed", 7)
    rows, notes, plot = [], [], []
    case_trends = []
    control_growths = []
    for case in cfg.get("cases", [["interval", 1], ["disk", 1]]):
        dom, m = _case_domain(case)
        grids = cfg.get("grids", [128, 256, 512])
        ps = cfg.get("ps_1d", [1.0, 1.5, 2.0]) if dom.dim == 1 else cfg.get("ps_2d", [2.0])
        validate_weight_classes(dom, ps)
        lams = cfg.get("lams", [0.25, 0.5, 0.75]) if dom.dim == 1 else [0.5]
        ks = cfg.get("ks", [0.3, 0.7]) if dom.dim == 1 else [0.7]
        per_combo: dict = {}
        for n in grids:
            g = Grid(dom, n)
            radii = _nested_operator_grid(g, cfg.get("per_octave_1d", 6)
                                          if dom.dim == 1 else cfg.get("per_octave_2d", 3))
            sweep = _nested_sweep(g, 5 if dom.dim == 2 else 9, 3)
            ev = MorreyEvaluator(g, sweep)
            kern = CZKernel(2, m, (2 * m, 0)) if dom.dim == 2 else None
            for p in ps:
                gamma_ctrl = dom.dim * (p - 1.0) + 0.5
                # the control witness: the conjugate power profile of the
                # out-of-class weight (a grid-divergent member; fixed smooth
                # corpora have convergent ratios and cannot witness failure)
                spike_exp = -gamma_ctrl / (p - 1.0) if p > 1 else -(dom.dim + 1.0)
                corpus = build_corpus(
                    g, seed=seed, n_random=3 if dom.dim == 2 else 6,
                    include_singular=True,
                    singular_spec=(_interior_center(dom), spike_exp,
                                   0.25 * dom.diameter))
                if dom.dim == 2:
                    corpus = corpus[: cfg.get("corpus_2d", 7)] + [corpus[-1]]
                tf_fields = {}
                for name, f in corpus:
                    tf = {"M": maximal_field(f, radii).values}
                    if kern is not None:
                        tf["K*"] = singular_field(f, kern, radii).values
                    tf_fields[name] = tf
                if dom.dim == 1 and p == ps[0]:
                    # radius-grid doubling probe (flag if the maximal field
                    # is still grid-sensitive at this density)
                    probe = corpus[0][1]
                    fine = maximal_field(probe, _nested_operator_grid(g, 12)).values
                    coarse = tf_fields[corpus[0][0]]["M"]
                    sens = np.abs(fine - coarse).max() / max(np.abs(fine).max(), 1e-300)
                    if sens > 0.01:
                        rows.append((f"{case[0]}-m{m}", f"radius-grid-probe-N{n}",
                                     sens, 0.01, sens / 0.01, n,
                                     "radius-grid-sensitive"))
                for wname, w, tag in default_weights(dom, p):
                    in_class = tag == "in-class"
                    for phname, phi in default_phis(dom, p, w, lams=lams, ks=ks):
                        c213 = _condition_ok(phi, phi, w, p, dom)
                        if c213 is None:
                            rows.append((f"{case[0]}-m{m}",
                                         f"p{p}-{wname}-{phname}", np.nan, np.nan,
                                         np.nan, n, "condition-divergent-skip"))
                            continue
                        weak_out = p == 1.0
                        sup_ratio, sup_case = 0.0, ""
                        for name, f in corpus:
                            if in_class and name == "singular":
                                continue  # grid-adapted member is control-only
                            fn = ev.norm(f.values, w, phi, p, weak=False)
                            if fn <= 0:
                                continue
                            for tname, tvals in tf_fields[name].items():
                                tn = ev.norm(tvals, w, phi, p, weak=weak_out)
                                if tn / fn > sup_ratio:
                                    sup_ratio, sup_case = tn / fn, f"{tname}:{name}"
                        key = (case[0], m, p, wname, phname, tag)
                        per_combo.setdefault(key, []).append(sup_ratio)
                        rows.append((f"{case[0]}-m{m}", f"p{p}-{wname}-{phname}",
                                     sup_ratio, 1.0, sup_ratio, n,
                                     f"{tag};sup at {sup_case}"))
        for key, vals in per_combo.items():
            tag = key[-1]
            if tag == "in-class":
                case_trends.append((key, vals, trend_verdict(vals, tol)))
            else:
                growth = [b / a for a, b in zip(vals, vals[1:]) if a > 0]
                span = vals[-1] / vals[0] if vals[0] > 0 else 0.0
                control_growths.append((key, vals, growth, span))
                plot.extend((float(n), float(v)) for n, v in
                            zip(cfg.get("grids", [128, 256, 512]), vals))
    in_ok = all(v == "PASS" for _, _, v in case_trends)
    # divergence is judged over the whole refinement study; the per-step
    # ceiling for the gamma = n(p-1) + 0.5 control is ~sqrt(2) (see notes)
    best_span = max((sp for _, _, _, sp in control_growths), default=0.0)
    control_ok = best_span >= cfg.get("control_growth", 1.5)
    notes.append(f"negative-control best growth across the refinement study: "
                 f"{best_span:.3f}")
    for key, vals, gr, sp in control_growths:
        if sp == best_span:
            notes.append(f"attained by {key[:5]}: levels {[round(v, 3) for v in vals]}"
                         f", per-step {[round(x, 3) for x in gr]}")
            break
    verdict = "PASS" if (in_ok and control_ok) else ("UNSTABLE" if control_ok else "FAIL")
    worst = max((max(v) for _, v, _ in case_trends), default=np.nan)
    return SuiteResult(suite="boundedness", verdict=verdict,
                       fitted_constant=worst, tolerance=tol,
                       trend=[v for _, v, _ in case_trends[:6]], rows=rows,
                       notes=notes, plot_data=plot)


def suite_marok1(config: dict) -> SuiteResult:
    """Local maximal-singular bound per ball: LHS over a quadrature of the
    tail integral on (2r, d); the upper limit d follows the bounded domain
    (the source alternates between d and infinity in consecutive displays)."""
    cfg = config.get("marok1", {})
    tol = cfg.get("tolerance", 0.15)
    seed = config.get("seed", 7)
    dom = Disk((0.0, 0.0), 1.0)
    grids = cfg.get("grids", [64, 128])
    p = cfg.get("p", 2.0)
    w = PowerWeight(_interior_center(dom), 0.5)
    rows = []
    level_fits = []
    for n in grids:
        g = Grid(dom, n)
        radii = _nested_operator_grid(g, 4)
        kern = CZKernel(2, 1, (2, 0))
        corpus = build_corpus(g, seed=seed, n_random=2)[:5]
        # level-independent balls: fixed centers, fixed radii
        sweep = [Ball(tuple(c), float(r))
                 for c in sweep_centers(g, 3)
                 for r in np.geomspace(0.02, 0.2, 6) * dom.diameter]
        cache = SweepCache(g, sweep)
        wc = weight_cell_integrals(w, g)
        fits = []
        d = dom.diameter
        for name, f in corpus:
            ks = singular_field(f, kern, radii).values
            a_ks = np.abs(ks) ** p * wc
            a_f = np.abs(f.values) ** p * wc
            for b in sweep:
                counts = cache.counts(b.center, np.array([b.radius]))
                lhs = cache.prefix_sums(b.center, a_ks)[counts][0] ** (1.0 / p)
                wball = cache.prefix_sums(b.center, wc)[counts][0]
                ts = np.geomspace(2 * b.radius, d, 24)
                cnt_t = cache.counts(b.center, ts)
                fnorm_t = cache.prefix_sums(b.center, a_f)[cnt_t] ** (1.0 / p)
                wt = cache.prefix_sums(b.center, wc)[cnt_t]
                good = wt > 0
                integ = np.trapezoid(
                    (fnorm_t[good] * wt[good] ** (-1.0 / p)), np.log(ts[good]))
                rhs = wball ** (1.0 / p) * integ
                if rhs > 0 and lhs > 0:
                    fits.append(lhs / rhs)
                    rows.append(("marok1", f"{name}-r{b.radius:.3f}", lhs, rhs,
                                 lhs / rhs, n, ""))
        level_fits.append(max(fits) if fits else np.nan)
    verdict = trend_verdict(level_fits, tol)
    return SuiteResult(suite="marok1", verdict=verdict,
                       fitted_constant=level_fits[-1], tolerance=tol,
                       trend=level_fits, rows=rows,
                       notes=["upper limit d (bounded domain); the source "
                              "alternates d and infinity across displays"])


# ---------------------------------------------------------------------------
# suite: the a priori estimate


def suite_apriori(config: dict) -> SuiteResult:
    cfg = config.get("apriori", {})
    tol = cfg.get("tolerance", 0.15)
    seed = config.get("seed", 7)
    rows, notes = [], []
    results = []
    plot = []
    for case in cfg.get("cases", [["interval", 1], ["interval", 2], ["disk", 1]]):
        dom, m = _case_domain(case)
        grids = cfg.get("grids", [128, 256, 512])
        ps = cfg.get("ps_1d", [1.5, 2.0]) if dom.dim == 1 else cfg.get("ps_2d", [2.0])
        validate_weight_classes(dom, ps)
        lams = [0.5] if dom.dim == 2 else cfg.get("lams", [0.25, 0.5, 0.75])
        ks = [0.7] if dom.dim == 2 else cfg.get("ks", [0.3, 0.7])
        n_random = cfg.get("n_random", 13 if dom.dim == 1 else 8)
        per_combo: dict = {}
        doubling_note = None
        for li, n in enumerate(grids):
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed, n_random=n_random)
            sols = solve_dirichlet_many(dom, m, [f for _, f in corpus])
            sweep = _nested_sweep(g, 5 if dom.dim == 2 else 9, 3)
            ev = MorreyEvaluator(g, sweep)
            jets = [a for a in multi_indices(dom.dim, 2 * m)]
            for p in ps:
                for wname, w, tag in default_weights(dom, p):
                    if tag != "in-class":
                        continue
                    for phname, phi in default_phis(dom, p, w, lams=lams, ks=ks):
                        c213 = _condition_ok(phi, phi, w, p, dom)
                        if c213 is None:
                            rows.append((f"{case[0]}-m{m}",
                                         f"p{p}-{wname}-{phname}", np.nan, np.nan,
                                         np.nan, n, "condition-divergent-skip"))
                            continue
                        sup_ratio, sup_name = 0.0, ""
                        ratios = []
                        for (name, f), sol in zip(corpus, sols):
                            fnorm = ev.norm(f.values, w, phi, p)
                            if fnorm <= 0:
                                rows.append((f"{case[0]}-m{m}",
                                             f"p{p}-{wname}-{phname}-{name}",
                                             0.0, 0.0, np.nan, n, "vacuous"))
                                continue
                            unorm = sum(ev.norm(sol.jet[a].values, w, phi, p)
                                        for a in jets)
                            ratios.append((name, unorm / fnorm))
                            if unorm / fnorm > sup_ratio:
                                sup_ratio, sup_name = unorm / fnorm, name
                        key = (case[0], m, p, wname, phname)
                        per_combo.setdefault(key, []).append(sup_ratio)
                        rows.append((f"{case[0]}-m{m}", f"p{p}-{wname}-{phname}",
                                     sup_ratio, 1.0, sup_ratio, n,
                                     f"sup at {sup_name}"))
                        plot.append((float(n), sup_ratio))
            # corpus-doubling stability probe at the middle level: the sup
            # may only grow; it must not grow past the tolerance
            if li == min(1, len(grids) - 1) and dom.dim == 1:
                corpus2 = build_corpus(g, seed=seed, n_random=2 * n_random)
                sols2 = solve_dirichlet_many(dom, m, [f for _, f in corpus2])
                p = ps[-1]
                wname, w, _ = default_weights(dom, p)[0]
                phi = default_phis(dom, p, w)[0][1]

                def sup_over(corp, sls):
                    best = 0.0
                    for (nm, f), sol in zip(corp, sls):
                        fn = ev.norm(f.values, w, phi, p)
                        if fn > 0:
                            un = sum(ev.norm(sol.jet[a].values, w, phi, p)
                                     for a in jets)
                            best = max(best, un / fn)
                    return best

                base = sup_over(corpus, sols)
                doubled = sup_over(corpus2, sols2)
                flag = "" if doubled <= (1 + tol) * base else " EXCEEDS TOLERANCE"
                doubling_note = (f"{case}: corpus doubling sup "
                                 f"{base:.4g} -> {doubled:.4g}{flag}")
                results.append(((case[0], m, "corpus-doubling"),
                                [base, doubled],
                                "PASS" if not flag else "UNSTABLE"))
        for key, vals in per_combo.items():
            results.append((key, vals, trend_verdict(vals, tol)))
        if doubling_note:
            notes.append(doubling_note)
    verdict = "PASS" if all(v == "PASS" for _, _, v in results) else "UNSTABLE"
    worst = max(max(v) for _, v, _ in results)
    return SuiteResult(suite="apriori", verdict=verdict, fitted_constant=worst,
                       tolerance=tol, trend=[v for _, v, _ in results[:6]],
                       rows=rows, notes=notes, plot_data=plot)


# ---------------------------------------------------------------------------
# dispatch


SUITES = {
    "ap": suite_ap,
    "kernels": suite_kernels,
    "identity": suite_identity,
    "pointwise": suite_pointwise,
    "lemma22": suite_lemma22,
    "lemma24": suite_lemma24,
    "boundedness": suite_boundedness,
    "marok1": suite_marok1,
    "apriori": suite_apriori,
}


def run_suite(name: str, config: dict) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; valid: {sorted(SUITES)}")
    return SUITES[name](config)


def _run_one(args):
    name, config = args
    return run_suite(name, config)


def run_suites(names, config: dict, jobs: int = 1) -> list[SuiteResult]:
    names = list(names)
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; valid: {sorted(SUITES)}")
    if jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            return list(pool.map(_run_one, [(n, config) for n in names]))
    return [run_suite(n, config) for n in names]

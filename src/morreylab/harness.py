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
import functools
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
    ball_sweep,
    centered_sweep,
    nested_log_radii,
    nested_sweep,
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
    MorreyEvaluator,
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

__all__ = ["load_config", "default_config", "ConfigError", "run_suite",
           "run_suites", "SUITES", "SuiteResult", "write_reports"]


# ---------------------------------------------------------------------------
# config

# Defaults of the sections only the CLI subcommands read.  They live here and
# not in default.json because the benchmark hashes the parsed default.json
# into its references.  A null default is derived by the command from its
# other inputs: condition.phi2 from phi1, condition.x as the domain's center,
# operators.bump_rho as a quarter of the diameter.
CLI_DEFAULTS = {
    "norm": {"domain": {"kind": "interval"}, "grid": 64, "f": "const", "p": 2.0,
             "weight": {"kind": "constant", "c": 1.0},
             "phi": {"kind": "inverse-weight-measure"}, "centers": 5, "radii": 8},
    "weight": {"domain": {"kind": "interval"}, "grid": 128, "p": 2.0,
               "spec": {"kind": "power", "center": [0.0], "gamma": 0.5}},
    "condition": {"domain": {"kind": "interval"}, "p": 2.0,
                  "weight": {"kind": "constant", "c": 1.0},
                  "phi1": {"kind": "power-law"}, "phi2": None, "x": None,
                  "r_min": 0.02, "r_max": 0.9, "upper_mult": 10.0},
    "hardy": {"d": 1.0, "family": 50},
    "solve": {"domain": {"kind": "interval"}, "m": 1, "grid": 128, "f": "const"},
    "operators": {"domain": {"kind": "disk", "radius": 2.0}, "m": 1, "grid": 128,
                  "bump_rho": None, "radius_points": 24, "alpha": [2, 0]},
}


class ConfigError(ValueError):
    """A config that names an unknown section, key or kind, or gives a value
    of the wrong JSON type; the message starts with the key path."""


@functools.cache
def _defaults_json() -> str:
    from importlib.resources import files

    cfg = json.loads(files("morreylab.data").joinpath("default.json").read_text())
    return json.dumps({**cfg, **CLI_DEFAULTS})


def default_config() -> dict:
    """The shipped default.json plus the CLI-only sections: every default
    of every key a suite or command reads."""
    return json.loads(_defaults_json())


# the Python types json.load produces
_JSON_TYPES = {bool: "bool", int: "number", float: "number", str: "string",
               list: "list", dict: "object", type(None): "null"}


def _check_type(path: str, value, default) -> None:
    want, got = _JSON_TYPES[type(default)], _JSON_TYPES[type(value)]
    if want != got and want != "null":
        raise ConfigError(f"{path}: expected {want}, got {got}")


def load_config(path: str | None) -> dict:
    """The config at `path` merged over default_config(), one level deep:
    sections merge key by key, and a value inside a section replaces the
    default whole.  Raises ConfigError for an unknown section or key, or a
    value whose JSON type differs from the default's."""
    cfg = default_config()
    if path is None:
        return cfg
    with open(path) as fh:
        user = json.load(fh)
    _check_type("config", user, cfg)
    for name, value in user.items():
        if name not in cfg:
            raise ConfigError(f"{name}: unknown section; valid: {', '.join(sorted(cfg))}")
        section = cfg[name]
        _check_type(name, value, section)
        if not isinstance(section, dict):
            cfg[name] = value
            continue
        for key, v in value.items():
            if key not in section:
                raise ConfigError(f"{name}.{key}: unknown key; valid: "
                                  f"{', '.join(sorted(section))}")
            _check_type(f"{name}.{key}", v, section[key])
            section[key] = v
    return cfg


def _domain_from(spec, path: str) -> Domain:
    """The domain of a kind-tagged spec; `path` names it in errors."""
    kind = spec.get("kind")
    if kind == "interval":
        return Interval(spec.get("a", 0.0), spec.get("b", 1.0))
    if kind == "disk":
        return Disk(tuple(spec.get("center", (0.0, 0.0))), spec.get("radius", 1.0))
    raise ConfigError(f"{path}.kind: unknown domain kind {kind!r}; valid: interval, disk")


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
# suite: A_p estimation


def suite_ap(config: dict) -> SuiteResult:
    cfg = config["ap"]
    dom = Interval(cfg["a"], cfg["b"])
    grids = cfg["grids"]
    p = cfg["p"]
    centers = cfg["centers_per_axis"]
    rows, notes = [], []
    ok = True

    g = Grid(dom, grids[-1])
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


def _case_domain(case) -> tuple[Domain, int]:
    kind, m = case
    dom = Interval(0.0, 1.0) if kind == "interval" else Disk((0.0, 0.0), 1.0)
    return dom, m


def suite_kernels(config: dict) -> SuiteResult:
    cfg = config["kernels"]
    pair_counts = cfg["pair_counts"]
    grids = cfg["grids"]
    seed = config["seed"]
    tol = cfg["tolerance"]
    rows, notes = [], []
    worst = 0.0
    all_pass = True
    cases = cfg["cases"]
    for case in cases:
        kind = case[0]
        dom, m = _case_domain(case)
        fits = {}
        for n in grids:
            for count in pair_counts:
                x, y = sample_pairs(dom, count, seed, min_sep=dom.diameter / n)
                out = verify_kernel_bounds(dom, m, x, y, multi_indices(dom.dim, 2 * m))
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
    cfg = config["identity"]
    n = cfg["grid"]
    R = cfg["radius"]
    rho = cfg["bump_rho"]
    dom = Disk((0.0, 0.0), R)
    g = Grid(dom, n)
    bump, _, _ = polynomial_bump([0.0, 0.0], rho, 2)
    f = SampledField(g, bump(g.nodes))
    rows = []
    ok = True
    reports = []
    for alpha, beta in (((2, 0), (1, 0)), ((0, 2), (0, 1)), ((1, 1), (1, 0))):
        rep = singular_identity_check(f, alpha, beta)
        reports.append(rep)
        rows.append(("identity", f"a{alpha}", rep.fitted_a, rep.expected_a,
                     rep.max_discrepancy, n, f"skipped={rep.skipped_nodes}"))
        ok &= rep.max_discrepancy <= 0.02
        if alpha != (1, 1):
            ok &= abs(rep.fitted_a - rep.expected_a) <= 0.02 * abs(rep.expected_a)
    trace = reports[0].trace_residual  # the check at ((2, 0), (1, 0))
    rows.append(("identity", "trace", trace, 0.0, trace, n, ""))
    ok &= trace <= 0.02
    return SuiteResult(suite="identity", verdict="PASS" if ok else "FAIL",
                       fitted_constant=trace, tolerance=0.02, trend=[n],
                       rows=rows)


# ---------------------------------------------------------------------------
# suite: pointwise domination |D^a u| <= C Mf


def suite_pointwise(config: dict) -> SuiteResult:
    cfg = config["pointwise"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    rows, notes = [], []
    verdicts = []
    worst = 0.0
    for case in cfg["cases"]:
        dom, m = _case_domain(case)
        grids = cfg["grids_1d"] if dom.dim == 1 else cfg["grids_2d"]
        narrow = max(0, 2 * m - dom.dim)       # the stated range |a| <= 2m-n
        wide = 2 * m - 1                       # the range the main proof uses
        per_level = {a: [] for a in multi_indices(dom.dim, wide)}
        for n in grids:
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed,
                                  n_random=cfg["n_random"])
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
    cfg = config["lemma22"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    n_funcs = cfg["pairs"]
    rows, notes = [], []
    fitted_levels = []
    for case in cfg["cases"]:
        dom, m = _case_domain(case)
        grids = cfg["grids_1d"] if dom.dim == 1 else cfg["grids_2d"]
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
    cfg = config["lemma24"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    p = cfg["p"]
    rows, notes = [], []
    results = []
    for case in cfg["cases"]:
        dom, m = _case_domain(case)
        grids = cfg["grids_1d"] if dom.dim == 1 else cfg["grids_2d"]
        level_fits = []
        for n in grids:
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed,
                                  n_random=2 if dom.dim == 2 else 4)
            if dom.dim == 2:
                corpus = corpus[: cfg["corpus_2d"]]
            sols = solve_dirichlet_many(dom, m, [f for _, f in corpus])
            radii = _nested_operator_grid(g, 4 if dom.dim == 2 else 6)
            kern = CZKernel(2, m, (2 * m, 0)) if dom.dim == 2 else None
            hn = g.cell_measure
            alphas = [a for a in multi_indices(dom.dim, 2 * m) if sum(a) == 2 * m]
            wdist = default_weights(dom, p)[1][1](g.nodes)
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


# the check depends on no grid, and both suites repeat each (phi, w, p) at
# every grid level
@functools.cache
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
    cfg = config["boundedness"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    rows, notes, plot = [], [], []
    case_trends = []
    control_growths = []
    grids = cfg["grids"]
    for case in cfg["cases"]:
        dom, m = _case_domain(case)
        ps = cfg["ps_1d"] if dom.dim == 1 else cfg["ps_2d"]
        validate_weight_classes(dom, ps)
        lams = cfg["lams"] if dom.dim == 1 else [0.5]
        ks = cfg["ks"] if dom.dim == 1 else [0.7]
        per_combo: dict = {}
        for n in grids:
            g = Grid(dom, n)
            radii = _nested_operator_grid(g, 6 if dom.dim == 1 else 3)
            sweep = nested_sweep(g, 5 if dom.dim == 2 else 9, 3)
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
                    corpus = corpus[: cfg["corpus_2d"]] + [corpus[-1]]
                F = np.stack([f.values for _, f in corpus])
                # the operator fields of corpus member i are rows
                # i * len(tnames) ... of one stack
                tnames = ["M"] if kern is None else ["M", "K*"]
                T = np.empty((len(corpus) * len(tnames), g.n_cells))
                for i, (_, f) in enumerate(corpus):
                    T[i * len(tnames)] = maximal_field(f, radii).values
                    if kern is not None:
                        T[i * len(tnames) + 1] = singular_field(f, kern, radii).values
                if dom.dim == 1 and p == ps[0]:
                    # radius-grid doubling probe (flag if the maximal field
                    # is still grid-sensitive at this density)
                    probe = corpus[0][1]
                    fine = maximal_field(probe, _nested_operator_grid(g, 12)).values
                    coarse = T[0]
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
                        fns = ev.norm(F, w, phi, p)
                        tns = ev.norm(T, w, phi, p, weak=p == 1.0).reshape(len(corpus), -1)
                        sup_ratio, sup_case = 0.0, ""
                        for (name, _), fn, tn_row in zip(corpus, fns, tns):
                            if in_class and name == "singular":
                                continue  # grid-adapted member is control-only
                            if fn <= 0:
                                continue
                            for tname, tn in zip(tnames, tn_row):
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
                plot.extend((float(n), float(v)) for n, v in zip(grids, vals))
    in_ok = all(v == "PASS" for _, _, v in case_trends)
    # divergence is judged over the whole refinement study; the per-step
    # ceiling for the gamma = n(p-1) + 0.5 control is ~sqrt(2) (see notes)
    best_span = max((sp for _, _, _, sp in control_growths), default=0.0)
    control_ok = best_span >= cfg["control_growth"]
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
    cfg = config["marok1"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    dom = Disk((0.0, 0.0), 1.0)
    grids = cfg["grids"]
    p = cfg["p"]
    w = PowerWeight(_interior_center(dom), 0.5)
    rows = []
    level_fits = []
    for n in grids:
        g = Grid(dom, n)
        radii = _nested_operator_grid(g, 4)
        kern = CZKernel(2, 1, (2, 0))
        corpus = build_corpus(g, seed=seed, n_random=2)[:5]
        # level-independent balls: fixed centers, fixed radii; each ball's
        # tail integral runs over 24 balls of the same center
        sweep = centered_sweep(g, 3, np.geomspace(0.02, 0.2, 6) * dom.diameter)
        d = dom.diameter
        ts = [np.geomspace(2 * b.radius, d, 24) for b in sweep]
        tails = [Ball(b.center, float(t)) for b, tb in zip(sweep, ts) for t in tb]
        cache = SweepCache(g, sweep + tails)
        nb = len(sweep)
        wc = weight_cell_integrals(w, g)
        wsums = cache.ball_sums(wc)
        wt_all = wsums[nb:].reshape(nb, -1)
        fits = []
        # one stack: the K* field of every corpus member, then every member
        ks = np.stack([singular_field(f, kern, radii).values for _, f in corpus]
                      + [f.values for _, f in corpus])
        sums = cache.ball_sums(np.abs(ks) ** p * wc)
        for i, (name, f) in enumerate(corpus):
            ks_sums = sums[i]
            f_sums = sums[len(corpus) + i, nb:].reshape(nb, -1)
            for j, b in enumerate(sweep):
                lhs = ks_sums[j] ** (1.0 / p)
                fnorm_t = f_sums[j] ** (1.0 / p)
                wt = wt_all[j]
                good = wt > 0
                integ = np.trapezoid(
                    (fnorm_t[good] * wt[good] ** (-1.0 / p)), np.log(ts[j][good]))
                rhs = wsums[j] ** (1.0 / p) * integ
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


def _apriori_stack(corpus, sols, jets) -> np.ndarray:
    """One stack per level: every corpus member f, then the jet of each
    member's solution u, member by member."""
    return np.stack([f.values for _, f in corpus]
                    + [sol.jet[a].values for sol in sols for a in jets])


def _apriori_norms(ev, stack, n_fields, w, phi, p):
    """(||f||, sum over the jet of ||D^a u||) for every corpus member, from
    one evaluator call on the level's stack."""
    norms = ev.norm(stack, w, phi, p)
    jet_norms = norms[n_fields:].reshape(n_fields, -1)
    unorms = np.zeros(n_fields)
    for col in jet_norms.T:  # summed in jet order, as sum() over the jet
        unorms = unorms + col
    return norms[:n_fields], unorms


def suite_apriori(config: dict) -> SuiteResult:
    cfg = config["apriori"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    rows, notes = [], []
    results = []
    plot = []
    for case in cfg["cases"]:
        dom, m = _case_domain(case)
        grids = cfg["grids"]
        ps = cfg["ps_1d"] if dom.dim == 1 else cfg["ps_2d"]
        validate_weight_classes(dom, ps)
        lams = [0.5] if dom.dim == 2 else cfg["lams"]
        ks = [0.7] if dom.dim == 2 else cfg["ks"]
        n_random = cfg["n_random"]
        per_combo: dict = {}
        doubling_note = None
        for li, n in enumerate(grids):
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed, n_random=n_random)
            sols = solve_dirichlet_many(dom, m, [f for _, f in corpus])
            sweep = nested_sweep(g, 5 if dom.dim == 2 else 9, 3)
            ev = MorreyEvaluator(g, sweep)
            jets = multi_indices(dom.dim, 2 * m)
            stack = _apriori_stack(corpus, sols, jets)
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
                        fnorms, unorms = _apriori_norms(ev, stack, len(corpus), w, phi, p)
                        for (name, _), fnorm, unorm in zip(corpus, fnorms, unorms):
                            if fnorm <= 0:
                                rows.append((f"{case[0]}-m{m}",
                                             f"p{p}-{wname}-{phname}-{name}",
                                             0.0, 0.0, np.nan, n, "vacuous"))
                                continue
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

                def sup_over(corp, stk):
                    best = 0.0
                    for fn, un in zip(*_apriori_norms(ev, stk, len(corp), w, phi, p)):
                        if fn > 0:
                            best = max(best, un / fn)
                    return best

                base = sup_over(corpus, stack)
                doubled = sup_over(corpus2, _apriori_stack(corpus2, sols2, jets))
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

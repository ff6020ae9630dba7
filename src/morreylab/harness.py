"""Corpus-driven verification suites.

Every suite builds (f, w, phi, p) cases from a config, computes both sides of
one inequality family, fits the implicit constant as the empirical sup of
LHS/RHS, and re-runs under grid refinement.  Verdicts follow one rule:

    PASS      |C*(2N) - C*(N)| / C*(N) <= suite tolerance at every step, two levels or more,
    DIVERGENT growth >= 50% at each of the last two steps (from 0 to 0 is no growth),
    UNSTABLE  anything in between, one level included,

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
    _as_point,
    ball_sweep,
    centered_sweep,
    distance,
    nested_log_radii,
    nested_sweep,
)
from .greens import (
    FundamentalSolution,
    _row_blocks,
    green_function,
    sample_pairs,
    verify_kernel_bounds,
    verify_poisson_bounds,
)
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

# The kind-tagged specs: per family, the kind a spec without "kind" takes
# (a domain must name its kind), then each kind's keys and their defaults.
# A type in place of a default marks a key the spec must give; a null lam
# is n/2 on an n-dimensional domain.
SPEC_KINDS = {
    "domain": (None, {"interval": {"a": 0.0, "b": 1.0},
                      "disk": {"center": [0.0, 0.0], "radius": 1.0}}),
    "weight": ("constant", {"constant": {"c": 1.0},
                            "power": {"center": list, "gamma": float}}),
    "phi": ("inverse-weight-measure", {"power-law": {"lam": None},
                                       "weight-measure": {"k": 0.5},
                                       "inverse-weight-measure": {}}),
}

# the family of the spec that a key of a CLI section holds
_SPEC_KEYS = {"domain": "domain", "weight": "weight", "spec": "weight",
              "phi": "phi", "phi1": "phi", "phi2": "phi"}


class ConfigError(ValueError):
    """A config that names an unknown section, key or kind, gives a value of
    the wrong JSON type, out of its range or one a constructor rejects; the
    message starts with the key path."""


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

# the JSON type that may replace each null (derived) default in CLI_DEFAULTS
_DERIVED_TYPES = {"condition.phi2": "object", "condition.x": "list",
                  "operators.bump_rho": "number"}


def _check_type(path: str, value, default) -> None:
    """ConfigError unless `value` has the JSON type of `default` (a value or a type)."""
    want = _JSON_TYPES[default if isinstance(default, type) else type(default)]
    got = _JSON_TYPES[type(value)]
    allowed = sorted({want, _DERIVED_TYPES.get(path, want)})
    if got not in allowed:
        raise ConfigError(f"{path}: expected {' or '.join(allowed)}, got {got}")


def load_config(path: str | None) -> dict:
    """The config at `path` merged over default_config(), one level deep:
    sections merge key by key, and a value inside a section replaces the
    default whole.  Raises ConfigError for an unknown section or key, a
    value whose JSON type differs from the default's, a number outside the
    `_RANGES` entry of its key, an ap.p not above 1.5, condition radii not
    in the order r_min < r_max < upper_mult, or a spec, point, order,
    multi-index, ap interval or suite case that SPEC_KINDS, its
    constructor or its class's range rejects."""
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
    _check_number("seed", "seed", cfg["seed"])
    for name, section in cfg.items():
        if isinstance(section, dict):
            for key, v in section.items():
                _check_number(f"{name}.{key}", key, v)
    # domains, weights and phis are built as the commands build them, a
    # weight against its section's domain
    for name in CLI_DEFAULTS:
        dom = w = None
        for key, spec in cfg[name].items():
            family = _SPEC_KEYS.get(key)
            if family == "domain":
                dom = _domain_from(spec, f"{name}.{key}")
            elif family == "weight":
                w = _weight_from(spec, f"{name}.{key}", dom.dim)
            elif family == "phi" and spec is not None:  # a null phi2 is phi1
                _phi_from(spec, f"{name}.{key}", cfg[name]["p"], dom.dim, w)
            elif key == "x" and spec is not None:  # a null condition.x is the center
                for i, v in enumerate(spec):
                    _check_type(f"{name}.x[{i}]", v, 0.0)
                _build(f"{name}.x", _as_point, spec, dom.dim)
            elif name == "solve" and key == "m":
                _build("solve.m", green_function, dom, spec)
    _check_operators(cfg["operators"])
    _build("ap.b", Interval, cfg["ap"]["a"], cfg["ap"]["b"])
    if not cfg["ap"]["p"] > 1.5:  # suite_ap's |x|^0.5 is in A_p for p > 1.5 only
        raise ConfigError(f"ap.p: expected a number > 1.5, got {cfg['ap']['p']!r}")
    cond = cfg["condition"]
    for lo, hi in (("r_min", "r_max"), ("r_max", "upper_mult")):
        if not cond[lo] < cond[hi]:
            raise ConfigError(f"condition.{hi}: expected a number > {lo} = {cond[lo]!r}, "
                              f"got {cond[hi]!r}")
    for name, section in cfg.items():
        if isinstance(section, dict) and "cases" in section:
            for i, case in enumerate(section["cases"]):
                _case_domain(case, f"{name}.cases[{i}]")
    return cfg


def _count(least: int):
    return (lambda v: type(v) is int and v >= least,
            f"expected a count >= {least}, got {{!r}}")


# (test, message) of every number, or list of numbers, a config holds, by
# key in any section; the numbers load builds into objects have no entry
_RANGES = {
    **dict.fromkeys(["grid", "grids", "grids_1d", "grids_2d", "centers", "radii",
                     "centers_per_axis", "radius_points"], _count(2)),
    **dict.fromkeys(["family", "corpus_2d", "pairs", "pair_counts"], _count(1)),
    "n_random": _count(0),
    "seed": (lambda v: type(v) is int and v >= 0,
             "expected a non-negative integer, got {!r}"),
    **dict.fromkeys(["p", "ps_1d", "ps_2d"],
                    (lambda v: v >= 1, "invalid exponent {!r}; need p >= 1")),
    "tolerance": (lambda v: v > 0, "expected a tolerance > 0, got {!r}"),
    **dict.fromkeys(["radius", "bump_rho", "d", "r_min", "r_max", "upper_mult"],
                    (lambda v: v > 0, "expected a number > 0, got {!r}")),
    # at 1 or below the negative-control gate passes with no growth
    "control_growth": (lambda v: v > 1, "expected a growth > 1, got {!r}"),
    # the suites take lam * n
    "lams": (lambda v: 0 < v < 1, "expected 0 < lam < 1 (a fraction of n), got {!r}"),
    "ks": (lambda v: 0 <= v < 1, "expected 0 <= k < 1, got {!r}"),
}


def _check_number(path: str, key: str, value) -> None:
    """ConfigError unless `value`, or each entry of a non-empty list of
    numbers, passes the _RANGES test of `key`.  A key without an entry, or
    a null (derived) value, is not checked."""
    if key not in _RANGES or value is None:
        return
    test, message = _RANGES[key]
    entries = ({f"{path}[{i}]": v for i, v in enumerate(value)}
               if isinstance(value, list) else {path: value})
    if not entries:
        raise ConfigError(f"{path}: expected a non-empty list")
    for where, v in entries.items():
        _check_type(where, v, 0.0)
        if not test(v):
            raise ConfigError(f"{where}: {message.format(v)}")


def _check_operators(sec: dict) -> None:
    """ConfigError unless operators.m has a fundamental solution on the
    section's domain and, on a disk, operators.alpha is 2 non-negative
    integers with |alpha| = 2m (the CZ kernel D^alpha Gamma)."""
    dim = _domain_from(sec["domain"], "operators.domain").dim
    m, alpha = sec["m"], sec["alpha"]
    _build("operators.m", FundamentalSolution, dim, m)
    if dim == 2 and (len(alpha) != 2 or any(type(a) is not int or a < 0 for a in alpha)
                     or sum(alpha) != 2 * m):
        raise ConfigError(f"operators.alpha: expected 2 non-negative integers "
                          f"with sum 2m = {2 * m}, got {alpha}")


def _spec(family: str, spec: dict, path: str) -> tuple[str, dict]:
    """(kind, keys) of a `family` spec read through SPEC_KINDS, defaults filled
    in; ConfigError names `path`.<key> for an unknown or missing kind, or an
    unknown, missing, mistyped or (a disk center) wrong-length key."""
    default_kind, kinds = SPEC_KINDS[family]
    kind = spec.get("kind", default_kind)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind: unknown {family} kind {kind!r}; "
                          f"valid: {', '.join(kinds)}")
    keys = {"kind": kind, **kinds[kind]}
    for key, value in spec.items():
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key for kind {kind!r}; "
                              f"valid: {', '.join(keys)}")
        if value is not None or keys[key] is not None:  # a null default takes null
            _check_type(f"{path}.{key}", value, float if keys[key] is None else keys[key])
        for i, x in enumerate(value if isinstance(value, list) else ()):
            _check_type(f"{path}.{key}[{i}]", x, 0.0)
        if isinstance(keys[key], list) and len(value) != len(keys[key]):
            raise ConfigError(f"{path}.{key}: expected {len(keys[key])} numbers, "
                              f"got {len(value)}")
        keys[key] = value
    for key, value in keys.items():
        if isinstance(value, type):
            raise ConfigError(f"{path}.{key}: missing key for kind {kind!r}")
    return kind, keys


def _build(path: str, cls, *args):
    """cls(*args); a rejection is a ConfigError naming `path`."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _domain_from(spec: dict, path: str) -> Domain:
    """The domain of a kind-tagged spec; `path` names it in errors."""
    kind, k = _spec("domain", spec, path)
    if kind == "interval":
        return _build(f"{path}.b", Interval, k["a"], k["b"])
    return _build(f"{path}.radius", Disk, tuple(k["center"]), k["radius"])


def _weight_from(spec: dict, path: str, dim: int):
    """The weight of a kind-tagged spec on a `dim`-dimensional domain; a
    power weight's center must have `dim` coordinates."""
    kind, k = _spec("weight", spec, path)
    if kind == "constant":
        return _build(f"{path}.c", ConstantWeight, k["c"])
    if len(k["center"]) != dim:
        raise ConfigError(f"{path}.center: expected {dim} numbers for a "
                          f"{dim}D domain, got {len(k['center'])}")
    return _build(f"{path}.gamma", PowerWeight, tuple(k["center"]), k["gamma"])


def _phi_from(spec: dict, path: str, p: float, n: int, w):
    """The phi of a kind-tagged spec on an n-dimensional domain; ConfigError
    outside its class's range, 0 < lam < n (null: n/2) or 0 <= k < 1."""
    kind, k = _spec("phi", spec, path)
    if kind == "power-law":
        lam = 0.5 * n if k["lam"] is None else k["lam"]
        if not 0 < lam < n:
            raise ConfigError(f"{path}.lam: expected 0 < lam < {n} on a {n}D domain, "
                              f"got {lam!r}")
        return PowerLawPhi(lam=lam, p=p, n=n)
    if kind == "weight-measure":
        if not 0 <= k["k"] < 1:
            raise ConfigError(f"{path}.k: expected 0 <= k < 1, got {k['k']!r}")
        return WeightMeasurePhi(k=k["k"], p=p, w=w)
    return InverseWeightMeasurePhi(p=p, w=w)


def _interior_center(dom: Domain):
    return tuple(0.5 * (lo + hi) for lo, hi in dom.bounding_box)


def _boundary_point(dom: Domain):
    if isinstance(dom, Interval):
        return (dom.a,)
    return (dom.center[0] + dom.radius, dom.center[1])


def default_weights(dom: Domain, p: float):
    """The standard family as (name, w, tag): constant, centered/boundary
    powers of gamma -0.4, 0.5 (those in the class at p), the control gamma =
    n(p-1) + 0.5; ap_membership tags each in-class or out-of-class."""
    mid = _interior_center(dom)
    usable = [g for g in (-0.4, 0.5) if ap_membership(PowerWeight(mid, g), p).in_class]
    out = [("const", ConstantWeight(1.0))]
    out += [(f"pow{g:+g}-center", PowerWeight(mid, g)) for g in usable]
    if usable:
        out.append((f"pow{usable[-1]:+g}-boundary",
                    PowerWeight(_boundary_point(dom), usable[-1])))
    ctrl = dom.dim * (p - 1.0) + 0.5
    out.append((f"pow{ctrl:+g}-control", PowerWeight(mid, ctrl)))
    return [(name, w, "in-class" if ap_membership(w, p).in_class
             else "out-of-class (negative control)") for name, w in out]


def default_phis(dom: Domain, p: float, w, lams=(0.25, 0.5, 0.75), ks=(0.3, 0.7)):
    n = dom.dim
    out = [(f"power{la:g}", PowerLawPhi(lam=la * n, p=p, n=n)) for la in lams]
    out += [(f"wmeas{k:g}", WeightMeasurePhi(k=k, p=p, w=w)) for k in ks]
    out.append(("invwmeas", InverseWeightMeasurePhi(p=p, w=w)))
    return out


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
    if len(vals) < 2:
        return "UNSTABLE"  # no refinement step to judge
    growth = [b / a if a > 0 else (np.inf if b else 1.0) for a, b in zip(vals, vals[1:])]
    if len(growth) >= 2 and all(g >= 1.5 for g in growth[-2:]):
        return "DIVERGENT"
    if all(abs(b - a) <= tolerance * a for a, b in zip(vals, vals[1:])):
        return "PASS"
    return "UNSTABLE"


def _refinement_result(suite: str, series, tol: float, rows, notes,
                       trend_len=None, plot=()) -> SuiteResult:
    """A study over (values, verdict) series: PASS iff every series passes,
    else UNSTABLE; the fitted constant is the largest value of any series,
    and the trend the values of the first `trend_len` series."""
    verdict = "PASS" if all(v == "PASS" for _, v in series) else "UNSTABLE"
    return SuiteResult(suite=suite, verdict=verdict,
                       fitted_constant=max(max(vals) for vals, _ in series),
                       tolerance=tol, trend=[vals for vals, _ in series[:trend_len]],
                       rows=rows, notes=notes, plot_data=list(plot))


def _sup_ratio(names, f_norms, t_norms) -> tuple[float, str]:
    """The largest ||Tf|| / ||f|| over the members with ||f|| > 0 and the
    name of the first member attaining it; (0.0, "") when there is none."""
    best, at = 0.0, ""
    for name, fn, tn in zip(names, f_norms, t_norms):
        if fn > 0 and tn / fn > best:
            best, at = tn / fn, name
    return best, at


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        wcsv = csv.writer(fh)
        wcsv.writerow(header)
        wcsv.writerows([_fmt(v) for v in row] for row in rows)


def write_reports(results: list[SuiteResult], out_dir: str) -> dict:
    """Each suite's CSV (and plot CSV), and its summary merged into
    `summary.json`: the entries of suites that this call did not run stay.
    Returns the summary of this call's suites only."""
    os.makedirs(out_dir, exist_ok=True)
    summary = {}
    for res in results:
        _write_csv(os.path.join(out_dir, f"{res.suite}.csv"),
                   ("suite", "case", "lhs", "rhs", "ratio", "n", "flags"), res.rows)
        if res.plot_data:
            _write_csv(os.path.join(out_dir, f"{res.suite}_plot.csv"), ("r", "ratio"),
                       res.plot_data)
        summary[res.suite] = {"suite": res.suite, "verdict": res.verdict,
                              "fittedConstant": res.fitted_constant,
                              "tolerance": res.tolerance, "N-trend": res.trend,
                              "notes": res.notes}
    path = os.path.join(out_dir, "summary.json")
    merged = {}
    if os.path.exists(path):
        with open(path) as fh:
            merged = json.load(fh)
    with open(path, "w") as fh:
        json.dump({**merged, **summary}, fh, indent=2, sort_keys=True)
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
    # its A_p quotient on every ball centered at the origin (4/3 at p = 2)
    exact = (1.0 / (1.0 + w_in.gamma)) * ((p - 1.0) / (p - 1.0 - w_in.gamma)) ** (p - 1.0)
    origin = [Ball(w_in.center, r) for r in (0.25, 0.5, 0.99)]
    est_origin = ap_constant(w_in, p, g, origin)
    rows.append(("ap", "pow+0.5-origin-balls", est_origin.value, exact,
                 est_origin.value / exact, grids[-1], ""))
    ok &= abs(est_origin.value - exact) <= 0.03 * exact
    full = ap_constant(w_in, p, g, ap_sweep(g, w_in, centers))
    rows.append(("ap", "pow+0.5-full-sweep", full.value, exact,
                 full.value / exact, grids[-1], ""))
    ok &= full.value >= exact - 1e-9
    ok &= ap_membership(w_in, p).in_class

    ctrl = PowerWeight(_interior_center(dom), dom.dim * (p - 1.0) + 0.5)
    control_vals = []
    for n in grids:
        gn = Grid(dom, n)
        est = ap_constant(ctrl, p, gn, ap_sweep(gn, ctrl, centers))
        control_vals.append(est.value)
        rows.append(("ap", f"control-N{n}", est.value, np.nan, np.nan, n,
                     "out-of-class"))
    growth = [b / a for a, b in zip(control_vals, control_vals[1:])]
    diverged = bool(growth) and all(gr >= 1.5 for gr in growth)
    notes.append(f"control growth per refinement: {[round(g, 4) for g in growth]}")
    verdict = "PASS" if (ok and diverged) else "FAIL"
    return SuiteResult(suite="ap", verdict=verdict, fitted_constant=full.value,
                       tolerance=0.03, trend=control_vals, rows=rows, notes=notes)


# ---------------------------------------------------------------------------
# suite: kernel bounds (Green function and Poisson kernel estimates)


def _case_domain(case, path: str = "cases") -> tuple[Domain, int]:
    """The unit domain and order of a suite case [kind, m]; ConfigError
    names `path` unless a Green function exists for it."""
    if not isinstance(case, list | tuple) or len(case) != 2 or type(case[1]) is not int:
        raise ConfigError(f"{path}: expected [kind, m] with an integer m, got {case!r}")
    kind, m = case
    dom = _domain_from({"kind": kind}, path)
    try:
        green_function(dom, m)
    except ValueError:
        raise ConfigError(f"{path}: no Green function for {kind} m={m}") from None
    return dom, m


def _cases(cases):
    """(kind, row label, unit domain, m) of every suite case [kind, m]."""
    for case in cases:
        dom, m = _case_domain(case)
        yield case[0], f"{case[0]}-m{m}", dom, m


def suite_kernels(config: dict) -> SuiteResult:
    cfg = config["kernels"]
    pair_counts = cfg["pair_counts"]
    grids = cfg["grids"]
    seed = config["seed"]
    tol = cfg["tolerance"]
    rows, notes = [], []
    worst = 0.0
    all_pass = True
    for _, label, dom, m in _cases(cfg["cases"]):
        fits = {}
        for n in grids:
            for count in pair_counts:
                x, y = sample_pairs(dom, count, seed, min_sep=dom.diameter / n)
                for f in verify_kernel_bounds(dom, m, x, y, multi_indices(dom.dim, 2 * m)):
                    # pool per (regime, |alpha|): the bounds are per class
                    key = (f.regime, sum(f.alpha))
                    cur = fits.setdefault(key, {})
                    cur[(n, count)] = max(cur.get((n, count), 0.0), f.constant)
                    rows.append((label, f"{f.regime}-a{f.alpha}",
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
                notes.append(f"{label} {regime} |a|={order}: spread {spread:.2%}")
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
    reports = singular_identity_check(f, (((2, 0), (1, 0)), ((0, 2), (0, 1)),
                                          ((1, 1), (1, 0))))
    for rep in reports:
        rows.append(("identity", f"a{rep.alpha}", rep.fitted_a, rep.expected_a,
                     rep.max_discrepancy, n, f"skipped={rep.skipped_nodes}"))
        ok &= rep.max_discrepancy <= 0.02
        if rep.alpha != (1, 1):
            ok &= abs(rep.fitted_a - rep.expected_a) <= 0.02 * abs(rep.expected_a)
    trace = reports[0].trace_residual  # the same for every pair
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
    rows, verdicts = [], []
    worst = 0.0
    for _, label, dom, m in _cases(cfg["cases"]):
        grids = cfg["grids_1d"] if dom.dim == 1 else cfg["grids_2d"]
        narrow = max(0, 2 * m - dom.dim)       # the stated range |a| <= 2m-n
        wide = 2 * m - 1                       # the range the main proof uses
        per_level = {a: {} for a in multi_indices(dom.dim, wide)}  # n -> sup
        for n in grids:
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed, n_random=cfg["n_random"])
            sols = solve_dirichlet_many(dom, m, [f for _, f in corpus])
            radii = _nested_operator_grid(g, 4 if dom.dim == 2 else 6)
            for sol, mf in zip(sols, maximal_field(g, [f.values for _, f in corpus], radii)):
                mf = np.maximum(mf, 1e-300)
                for a in per_level:
                    ratio = (np.abs(sol.jet[a].values) / mf).max()
                    per_level[a][n] = max(per_level[a].get(n, 0.0), ratio)
        for a, fitted in per_level.items():
            vals = [fitted[n] for n in grids]
            rng_tag = "narrow" if sum(a) <= narrow else "wide"
            verdict = trend_verdict(vals, tol)
            verdicts.append(verdict)
            worst = max(worst, vals[-1])
            rows.append((label, f"alpha{a}-{rng_tag}", vals[0],
                         vals[-1], vals[-1] / vals[0], grids[-1], verdict))
    verdict = "PASS" if all(v == "PASS" for v in verdicts) else "UNSTABLE"
    return SuiteResult(suite="pointwise", verdict=verdict, fitted_constant=worst,
                       tolerance=tol, trend=[], rows=rows)


# ---------------------------------------------------------------------------
# suite: the off-diagonal Green-kernel inequality (both-roles maximal bound)


def _offdiagonal_region_sums(g: Grid, gf, alphas, F: np.ndarray, MF: np.ndarray):
    """Row sums over the region D_i = {j : |x_i - y_j| > d(x_i)}:
    per alpha sum_j |D^a G(x_i, y_j)| F_j, plus sum_j F_j and sum_j MF_j."""
    kf = {a: np.zeros_like(F) for a in alphas}
    sf = np.zeros_like(F)
    smf = np.zeros_like(F)
    for sl in _row_blocks(g.n_cells):
        X = g.nodes[sl][:, None, :]
        Y = g.nodes[None, :, :]
        mask = distance(X, Y) > g.boundary_dist[sl][:, None]
        near = ~mask
        for a, kv in gf.jet(alphas, X, Y):
            np.abs(kv, out=kv)
            kv[near] = 0.0
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
    rows, notes, series = [], [], []
    for kind, label, dom, m in _cases(cfg["cases"]):
        grids = cfg["grids_1d"] if dom.dim == 1 else cfg["grids_2d"]
        gf = green_function(dom, m)
        alphas = [a for a in multi_indices(dom.dim, 2 * m) if sum(a) == 2 * m]
        level_fits = []
        for n in grids:
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed, n_random=2)[:n_funcs]
            radii = _nested_operator_grid(g, 3 if dom.dim == 2 else 5)
            F = np.column_stack([np.abs(f.values) for _, f in corpus])
            MF = maximal_field(g, F.T, radii).T
            hn = g.cell_measure
            kf, sf, smf = _offdiagonal_region_sums(g, gf, alphas, F, MF)
            fits = []
            for i, (fname, _) in enumerate(corpus):
                for (gname, _), gv, mgv in zip(corpus, F.T, MF.T):
                    lhs = max(float((kf[a][:, i] * gv).sum() * hn * hn) for a in alphas)
                    rhs = float((gv * smf[:, i]).sum() * hn * hn
                                + (mgv * sf[:, i]).sum() * hn * hn)
                    ratio = lhs / rhs if rhs > 0 else 0.0
                    fits.append(ratio)
                    rows.append((label, f"{fname}|{gname}", lhs, rhs, ratio, n, ""))
            level_fits.append(max(fits))
        series.append((level_fits, trend_verdict(level_fits, tol)))
        if dom.dim == 1:
            notes.append(f"{[kind, m]}: off-diagonal order-2m kernel vanishes in 1D; "
                         "rows are vacuous (lhs = 0)")
    return _refinement_result("lemma22", series, tol, rows, notes)


# ---------------------------------------------------------------------------
# suite: integral bound for order-2m derivatives (maximal + singular RHS)


def suite_lemma24(config: dict) -> SuiteResult:
    cfg = config["lemma24"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    p = cfg["p"]
    rows, series = [], []
    for _, label, dom, m in _cases(cfg["cases"]):
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
            # per member: the order-2m derivative of largest sup, the first
            # on a tie, and its two dist-g test functions
            daus = [max((sol.jet[a].values for a in alphas), key=lambda v: np.abs(v).max())
                    for sol in sols]
            sgns = [np.abs(dau) ** (p - 1.0) * np.sign(dau) for dau in daus]
            dist_gs = [(sgn, sgn * wdist) for sgn in sgns]
            # M|f| of every member (also M|g| of the first four members as
            # g), then M|g| of each member's two dist-g, in one stack
            k = len(corpus)
            fvals = [f.values for _, f in corpus]
            ms = maximal_field(g, fvals + [gv for pair in dist_gs for gv in pair], radii)
            mfs, mdists = ms[:k], ms[k:].reshape(k, 2, -1)
            ksfs = (np.zeros((k, g.n_cells)) if kern is None
                    else singular_field(g, fvals, kern, radii))
            for (fname, f), dau, mf, ksf, gvs, mgs in zip(corpus, daus, mfs, ksfs,
                                                          dist_gs, mdists):
                absf = np.abs(f.values)
                gs = list(zip(("dist-g", "dist-g-weighted"), gvs, mgs))
                gs += [(gn, fg.values, mg) for (gn, fg), mg in zip(corpus[:4], mfs)]
                for gname, gv, mg in gs:
                    lhs = float((np.abs(dau * gv)).sum() * hn)
                    rhs = float(((ksf + mf) * np.abs(gv) + mg * absf
                                 + absf * np.abs(gv)).sum() * hn)
                    ratio = lhs / rhs if rhs > 0 else 0.0
                    fits.append(ratio)
                    rows.append((label, f"{fname}|{gname}", lhs, rhs, ratio, n, ""))
            level_fits.append(max(fits))
        series.append((level_fits, trend_verdict(level_fits, tol)))
    return _refinement_result("lemma24", series, tol, rows, [])


# ---------------------------------------------------------------------------
# suite: operator boundedness on the Morrey scale


# the check depends on no grid, and both suites repeat each (phi, w, p) at
# every grid level
@functools.cache
def _condition_ok(phi1, phi2, w, p, dom: Domain):
    r_grid = np.geomspace(0.02 * dom.diameter, 0.9 * dom.diameter, 6)
    try:
        rep = condition_213(phi1, phi2, w, p, _interior_center(dom), r_grid,
                            upper_limit=10.0 * dom.diameter, sensitivity_checks=False)
    except ValueError:
        return None
    return rep.constant if np.isfinite(rep.constant) else None


def _morrey_combos(rows, label, n, dom: Domain, p, lams, ks, controls: bool):
    """The default (w, phi) pairs at p that pass the condition (2.13) gate,
    as (row case, weight name, w, tag, phi name, phi): the lams and ks in
    1D, lam 0.5 and k 0.7 on the disk, the out-of-class weights only with
    `controls`.  A pair that fails the gate gets a skip row instead."""
    lams, ks = (lams, ks) if dom.dim == 1 else ([0.5], [0.7])
    for wname, w, tag in default_weights(dom, p):
        if tag != "in-class" and not controls:
            continue
        for phname, phi in default_phis(dom, p, w, lams=lams, ks=ks):
            case = f"p{p}-{wname}-{phname}"
            if _condition_ok(phi, phi, w, p, dom) is None:
                rows.append((label, case, np.nan, np.nan, np.nan, n,
                             "condition-divergent-skip"))
                continue
            yield case, wname, w, tag, phname, phi


def suite_boundedness(config: dict) -> SuiteResult:
    cfg = config["boundedness"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    grids = cfg["grids"]
    rows, notes, plot, case_trends, control_growths = [], [], [], [], []
    for kind, label, dom, m in _cases(cfg["cases"]):
        ps = cfg["ps_1d"] if dom.dim == 1 else cfg["ps_2d"]
        per_combo: dict = {}
        for n in grids:
            g = Grid(dom, n)
            radii = _nested_operator_grid(g, 6 if dom.dim == 1 else 3)
            ev = MorreyEvaluator(g, nested_sweep(g, 5 if dom.dim == 2 else 9))
            kern = CZKernel(2, m, (2 * m, 0)) if dom.dim == 2 else None
            corpora = []
            for p in ps:
                gamma_ctrl = dom.dim * (p - 1.0) + 0.5
                # the control witness: the conjugate power profile of the
                # out-of-class weight (a grid-divergent member; fixed smooth
                # corpora have convergent ratios and cannot witness failure)
                spike_exp = -gamma_ctrl / (p - 1.0) if p > 1 else -(dom.dim + 1.0)
                corpus = build_corpus(
                    g, seed=seed, n_random=3 if dom.dim == 2 else 6,
                    singular_spec=(_interior_center(dom), spike_exp,
                                   0.25 * dom.diameter))
                if dom.dim == 2:
                    corpus = corpus[: cfg["corpus_2d"]] + [corpus[-1]]
                corpora.append(corpus)
            # one stack per operator over the corpora of every p
            fvals = np.stack([f.values for corpus in corpora for _, f in corpus])
            ops = [maximal_field(g, fvals, radii)]
            if kern is not None:
                ops.append(singular_field(g, fvals, kern, radii))
            tnames = ["M", "K*"][: len(ops)]
            # member-major: corpus member i has rows i * len(tnames) ... of T
            ops = np.stack(ops, axis=1).reshape(-1, g.n_cells)
            ends = np.cumsum([len(corpus) for corpus in corpora])[:-1]
            for p, corpus, F, T in zip(ps, corpora, np.split(fvals, ends),
                                       np.split(ops, len(tnames) * ends)):
                if dom.dim == 1 and p == ps[0]:
                    # radius-grid doubling probe (flag if the maximal field
                    # is still grid-sensitive at this density)
                    fine = maximal_field(g, F[:1], _nested_operator_grid(g, 12))[0]
                    sens = np.abs(fine - T[0]).max() / max(np.abs(fine).max(), 1e-300)
                    if sens > 0.01:
                        rows.append((label, f"radius-grid-probe-N{n}",
                                     sens, 0.01, sens / 0.01, n,
                                     "radius-grid-sensitive"))
                for case, wname, w, tag, phname, phi in _morrey_combos(
                        rows, label, n, dom, p, cfg["lams"], cfg["ks"], controls=True):
                    # the grid-adapted singular member is control-only
                    fns = np.where([tag == "in-class" and name == "singular"
                                    for name, _ in corpus], 0.0, ev.norm(F, w, phi, p))
                    sup_ratio, sup_case = _sup_ratio(
                        [f"{tname}:{name}" for name, _ in corpus for tname in tnames],
                        np.repeat(fns, len(tnames)), ev.norm(T, w, phi, p, weak=p == 1.0))
                    key = (kind, m, p, wname, phname, tag)
                    per_combo.setdefault(key, []).append(sup_ratio)
                    rows.append((label, case, sup_ratio, 1.0, sup_ratio, n,
                                 f"{tag};sup at {sup_case}"))
            del ev, corpora, fvals, ops, corpus, F, T  # before the next level
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
            notes.append(f"attained by {key[:5]}: levels "
                         f"{[round(float(v), 3) for v in vals]}, "
                         f"per-step {[round(float(x), 3) for x in gr]}")
            break
    verdict = "PASS" if (in_ok and control_ok) else ("UNSTABLE" if control_ok else "FAIL")
    worst = max((max(v) for _, v, _ in case_trends), default=np.nan)
    series = [vals for _, vals, _ in case_trends]  # many combos share one series
    trend = [vals for i, vals in enumerate(series) if vals not in series[:i]][:6]
    return SuiteResult(suite="boundedness", verdict=verdict,
                       fitted_constant=worst, tolerance=tol, trend=trend, rows=rows,
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
        ts = [np.geomspace(2 * b.radius, dom.diameter, 24) for b in sweep]
        tails = [Ball(b.center, float(t)) for b, tb in zip(sweep, ts) for t in tb]
        cache = SweepCache(g, sweep + tails)
        nb = len(sweep)
        wc = weight_cell_integrals(w, g)
        wsums = cache.ball_sums(wc)
        wt_all = wsums[nb:].reshape(nb, -1)
        fits = []
        # one stack: the K* field of every corpus member, then every member
        F = np.stack([f.values for _, f in corpus])
        ks = np.concatenate([singular_field(g, F, kern, radii), F])
        sums = cache.power_sums(ks, wc, p)
        for i, (name, _) in enumerate(corpus):
            f_sums = sums[len(corpus) + i, nb:].reshape(nb, -1)
            for j, b in enumerate(sweep):
                lhs = sums[i, j] ** (1.0 / p)
                good = wt_all[j] > 0
                integ = np.trapezoid(f_sums[j][good] ** (1.0 / p)
                                     * wt_all[j][good] ** (-1.0 / p), np.log(ts[j][good]))
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


def _apriori_stack(corpus, sols, jets) -> list[np.ndarray]:
    """One stack per level, as a list of rows that are not copied: every
    corpus member f, then the jet of each member's solution u, member by
    member."""
    return ([f.values for _, f in corpus]
            + [sol.jet[a].values for sol in sols for a in jets])


def _apriori_norms(ev, stack, n_fields, w, phi, p):
    """(||f||, sum over the jet of ||D^a u||) for every corpus member, from
    one evaluator call on the level's stack (the same list object each
    time, so the evaluator's inner-norm cache finds it)."""
    norms = ev.norm(stack, w, phi, p)
    # summed in jet order, as sum() over the jet
    return norms[:n_fields], sum(norms[n_fields:].reshape(n_fields, -1).T,
                                 np.zeros(n_fields))


def suite_apriori(config: dict) -> SuiteResult:
    cfg = config["apriori"]
    tol = cfg["tolerance"]
    seed = config["seed"]
    n_random = cfg["n_random"]
    rows, notes, plot, series = [], [], [], []
    for kind, label, dom, m in _cases(cfg["cases"]):
        grids = cfg["grids"]
        ps = cfg["ps_1d"] if dom.dim == 1 else cfg["ps_2d"]
        jets = multi_indices(dom.dim, 2 * m)
        per_combo: dict = {}
        for li, n in enumerate(grids):
            g = Grid(dom, n)
            corpus = build_corpus(g, seed=seed, n_random=n_random)
            sols = solve_dirichlet_many(dom, m, [f for _, f in corpus])
            ev = MorreyEvaluator(g, nested_sweep(g, 5 if dom.dim == 2 else 9))
            stack = _apriori_stack(corpus, sols, jets)
            names = [name for name, _ in corpus]
            for p in ps:
                for case, wname, w, _, phname, phi in _morrey_combos(
                        rows, label, n, dom, p, cfg["lams"], cfg["ks"], controls=False):
                    fnorms, unorms = _apriori_norms(ev, stack, len(corpus), w, phi, p)
                    rows.extend((label, f"{case}-{name}", 0.0, 0.0, np.nan, n, "vacuous")
                                for name, fnorm in zip(names, fnorms) if fnorm <= 0)
                    sup_ratio, sup_name = _sup_ratio(names, fnorms, unorms)
                    per_combo.setdefault((p, wname, phname), []).append(sup_ratio)
                    rows.append((label, case, sup_ratio, 1.0, sup_ratio, n,
                                 f"sup at {sup_name}"))
                    plot.append((float(n), sup_ratio))
            # corpus-doubling stability probe at the middle level: the sup
            # may only grow; it must not grow past the tolerance
            if li == min(1, len(grids) - 1) and dom.dim == 1:
                corpus2 = build_corpus(g, seed=seed, n_random=2 * n_random)
                sols2 = solve_dirichlet_many(dom, m, [f for _, f in corpus2])
                p = ps[-1]
                _, w, _ = default_weights(dom, p)[0]
                phi = default_phis(dom, p, w)[0][1]
                base, _ = _sup_ratio(names, *_apriori_norms(ev, stack, len(corpus),
                                                            w, phi, p))
                doubled, _ = _sup_ratio(
                    [name for name, _ in corpus2],
                    *_apriori_norms(ev, _apriori_stack(corpus2, sols2, jets),
                                    len(corpus2), w, phi, p))
                flag = "" if doubled <= (1 + tol) * base else " EXCEEDS TOLERANCE"
                notes.append(f"{[kind, m]}: corpus doubling sup "
                             f"{base:.4g} -> {doubled:.4g}{flag}")
                series.append(([base, doubled], "UNSTABLE" if flag else "PASS"))
                del corpus2, sols2
            del corpus, sols, ev, stack  # before the next level's solve
        series += [(vals, trend_verdict(vals, tol)) for vals in per_combo.values()]
    return _refinement_result("apriori", series, tol, rows, notes, trend_len=6, plot=plot)


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


def run_suites(names, config: dict, jobs: int = 1) -> list[SuiteResult]:
    names = list(names)
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; valid: {sorted(SUITES)}")
    if jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            return list(pool.map(run_suite, names, [config] * len(names)))
    return [run_suite(n, config) for n in names]

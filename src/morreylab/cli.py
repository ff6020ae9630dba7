"""Config-driven command line front end.

Subcommands: norm, weight, condition, hardy, solve, kernels, operators,
verify, report.  Exit codes: 0 all checks pass, 1 any FAIL, 2 config/usage
error.  Output files land in --out, the MORREYLAB_OUT environment variable,
or the config's "out" entry, in that order.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import harness
from .corpus import build_corpus, polynomial_bump
from .geometry import Grid, SampledField, ball_sweep
from .hardy import HardySetting, hardy_best_constant, hardy_verify_inequality
from .operators import (
    CZKernel,
    maximal_field,
    operator_radius_grid,
    singular_field,
    singular_identity_check,
)
from .solver import residual_check, solve_dirichlet
from .spaces import condition_213, morrey_norm
from .weights import ap_constant, ap_membership, ap_sweep

_EXIT_PASS, _EXIT_FAIL, _EXIT_CONFIG = 0, 1, 2


def _out_dir(args, config) -> str:
    out = args.out or os.environ.get("MORREYLAB_OUT") or config["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _load(args) -> dict:
    try:
        cfg = harness.load_config(args.config)
    except FileNotFoundError:
        raise harness.ConfigError(f"config not found: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise harness.ConfigError(f"bad config: {exc}") from None
    if args.grid is not None:
        harness._check_number("--grid", "grid", args.grid)
        least = harness._least_grid(cfg, f"{args.command}.grid")  # of its own grid key
        harness._check_number("--grid", "grid", args.grid, harness._count(least))
    if args.seed is not None:
        harness._check_number("--seed", "seed", args.seed)
        cfg["seed"] = args.seed
    return cfg


def _corpus_field(g: Grid, seed: int, name: str, path: str) -> SampledField:
    corpus = dict(build_corpus(g, seed=seed, n_random=3))
    if name not in corpus:
        raise harness.ConfigError(f"{path}: unknown corpus field {name!r}; "
                                  f"have {sorted(corpus)}")
    return corpus[name]


_CSV_BLOCK = 1024  # rows of a field CSV formatted by one call


def _field_csv(path: str, grid: Grid, columns: dict):
    """Node coordinates and columns, one row per cell, as csv.writer would
    write them: "%.17g" numbers and CRLF line ends."""
    head = [f"x{i + 1}" for i in range(grid.dim)] + list(columns)
    row = ",".join(["%.17g"] * len(head)) + "\r\n"
    table = np.column_stack([grid.nodes, *columns.values()])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(head)
        # one format call per block of rows; one for every row at once
        # would raise the peak RSS
        for start in range(0, len(table), _CSV_BLOCK):
            block = table[start:start + _CSV_BLOCK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# subcommands


def cmd_norm(args) -> int:
    cfg = _load(args)
    sec = cfg["norm"]
    dom = harness._domain_from(sec["domain"], "norm.domain")
    n = sec["grid"] if args.grid is None else args.grid
    g = Grid(dom, n)
    fname = sec["f"]
    f = _corpus_field(g, cfg["seed"], fname, "norm.f")
    p = sec["p"]
    w = harness._weight_from(sec["weight"], "norm.weight", dom.dim)
    phi = harness._phi_from(sec["phi"], "norm.phi", p, dom.dim, w)
    sweep = ball_sweep(g, sec["centers"], sec["radii"])
    res = morrey_norm(f, w, phi, p, sweep)
    print(format(res.value, ".12g"))
    out = _out_dir(args, cfg)
    harness._write_csv(os.path.join(out, "norm.csv"),
                       ("f", "w", "phi", "p", "value", "center", "radius", "n"),
                       [(fname, w.label, phi.label, p, res.value,
                         res.attaining_ball.center, res.attaining_ball.radius, n)])
    return _EXIT_PASS


def cmd_weight(args) -> int:
    cfg = _load(args)
    sec = cfg["weight"]
    dom = harness._domain_from(sec["domain"], "weight.domain")
    n = sec["grid"] if args.grid is None else args.grid
    g = Grid(dom, n)
    w = harness._weight_from(sec["spec"], "weight.spec", dom.dim)
    p = sec["p"]
    est = ap_constant(w, p, g, ap_sweep(g, w))
    member = ap_membership(w, p)
    verdict = "in-class" if member.in_class else "out-of-class"
    out = _out_dir(args, cfg)
    harness._write_csv(os.path.join(out, "weight.csv"),
                       ("p", "gamma", "estimate", "attaining_center",
                        "attaining_radius", "n"),
                       [(p, member.gamma, est.value,
                         est.attaining_ball.center, est.attaining_ball.radius, n)])
    print(f"A_p estimate {est.value:.6g} ({verdict})")
    return _EXIT_PASS


def cmd_condition(args) -> int:
    cfg = _load(args)
    sec = cfg["condition"]
    dom = harness._domain_from(sec["domain"], "condition.domain")
    p = sec["p"]
    w = harness._weight_from(sec["weight"], "condition.weight", dom.dim)
    phi1 = harness._phi_from(sec["phi1"], "condition.phi1", p, dom.dim, w)
    phi2 = (phi1 if sec["phi2"] is None
            else harness._phi_from(sec["phi2"], "condition.phi2", p, dom.dim, w))
    x = list(harness._interior_center(dom)) if sec["x"] is None else sec["x"]
    r_grid = np.geomspace(sec["r_min"], sec["r_max"], 8) * dom.diameter
    rep = condition_213(phi1, phi2, w, p, x, r_grid,
                        upper_limit=sec["upper_mult"] * dom.diameter)
    print(f"fitted C = {rep.constant:.6g}  flags: {', '.join(rep.flags) or 'none'}")
    out = _out_dir(args, cfg)
    harness._write_csv(os.path.join(out, "condition.csv"), ("r", "lhs_over_phi2"), rep.per_r)
    return _EXIT_PASS


def cmd_hardy(args) -> int:
    cfg = _load(args)
    sec = cfg["hardy"]
    d = sec["d"]
    setting = HardySetting(d=d, v1=lambda t: np.ones_like(t),
                           v2=lambda t: np.ones_like(t),
                           w=lambda t: np.ones_like(t))
    bound = hardy_best_constant(setting)
    family = [(f"step{a:.6g}", (lambda a: lambda t: (t > a).astype(float))(a))
              for a in np.geomspace(1e-6, 0.9, sec["family"]) * d]
    rep = hardy_verify_inequality(setting, family)
    print(f"B = {bound.value:.8g}; family max ratio {rep.max_ratio:.8g}; "
          f"all hold: {rep.all_hold}")
    out = _out_dir(args, cfg)
    harness._write_csv(os.path.join(out, "hardy.csv"), ("g", "lhs", "rhs", "ratio", "holds"),
                       [(r.label, r.lhs, r.rhs, r.ratio, r.holds) for r in rep.rows])
    return _EXIT_PASS if rep.all_hold else _EXIT_FAIL


def cmd_solve(args) -> int:
    cfg = _load(args)
    sec = cfg["solve"]
    dom = harness._domain_from(sec["domain"], "solve.domain")
    m = sec["m"]
    n = sec["grid"] if args.grid is None else args.grid
    g = Grid(dom, n)
    f = _corpus_field(g, cfg["seed"], sec["f"], "solve.f")
    jet = solve_dirichlet(dom, m, f)
    resid = residual_check(m, jet[(0,) * dom.dim], f)
    out = _out_dir(args, cfg)
    cols = {"f": f.values}
    for a, fld in sorted(jet.items()):
        cols["u" + "".join(map(str, a))] = fld.values
    _field_csv(os.path.join(out, "solution.csv"), g, cols)
    print(f"solved ({dom.dim}D, m={m}, N={n}); interior residual {resid:.3e}")
    return _EXIT_PASS


def cmd_kernels(args) -> int:
    from .greens import green_function, sample_pairs

    cfg = _load(args)
    res = harness.run_suite("kernels", cfg)
    out = _out_dir(args, cfg)
    harness.write_reports([res], out)
    # kernel table for external plotting: G and its first derivatives on a
    # small pair sample of each implemented case
    rows = []
    for kind, m in cfg["kernels"]["cases"]:
        dom, _ = harness._case_domain((kind, m))
        gf = green_function(dom, m)
        x, y = sample_pairs(dom, 64, cfg["seed"], min_sep=dom.diameter / 128)
        g = gf(x, y)
        dg = gf.derivative((1,) if dom.dim == 1 else (1, 0), x, y)
        rows += [(f"{kind}-m{m}", tuple(a), tuple(b), gi, dgi)
                 for a, b, gi, dgi in zip(x.tolist(), y.tolist(), g, dg)]
    harness._write_csv(os.path.join(out, "kernel_table.csv"),
                       ("case", "x", "y", "G", "dG_first_axis"), rows)
    print(f"kernels: {res.verdict}")
    return _EXIT_PASS if res.passed else _EXIT_FAIL


def cmd_operators(args) -> int:
    cfg = _load(args)
    sec = cfg["operators"]
    dom = harness._domain_from(sec["domain"], "operators.domain")
    m = sec["m"]
    n = sec["grid"] if args.grid is None else args.grid
    g = Grid(dom, n)
    rho = 0.5 * dom.diameter / 2 if sec["bump_rho"] is None else sec["bump_rho"]
    bump, _, _ = polynomial_bump(harness._interior_center(dom), rho, dom.dim)
    f = SampledField(g, bump(g.nodes))
    radii = operator_radius_grid(g, sec["radius_points"])
    cols = {"f": f.values, "Mf": maximal_field(g, [f.values], radii)[0]}
    status = _EXIT_PASS
    if dom.dim == 2:
        alpha = tuple(sec["alpha"])
        kern = CZKernel(2, m, alpha)
        cols["Kstar"] = singular_field(g, [f.values], kern, radii)[0]
        # the identity is implemented for m = 1; beta is alpha less one unit
        ident = alpha if sum(alpha) == 2 else (2, 0)
        [rep] = singular_identity_check(f, [(ident, (1, 0) if ident[0] else (0, 1))])
        print(f"identity: fitted a={rep.fitted_a:.4f} (expected {rep.expected_a}), "
              f"max discrepancy {rep.max_discrepancy:.3e}")
        if rep.max_discrepancy > 0.02:
            status = _EXIT_FAIL
    out = _out_dir(args, cfg)
    _field_csv(os.path.join(out, "operators.csv"), g, cols)
    return status


def cmd_verify(args) -> int:
    cfg = _load(args)
    names = args.suite or sorted(harness.SUITES)
    try:
        results = harness.run_suites(names, cfg, jobs=args.jobs)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return _EXIT_CONFIG
    summary = harness.write_reports(results, _out_dir(args, cfg))
    width = max(len(s) for s in summary)
    for name in names:
        print(f"{name:<{width}}  {summary[name]['verdict']}")
    return _EXIT_PASS if all(r.passed for r in results) else _EXIT_FAIL


def cmd_report(args) -> int:
    cfg = _load(args)
    out = _out_dir(args, cfg)
    merged = {}
    for suite in sorted(harness.SUITES):
        path = os.path.join(out, f"{suite}.csv")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            rows = list(csv.reader(fh))
        merged[suite] = {"rows": len(rows) - 1, "columns": rows[0] if rows else []}
    spath = os.path.join(out, "summary.json")
    if os.path.exists(spath):
        with open(spath) as fh:
            merged["verdicts"] = {k: v["verdict"] for k, v in json.load(fh).items()}
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
    print(json.dumps(merged, indent=2, sort_keys=True))
    bad = [k for k, v in merged.get("verdicts", {}).items()
           if v not in ("PASS",)]
    return _EXIT_FAIL if bad else _EXIT_PASS


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help="JSON config (defaults to the shipped default)")
    common.add_argument("--grid", type=int, default=None, help="grid override")
    common.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None)
    parser = argparse.ArgumentParser(prog="morreylab")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "norm": cmd_norm,
        "weight": cmd_weight,
        "condition": cmd_condition,
        "hardy": cmd_hardy,
        "solve": cmd_solve,
        "kernels": cmd_kernels,
        "operators": cmd_operators,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    for name in handlers:
        sp = sub.add_parser(name, parents=[common])
        if name == "verify":
            sp.add_argument("--suite", action="append", default=None,
                            help="suite name (repeatable); default: all")
    args = parser.parse_args(argv)
    try:
        return handlers[args.command](args)
    except harness.ConfigError as exc:
        print(exc, file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

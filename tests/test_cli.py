import ast
import csv
import json
import os

import numpy as np
import pytest

from morreylab.cli import _field_csv, main
from morreylab.geometry import Disk, Grid, Interval


def write_cfg(tmp_path, extra=None):
    cfg = {
        "seed": 3,
        "out": str(tmp_path / "out"),
        "ap": {"a": -1.0, "b": 1.0, "grids": [32, 64, 128], "p": 2.0,
               "centers_per_axis": 9},
        "identity": {"grid": 64, "radius": 2.0, "bump_rho": 1.0},
        "norm": {"domain": {"kind": "interval"}, "grid": 64, "p": 2.0,
                 "f": "const", "weight": {"kind": "constant", "c": 1.0},
                 "phi": {"kind": "inverse-weight-measure"}},
        "weight": {"domain": {"kind": "interval", "a": -1.0, "b": 1.0},
                   "grid": 64, "p": 2.0,
                   "spec": {"kind": "power", "center": [0.0], "gamma": 0.5}},
        "condition": {"domain": {"kind": "interval"}, "p": 2.0,
                      "weight": {"kind": "constant", "c": 1.0},
                      "phi1": {"kind": "power-law", "lam": 0.5}},
        "hardy": {"d": 1.0, "family": 20},
        "solve": {"domain": {"kind": "interval"}, "m": 1, "grid": 64,
                  "f": "const"},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["norm", "--config", str(tmp_path / "nope.json")]) == 2


def test_norm_prints_one(tmp_path, capsys):
    code = main(["norm", "--config", write_cfg(tmp_path)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert float(out) == pytest.approx(1.0, rel=1e-9)


def test_weight_subcommand(tmp_path, capsys):
    code = main(["weight", "--config", write_cfg(tmp_path)])
    assert code == 0
    assert "in-class" in capsys.readouterr().out
    rows = (tmp_path / "out" / "weight.csv").read_text().splitlines()
    assert rows[0].startswith("p,gamma,estimate")


def test_weight_leaves_the_ap_suite_table_to_report(tmp_path, capsys):
    # weight writes its own table; report merges the suite tables only
    cfgp = write_cfg(tmp_path)
    assert main(["verify", "--suite", "ap", "--jobs", "1", "--config", cfgp]) == 0
    suite_table = (tmp_path / "out" / "ap.csv").read_bytes()
    assert main(["weight", "--config", cfgp]) == 0
    assert (tmp_path / "out" / "ap.csv").read_bytes() == suite_table
    assert main(["report", "--config", cfgp]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(rep) == {"ap", "verdicts"}
    assert rep["ap"]["rows"] == len(suite_table.splitlines()) - 1 > 1


def test_condition_subcommand(tmp_path, capsys):
    code = main(["condition", "--config", write_cfg(tmp_path)])
    assert code == 0
    assert "fitted C" in capsys.readouterr().out


def test_hardy_subcommand(tmp_path, capsys):
    code = main(["hardy", "--config", write_cfg(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "B = " in out


def test_hardy_table_labels_every_step_apart(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, {"hardy": {"d": 1.0, "family": 50}})
    assert main(["hardy", "--config", cfgp]) == 0
    with open(tmp_path / "out" / "hardy.csv") as fh:
        labels = [row["g"] for row in csv.DictReader(fh)]
    assert len(labels) == len(set(labels)) == 50


def test_solve_subcommand(tmp_path, capsys):
    code = main(["solve", "--config", write_cfg(tmp_path)])
    assert code == 0
    body = (tmp_path / "out" / "solution.csv").read_text()
    assert body.splitlines()[0] == "x1,f,u0,u1,u2"


def test_verify_unknown_suite_exit_2(tmp_path, capsys):
    code = main(["verify", "--suite", "bogus", "--config", write_cfg(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "apriori" in err  # the message lists the valid suites


@pytest.mark.parametrize("cmd,extra,words", [
    ("norm", {"weight": {"kind": "bogus"}},
     ["unknown weight kind 'bogus'", "constant", "power"]),
    ("condition", {"phi1": {"kind": "bogus"}},
     ["unknown phi kind 'bogus'", "power-law", "inverse-weight-measure"]),
    ("solve", {"f": "bogus"}, ["unknown corpus field 'bogus'", "'const'"]),
    ("norm", {"domain": {"kind": "square"}},
     ["norm.domain.kind", "unknown domain kind 'square'", "interval", "disk"]),
])
def test_config_errors_exit_2_and_say_why(tmp_path, capsys, cmd, extra, words):
    cfg = json.loads(open(write_cfg(tmp_path)).read())
    cfg[cmd].update(extra)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([cmd, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    for word in words:
        assert word in err


@pytest.mark.parametrize("cfg,words", [
    ({"bogus": {}}, ["bogus: unknown section", "apriori"]),
    ({"apriori": {"grid": [64]}}, ["apriori.grid: unknown key", "grids"]),
    ({"apriori": {"grids": 64}}, ["apriori.grids: expected list, got number"]),
    ({"apriori": {"tolerance": True}}, ["apriori.tolerance: expected number, got bool"]),
    ({"seed": "7"}, ["seed: expected number, got string"]),
    ({"ap": []}, ["ap: expected object, got list"]),
    ({"norm": {"weight": "constant"}}, ["norm.weight: expected object, got string"]),
    # every suite's cases, before any suite runs
    ({"apriori": {"cases": [["square", 1]]}},
     ["apriori.cases[0].kind", "unknown domain kind 'square'"]),
    ({"kernels": {"cases": [["interval", 1], ["interval", 3]]}},
     ["kernels.cases[1]", "no Green function for interval m=3"]),
    ({"lemma24": {"cases": [["disk"]]}}, ["lemma24.cases[0]", "[kind, m]"]),
    ({"pointwise": {"cases": [["disk", 1.0]]}}, ["pointwise.cases[0]", "integer m"]),
    # keys whose null default the command derives
    ({"operators": {"bump_rho": "x"}},
     ["operators.bump_rho: expected null or number, got string"]),
    ({"condition": {"x": "abc"}}, ["condition.x: expected list or null, got string"]),
    ({"condition": {"phi2": 1.0}}, ["condition.phi2: expected null or object, got number"]),
    # keys inside the kind-tagged specs, in sections the command does not read
    ({"norm": {"weight": {"kind": "constant", "cc": 2.0}}},
     ["norm.weight.cc: unknown key for kind 'constant'", "kind, c"]),
    ({"norm": {"phi": {"kind": "power-law", "lamda": 0.3}}},
     ["norm.phi.lamda: unknown key for kind 'power-law'", "lam"]),
    ({"weight": {"spec": {"kind": "power", "gama": 0.5}}},
     ["weight.spec.gama: unknown key for kind 'power'", "center, gamma"]),
    ({"weight": {"spec": {"kind": "power", "gamma": 0.5}}},
     ["weight.spec.center: missing key for kind 'power'"]),
    ({"weight": {"spec": {"kind": "power", "center": ["0"], "gamma": 0.5}}},
     ["weight.spec.center[0]: expected number, got string"]),
    ({"norm": {"domain": {"kind": "disk", "center": [0.0]}}},
     ["norm.domain.center: expected 2 numbers, got 1"]),
    ({"operators": {"domain": {"kind": "disk", "radius": "2"}}},
     ["operators.domain.radius: expected number, got string"]),
    ({"solve": {"domain": {"kind": "interval", "a": 1.0, "b": 1.0}}},
     ["solve.domain.b: interval needs b > a"]),
    ({"condition": {"weight": {"kind": "constant", "c": 0.0}}},
     ["condition.weight.c: constant weight must be positive"]),
    ({"condition": {"phi2": {"kind": "weight-measure", "k": "0.5"}}},
     ["condition.phi2.k: expected number, got string"]),
    ({"norm": {"domain": {"radius": 1.0}}},
     ["norm.domain.kind: unknown domain kind None", "interval, disk"]),
    # a power weight's center against its section's domain
    ({"weight": {"spec": {"kind": "power", "center": [0.0, 0.0], "gamma": 0.5}}},
     ["weight.spec.center: expected 1 numbers for a 1D domain, got 2"]),
    ({"norm": {"domain": {"kind": "disk"},
               "weight": {"kind": "power", "center": [0.0], "gamma": 0.5}}},
     ["norm.weight.center: expected 2 numbers for a 2D domain, got 1"]),
    ({"condition": {"weight": {"kind": "power", "center": [0.5, 0.5], "gamma": 1.0}}},
     ["condition.weight.center: expected 1 numbers for a 1D domain, got 2"]),
    # a condition point against its section's domain
    ({"condition": {"x": [0.5, 0.5]}}, ["condition.x: point of dimension (2,) on a 1D domain"]),
    ({"condition": {"x": [None]}}, ["condition.x[0]: expected number, got null"]),
    # the operators' order and, on the default disk, its CZ multi-index
    ({"operators": {"m": 2}}, ["operators.alpha", "sum 2m = 4"]),
    ({"operators": {"alpha": [2, 0, 1]}}, ["operators.alpha", "2 non-negative integers"]),
    ({"operators": {"alpha": [-1, 3]}}, ["operators.alpha", "2 non-negative integers"]),
    ({"operators": {"m": 3, "alpha": [6, 0]}},
     ["operators.m: no fundamental solution implemented"]),
    # exponents, counts and the solve order of the command sections
    ({"weight": {"p": 0.5}}, ["weight.p: invalid exponent 0.5"]),
    ({"norm": {"p": 0.5}}, ["norm.p: invalid exponent 0.5"]),
    ({"condition": {"p": 0.5}}, ["condition.p: invalid exponent 0.5"]),
    ({"solve": {"m": 3}}, ["solve.m: no Green function"]),
    ({"norm": {"centers": 1}}, ["norm.centers: expected a count >= 2, got 1"]),
    ({"norm": {"radii": 1}}, ["norm.radii: expected a count >= 2, got 1"]),
    ({"solve": {"grid": 1}}, ["solve.grid: expected a count >= 2, got 1"]),
    ({"operators": {"grid": 1}}, ["operators.grid: expected a count >= 2, got 1"]),
    ({"hardy": {"family": 0}}, ["hardy.family: expected a count >= 1, got 0"]),
    # the suite sections' grid lists, counts, exponents and tolerances, and
    # the seed
    ({"apriori": {"grids": [1, 2]}}, ["apriori.grids[0]: expected a count >= 2, got 1"]),
    ({"apriori": {"grids": []}}, ["apriori.grids: expected a non-empty list"]),
    ({"apriori": {"grids": [16, 24.5]}}, ["apriori.grids[1]: expected a count >= 2, got 24.5"]),
    ({"identity": {"grid": 16.0}}, ["identity.grid: expected a count >= 2, got 16.0"]),
    ({"marok1": {"grids": [64, "128"]}}, ["marok1.grids[1]: expected number, got string"]),
    ({"lemma22": {"grids_1d": [0]}}, ["lemma22.grids_1d[0]: expected a count >= 2, got 0"]),
    ({"pointwise": {"grids_2d": []}}, ["pointwise.grids_2d: expected a non-empty list"]),
    ({"apriori": {"ps_2d": [0.5]}}, ["apriori.ps_2d[0]: invalid exponent 0.5; need p >= 1"]),
    ({"boundedness": {"ps_1d": []}}, ["boundedness.ps_1d: expected a non-empty list"]),
    ({"lemma24": {"p": 0.9}}, ["lemma24.p: invalid exponent 0.9; need p >= 1"]),
    ({"apriori": {"tolerance": -1.0}}, ["apriori.tolerance: expected a tolerance > 0, got -1.0"]),
    ({"kernels": {"tolerance": 0}}, ["kernels.tolerance: expected a tolerance > 0, got 0"]),
    ({"apriori": {"n_random": -1}}, ["apriori.n_random: expected a count >= 0, got -1"]),
    ({"lemma24": {"corpus_2d": 0}}, ["lemma24.corpus_2d: expected a count >= 1, got 0"]),
    ({"lemma22": {"pairs": 0}}, ["lemma22.pairs: expected a count >= 1, got 0"]),
    ({"kernels": {"pair_counts": [1000, 0]}},
     ["kernels.pair_counts[1]: expected a count >= 1, got 0"]),
    ({"seed": -1}, ["seed: expected a non-negative integer, got -1"]),
    ({"seed": 7.5}, ["seed: expected a non-negative integer, got 7.5"]),
    # phi parameters against their class's range
    ({"norm": {"phi": {"kind": "power-law", "lam": 2001}}},
     ["norm.phi.lam: expected 0 < lam < 1 on a 1D domain, got 2001"]),
    ({"norm": {"phi": {"kind": "weight-measure", "k": 5}}},
     ["norm.phi.k: expected 0 <= k < 1, got 5"]),
    ({"condition": {"phi1": {"kind": "power-law", "lam": 0.0}}},
     ["condition.phi1.lam: expected 0 < lam < 1"]),
    ({"condition": {"domain": {"kind": "disk"}, "phi2": {"kind": "power-law", "lam": 2.0}}},
     ["condition.phi2.lam: expected 0 < lam < 2 on a 2D domain, got 2.0"]),
    ({"condition": {"phi2": {"kind": "weight-measure", "k": -0.5}}},
     ["condition.phi2.k: expected 0 <= k < 1, got -0.5"]),
    # a null spec value only where the kind's default is null (lam)
    ({"norm": {"phi": {"kind": "weight-measure", "k": None}}},
     ["norm.phi.k: expected number, got null"]),
    # every other number through its _RANGES entry, in any section
    ({"ap": {"centers_per_axis": 1}}, ["ap.centers_per_axis: expected a count >= 2, got 1"]),
    ({"operators": {"radius_points": 1}},
     ["operators.radius_points: expected a count >= 2, got 1"]),
    ({"identity": {"radius": -1}}, ["identity.radius: expected a number > 0, got -1"]),
    ({"identity": {"bump_rho": 0}}, ["identity.bump_rho: expected a number > 0, got 0"]),
    ({"identity": {"bump_rho": -1}}, ["identity.bump_rho: expected a number > 0, got -1"]),
    ({"operators": {"bump_rho": 0}}, ["operators.bump_rho: expected a number > 0, got 0"]),
    ({"hardy": {"d": 0}}, ["hardy.d: expected a number > 0, got 0"]),
    ({"condition": {"r_min": 0}}, ["condition.r_min: expected a number > 0, got 0"]),
    ({"boundedness": {"control_growth": -1}},
     ["boundedness.control_growth: expected a growth > 1, got -1"]),
    ({"boundedness": {"control_growth": 1}},
     ["boundedness.control_growth: expected a growth > 1, got 1"]),
    ({"apriori": {"lams": [1.5]}},
     ["apriori.lams[0]: expected 0 < lam < 1 (a fraction of n), got 1.5"]),
    ({"boundedness": {"lams": ["x"]}}, ["boundedness.lams[0]: expected number, got string"]),
    ({"apriori": {"ks": []}}, ["apriori.ks: expected a non-empty list"]),
    ({"boundedness": {"ks": [0.3, 1.0]}}, ["boundedness.ks[1]: expected 0 <= k < 1, got 1.0"]),
    # the two checks across keys
    ({"ap": {"a": 1.0, "b": -1.0}}, ["ap.b: interval needs b > a"]),
    ({"condition": {"upper_mult": 0.5}},
     ["condition.upper_mult: expected a number > r_max = 0.9, got 0.5"]),
    ({"condition": {"r_min": 0.95}},
     ["condition.r_max: expected a number > r_min = 0.95, got 0.9"]),
    # |x|^0.5 leaves A_p at p = 1.5
    ({"ap": {"p": 1.5}}, ["ap.p: expected a number > 1.5, got 1.5"]),
])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, cfg, words):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--suite", "ap", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(words[0])
    for word in words:
        assert word in err


@pytest.mark.parametrize("cmd,grid", [("solve", "1"), ("operators", "1"), ("solve", "0")])
def test_grid_flag_below_two_exits_2(tmp_path, capsys, cmd, grid):
    assert main([cmd, "--grid", grid, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"--grid: expected a count >= 2, got {grid}")


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    assert main(["verify", "--suite", "ap", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("--seed: expected a non-negative integer, got -1")


def test_kernel_table_lists_the_suite_cases(tmp_path, capsys):
    # a partial kernels section: the suite and the table both take the
    # shipped cases
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"kernels": {"pair_counts": [40, 80], "grids": [32]}}))
    main(["kernels", "--config", str(path), "--out", str(tmp_path / "out")])
    with open(tmp_path / "out" / "kernel_table.csv") as fh:
        cases = {row["case"] for row in csv.DictReader(fh)}
    assert cases == {"interval-m1", "interval-m2", "disk-m1", "disk-m2"}


def test_kernel_table_points_are_plain_floats(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"kernels": {"pair_counts": [40, 80], "grids": [32]}}))
    main(["kernels", "--config", str(path), "--out", str(tmp_path / "out")])
    with open(tmp_path / "out" / "kernel_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for cell in (row["x"], row["y"]):
            point = ast.literal_eval(cell)
            assert isinstance(point, tuple) and len(point) in (1, 2), cell
            assert all(type(v) is float for v in point), cell
            assert cell == str(point)


def test_verify_ap_suite_and_report(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    code = main(["verify", "--suite", "ap", "--jobs", "1", "--config", cfgp])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ap"]["verdict"] == "PASS"
    code = main(["report", "--config", cfgp])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"]["ap"] == "PASS"


def test_report_keeps_the_verdicts_of_earlier_verify_calls(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, {"kernels": {"pair_counts": [40, 80], "grids": [32]}})
    assert main(["verify", "--suite", "ap", "--jobs", "1", "--config", cfgp]) == 0
    capsys.readouterr()
    code = main(["verify", "--suite", "kernels", "--jobs", "1", "--config", cfgp])
    # verify prints and judges this call's suites only
    printed = capsys.readouterr().out.split()
    assert printed[0] == "kernels" and len(printed) == 2
    assert code == (0 if printed[1] == "PASS" else 1)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert {k: v["verdict"] for k, v in summary.items()} == {"ap": "PASS",
                                                           "kernels": printed[1]}
    main(["report", "--config", cfgp])
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["verdicts"] == {"ap": "PASS", "kernels": printed[1]}
    assert {"ap", "kernels"} <= set(rep)


def test_verify_deterministic_output(tmp_path):
    cfgp = write_cfg(tmp_path)
    main(["verify", "--suite", "ap", "--config", cfgp])
    first = (tmp_path / "out" / "ap.csv").read_bytes()
    main(["verify", "--suite", "ap", "--config", cfgp])
    assert (tmp_path / "out" / "ap.csv").read_bytes() == first


def test_out_env_fallback(tmp_path, monkeypatch, capsys):
    envdir = tmp_path / "envout"
    monkeypatch.setenv("MORREYLAB_OUT", str(envdir))
    cfg = {"seed": 3, "norm": {"domain": {"kind": "interval"}, "grid": 32,
                               "p": 2.0, "f": "const",
                               "weight": {"kind": "constant", "c": 1.0},
                               "phi": {"kind": "inverse-weight-measure"}}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["norm", "--config", str(path)]) == 0
    assert (envdir / "norm.csv").exists()


@pytest.mark.parametrize("grid", [Grid(Interval(0.0, 1.0), 5000),
                                  Grid(Disk((0.0, 0.0), 1.0), 12)])
def test_field_csv_matches_csv_writer(tmp_path, grid):
    vals = np.linspace(-3.0, 3.0, grid.n_cells) / 7.0
    vals[:6] = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324]
    cols = {"f": vals, "u00": vals[::-1] * 1e-7, "u10": np.arange(grid.n_cells) / 3.0}
    _field_csv(str(tmp_path / "got.csv"), grid, cols)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        wcsv = csv.writer(fh)
        wcsv.writerow([f"x{i + 1}" for i in range(grid.dim)] + list(cols))
        for i in range(grid.n_cells):
            wcsv.writerow([format(v, ".17g") for v in grid.nodes[i]]
                          + [format(c[i], ".17g") for c in cols.values()])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("alpha", [[2, 0], [1, 1], [0, 2]])
def test_operators_runs_every_m1_kernel(tmp_path, capsys, alpha):
    # the identity check's beta is alpha less one unit coordinate
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({"operators": {"alpha": alpha}}))
    assert main(["operators", "--grid", "48", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert "identity: fitted a=" in capsys.readouterr().out

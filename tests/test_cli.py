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
    rows = (tmp_path / "out" / "ap.csv").read_text().splitlines()
    assert rows[0].startswith("p,gamma,estimate")


def test_condition_subcommand(tmp_path, capsys):
    code = main(["condition", "--config", write_cfg(tmp_path)])
    assert code == 0
    assert "fitted C" in capsys.readouterr().out


def test_hardy_subcommand(tmp_path, capsys):
    code = main(["hardy", "--config", write_cfg(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "B = " in out


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
])
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, cfg, words):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--suite", "ap", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    for word in words:
        assert word in err


def test_kernel_table_lists_the_suite_cases(tmp_path, capsys):
    # a partial kernels section: the suite and the table both take the
    # shipped cases
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"kernels": {"pair_counts": [40, 80], "grids": [32]}}))
    main(["kernels", "--config", str(path), "--out", str(tmp_path / "out")])
    with open(tmp_path / "out" / "kernel_table.csv") as fh:
        cases = {row["case"] for row in csv.DictReader(fh)}
    assert cases == {"interval-m1", "interval-m2", "disk-m1", "disk-m2"}


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

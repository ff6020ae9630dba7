import subprocess
import sys
from pathlib import Path

import numpy as np

from morreylab.cli import _field_csv
from morreylab.geometry import Grid, Interval
from morreylab.harness import SuiteResult, write_reports

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _write(out, ratio, verdict="PASS", flags="sup at f1", trend=(1.0, 2.0),
           notes=("n1",), plot_ratio=0.5):
    rows = [("s", "a", 1.0, 2.0, 0.5, 8, ""),
            ("s", "b", np.nan, np.nan, np.nan, 8, "skip"),
            ("s", "c", 3.0, 1.0, ratio, 8, flags)]
    write_reports([SuiteResult(suite="demo", verdict=verdict, fitted_constant=3.0,
                               tolerance=0.1, trend=[list(trend), [4.0]], rows=rows,
                               notes=list(notes),
                               plot_data=[(8.0, 0.25), (16.0, plot_ratio)])], str(out))


def _run(a, b, *extra):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b), *extra],
                          capture_output=True, text=True, timeout=60)


def test_compare_outputs(tmp_path):
    a, b, c, d = (tmp_path / n for n in "abcd")
    _write(a, 3.0)
    _write(b, 3.0 * (1 + 1e-14))
    _write(c, 3.0 * (1 + 1e-6))
    _write(d, 3.0, verdict="FAIL")
    same = _run(a, b)
    assert same.returncode == 0, same.stdout
    assert "demo.csv: 3 rows, verdict PASS, max rel diff" in same.stdout
    far = _run(a, c)
    assert far.returncode == 1
    assert "DIFFERS demo.csv" in far.stdout and "(row 3, ratio)" in far.stdout
    assert _run(a, c, "--rtol", "1e-5").returncode == 0
    verdict = _run(a, d)
    assert verdict.returncode == 1 and "verdict PASS != FAIL" in verdict.stdout


def test_compare_outputs_labels_summary_and_plot(tmp_path):
    base, same, label, trend, notes, plot = (tmp_path / n for n in
                                             ("base", "same", "label", "trend",
                                              "notes", "plot"))
    _write(base, 3.0)
    _write(same, 3.0, trend=(1.0, 2.0 * (1 + 1e-14)), plot_ratio=0.5 * (1 + 1e-14))
    _write(label, 3.0, flags="sup at f2")
    _write(trend, 3.0, trend=(1.0, 2.0 * (1 + 1e-6)))
    _write(notes, 3.0, notes=("n2",))
    _write(plot, 3.0, plot_ratio=0.5 * (1 + 1e-6))
    ok = _run(base, same)
    assert ok.returncode == 0, ok.stdout
    assert "demo summary: max rel diff" in ok.stdout
    assert "demo_plot.csv: 2 rows, max rel diff" in ok.stdout
    # a row labelled differently: the exact columns, whatever the rtol
    got = _run(base, label, "--rtol", "1")
    assert got.returncode == 1
    assert "row 3, flags: 'sup at f1' != 'sup at f2'" in got.stdout
    got = _run(base, trend)
    assert got.returncode == 1 and "N-trend[0][1]" in got.stdout
    assert _run(base, trend, "--rtol", "1e-5").returncode == 0
    got = _run(base, notes, "--rtol", "1")
    assert got.returncode == 1 and "DIFFERS demo: notes" in got.stdout
    got = _run(base, plot)
    assert got.returncode == 1 and "DIFFERS demo_plot.csv" in got.stdout
    (plot / "demo_plot.csv").unlink()
    got = _run(base, plot)
    assert got.returncode == 1 and "demo_plot.csv: missing" in got.stdout


def _write_fields(out, u_scale=1.0, op_scale=1.0):
    g = Grid(Interval(0.0, 1.0), 8)
    x = g.nodes[:, 0]
    out.mkdir()
    _field_csv(str(out / "solution.csv"), g, {"f": np.ones(8), "u0": x * (1 - x) / 2 * u_scale})
    _field_csv(str(out / "operators.csv"), g, {"f": x, "Mf": (x + 1) * op_scale})


def test_compare_field_outputs(tmp_path):
    # solve and operators write no summary.json, only their field CSVs
    a, b, c, d = (tmp_path / n for n in "abcd")
    _write_fields(a)
    _write_fields(b, u_scale=1 + 1e-14)
    _write_fields(c, op_scale=1 + 1e-6)
    d.mkdir()
    same = _run(a, b)
    assert same.returncode == 0, same.stdout
    assert "solution.csv: 8 rows, max rel diff" in same.stdout
    assert "operators.csv: 8 rows, max rel diff 0" in same.stdout
    far = _run(a, c)
    assert far.returncode == 1
    assert "DIFFERS operators.csv" in far.stdout and ", Mf)" in far.stdout
    assert "DIFFERS solution.csv" not in far.stdout
    missing = _run(a, d)
    assert missing.returncode == 1 and "solution.csv: missing" in missing.stdout


def test_compare_outputs_scales_by_the_column_max(tmp_path):
    # a near-zero cell differs by a third of itself, by 6e-18 of its column
    g = Grid(Interval(0.0, 1.0), 8)
    a, b = tmp_path / "a", tmp_path / "b"
    for out, tiny in ((a, 1e-16), (b, 1.5e-16)):
        out.mkdir()
        mf = np.arange(1.0, 9.0)
        mf[0] = tiny
        _field_csv(str(out / "operators.csv"), g, {"f": np.ones(8), "Mf": mf})
    got = _run(a, b)
    assert got.returncode == 1
    assert ("operators.csv: 8 rows, max rel diff 0.333 (row 1, Mf), "
            "max diff over column max 6.25e-18 (Mf)") in got.stdout
    assert _run(a, b, "--rtol", "0.34").returncode == 0


def test_compare_file_reports_one_file(tmp_path):
    # the lines scripts/same_outputs.py prints under a differing file; a
    # command's table is compared on its numeric columns, its labels exactly
    import importlib.util

    from morreylab.harness import _write_csv

    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    a, b = tmp_path / "a", tmp_path / "b"
    for out, ratio, label in ((a, 3.0, "step1"), (b, 3.0 * (1 + 1e-6), "step2")):
        _write(out, ratio)
        _write_csv(str(out / "hardy.csv"), ("g", "lhs", "ratio", "holds"),
                   [(label, 1.0, ratio, True)])
    demo = mod.compare_file(a, b, "demo.csv")
    assert demo[0].startswith("demo.csv: 3 rows, verdict PASS, max rel diff 1e-06")
    assert demo[1] == "DIFFERS demo.csv: max rel diff 1e-06 (row 3, ratio) > 1e-12"
    assert mod.compare_file(a, b, "summary.json") == [
        "demo summary: max rel diff 0 (fittedConstant)"]
    hardy = mod.compare_file(a, b, "hardy.csv")
    assert hardy[0] == ("hardy.csv: 1 rows, max rel diff 1e-06 (row 1, ratio), "
                        "max diff over column max 1e-06 (ratio)")
    assert "row 1, g: 'step1' != 'step2'" in hardy[1]

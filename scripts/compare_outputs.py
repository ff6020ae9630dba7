#!/usr/bin/env python3
"""Compare the outputs of two morreylab `--out` directories.

    python scripts/compare_outputs.py DIR_A DIR_B [--rtol 1e-12]

For every suite in either summary.json, when there is one, it compares
the verdict and the notes exactly, and the fittedConstant and every number
of the N-trend at the tolerance.  In the suite's CSV it compares the suite,
case, n and flags columns exactly and the lhs, rhs and ratio columns at the
tolerance, row by row; the suite's plot CSV, when either side has one,
every column at the tolerance.  When DIR_A has the field output of `solve`
(solution.csv) or of `operators` (operators.csv), it compares every column
of it at the tolerance.  It prints, for each file, the largest relative
difference, |a - b| / max(|a|, |b|), and the largest |a - b| over its
column's largest magnitude on either side (the scale of
benchmark/check.py's floor, which a near-zero cell does not inflate).
NaN matches only NaN.  Exits 1 when a verdict, a note, a file, a column
list, a row count, an exact column or a value differs, 0 otherwise.

`compare_file` gives the lines of one file, and reads a CSV that the
comparison above leaves out (a command's table) too: its numeric columns at
the tolerance, the others exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

COLUMNS = ("lhs", "rhs", "ratio")
EXACT_COLUMNS = ("suite", "case", "n", "flags")
FIELD_FILES = ("solution.csv", "operators.csv")


def rel_diff(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def column_diff(col_a: list[float], col_b: list[float]) -> float:
    """max |a - b| over the column's largest magnitude on either side."""
    scale = max((abs(v) for v in col_a + col_b if not math.isnan(v)), default=0.0)
    worst = 0.0
    for a, b in zip(col_a, col_b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if math.isnan(a) or math.isnan(b):
            return math.inf
        worst = max(worst, abs(a - b) / scale)
    return worst


def _rows(path: str, columns, exact=()) -> tuple[list[str], list[list[float]], list]:
    """(columns, rows of floats, rows of the exact columns) of a CSV; every
    column as a float when `columns` is None."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns = list(reader.fieldnames if columns is None else columns)
        rows = list(reader)
    return (columns, [[float(r[c]) for c in columns] for r in rows],
            [[r.get(c) for c in exact] for r in rows])


def _summary(out_dir: str) -> dict:
    path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def _leaves(value, path: str) -> dict[str, float]:
    """Every number of a nested list, keyed by its index path."""
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in _leaves(item, f"{path}[{i}]").items()}
    return {path: float(value)}


def _compare_csv(dir_a: str, dir_b: str, name: str, columns, rtol: float,
                 lines: list[str], failures: list[str], note: str = "",
                 exact=()) -> None:
    if not os.path.exists(os.path.join(dir_b, name)):
        failures.append(f"{name}: missing in {dir_b}")
        return
    if not os.path.exists(os.path.join(dir_a, name)):
        failures.append(f"{name}: missing in {dir_a}")
        return
    cols_a, rows_a, text_a = _rows(os.path.join(dir_a, name), columns, exact)
    cols_b, rows_b, text_b = _rows(os.path.join(dir_b, name), columns, exact)
    if cols_a != cols_b:
        failures.append(f"{name}: columns {cols_a} != {cols_b}")
        return
    if len(rows_a) != len(rows_b):
        failures.append(f"{name}: {len(rows_a)} rows != {len(rows_b)}")
        return
    differ = [(i, col, a, b) for i, (ta, tb) in enumerate(zip(text_a, text_b))
              for col, a, b in zip(exact, ta, tb) if a != b]
    if differ:
        i, col, a, b = differ[0]
        failures.append(f"{name}: {len(differ)} exact values differ, first "
                        f"row {i + 1}, {col}: {a!r} != {b!r}")
    worst, where = 0.0, ""
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for col, a, b in zip(cols_a, ra, rb):
            d = rel_diff(a, b)
            if d > worst:
                worst, where = d, f" (row {i + 1}, {col})"
    col_worst, col_where = max(
        ((column_diff([r[j] for r in rows_a], [r[j] for r in rows_b]), col)
         for j, col in enumerate(cols_a)), default=(0.0, ""))
    lines.append(f"{name}: {len(rows_a)} rows{note}, max rel diff {worst:.3g}{where}, "
                 f"max diff over column max {col_worst:.3g}"
                 + (f" ({col_where})" if col_worst > 0 else ""))
    if worst > rtol:
        failures.append(f"{name}: max rel diff {worst:.3g}{where} > {rtol:g}")


def _compare_summary(suite: str, a: dict, b: dict, rtol: float,
                     lines: list[str], failures: list[str]) -> None:
    """The notes exactly; fittedConstant and the N-trend at rtol."""
    if a.get("notes") != b.get("notes"):
        failures.append(f"{suite}: notes {a.get('notes')} != {b.get('notes')}")
    leaves_a, leaves_b = (
        {**_leaves(entry["fittedConstant"], "fittedConstant"),
         **_leaves(entry["N-trend"], "N-trend")} for entry in (a, b))
    if leaves_a.keys() != leaves_b.keys():
        failures.append(f"{suite}: summary numbers {sorted(leaves_a)} != "
                        f"{sorted(leaves_b)}")
        return
    worst, where = max(((rel_diff(leaves_a[k], leaves_b[k]), k) for k in leaves_a),
                       default=(0.0, ""))
    lines.append(f"{suite} summary: max rel diff {worst:.3g} ({where})")
    if worst > rtol:
        failures.append(f"{suite} summary: {where} rel diff {worst:.3g} > {rtol:g}")


def compare(dir_a: str, dir_b: str, rtol: float) -> tuple[list[str], list[str]]:
    """(report lines, failures) for two output directories."""
    sum_a, sum_b = _summary(dir_a), _summary(dir_b)
    lines, failures = [], []
    for suite in sorted(set(sum_a) | set(sum_b)):
        va = sum_a.get(suite, {}).get("verdict")
        vb = sum_b.get(suite, {}).get("verdict")
        if va != vb:
            failures.append(f"{suite}: verdict {va} != {vb}")
            continue
        _compare_summary(suite, sum_a[suite], sum_b[suite], rtol, lines, failures)
        _compare_csv(dir_a, dir_b, f"{suite}.csv", COLUMNS, rtol, lines, failures,
                     f", verdict {va}", EXACT_COLUMNS)
        plot = f"{suite}_plot.csv"
        if any(os.path.exists(os.path.join(d, plot)) for d in (dir_a, dir_b)):
            _compare_csv(dir_a, dir_b, plot, None, rtol, lines, failures)
    for name in FIELD_FILES:
        if os.path.exists(os.path.join(dir_a, name)):
            _compare_csv(dir_a, dir_b, name, None, rtol, lines, failures)
    return lines, failures


def _is_number(text) -> bool:
    try:
        float(text)
    except (TypeError, ValueError):
        return False
    return True


def _numeric_columns(*paths: str) -> tuple[list[str], list[str]]:
    """(the columns every value of which is a number in every file, the rest)."""
    rows = []
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows += reader
    numeric = [c for c in reader.fieldnames if all(_is_number(r.get(c)) for r in rows)]
    return numeric, [c for c in reader.fieldnames if c not in numeric]


def compare_file(dir_a: str, dir_b: str, name: str, rtol: float = 1e-12) -> list[str]:
    """The report lines, then the failures (prefixed DIFFERS), that concern
    the file `name` of both directories: every suite's for summary.json, the
    file's own for a CSV.  A CSV that compare() does not read (a command's
    table) is compared on its numeric columns at rtol, the rest exactly."""
    lines, failures = compare(dir_a, dir_b, rtol)

    def mine(line):
        head = line.split(":", 1)[0]
        return head == name if name.endswith(".csv") else not head.endswith(".csv")

    lines, failures = [s for s in lines if mine(s)], [s for s in failures if mine(s)]
    if name.endswith(".csv") and not lines + failures:
        numeric, text = _numeric_columns(os.path.join(dir_a, name), os.path.join(dir_b, name))
        _compare_csv(dir_a, dir_b, name, numeric, rtol, lines, failures, exact=text)
    return lines + [f"DIFFERS {line}" for line in failures]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    ap.add_argument("--rtol", type=float, default=1e-12)
    args = ap.parse_args(argv)
    lines, failures = compare(args.dir_a, args.dir_b, args.rtol)
    for line in lines:
        print(line)
    for line in failures:
        print(f"DIFFERS {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

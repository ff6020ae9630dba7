#!/usr/bin/env python3
"""Compare the outputs of two `morreylab verify --out` directories.

    python scripts/compare_outputs.py DIR_A DIR_B [--rtol 1e-12]

For every suite in DIR_A's summary.json it compares the verdict, and the
lhs, rhs and ratio columns of the suite's CSV row by row, and prints the
largest relative difference, |a - b| / max(|a|, |b|), for each file.  NaN
matches only NaN.  Exits 1 when a verdict, a row count or a value differs
by more than the tolerance, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

COLUMNS = ("lhs", "rhs", "ratio")


def rel_diff(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _rows(path: str) -> list[list[float]]:
    with open(path, newline="") as fh:
        return [[float(r[c]) for c in COLUMNS] for r in csv.DictReader(fh)]


def compare(dir_a: str, dir_b: str, rtol: float) -> tuple[list[str], list[str]]:
    """(report lines, failures) for two verify output directories."""
    with open(os.path.join(dir_a, "summary.json")) as fh:
        sum_a = json.load(fh)
    with open(os.path.join(dir_b, "summary.json")) as fh:
        sum_b = json.load(fh)
    lines, failures = [], []
    for suite in sorted(set(sum_a) | set(sum_b)):
        va = sum_a.get(suite, {}).get("verdict")
        vb = sum_b.get(suite, {}).get("verdict")
        if va != vb:
            failures.append(f"{suite}: verdict {va} != {vb}")
            continue
        name = f"{suite}.csv"
        rows_a = _rows(os.path.join(dir_a, name))
        rows_b = _rows(os.path.join(dir_b, name))
        if len(rows_a) != len(rows_b):
            failures.append(f"{name}: {len(rows_a)} rows != {len(rows_b)}")
            continue
        worst, where = 0.0, ""
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            for col, a, b in zip(COLUMNS, ra, rb):
                d = rel_diff(a, b)
                if d > worst:
                    worst, where = d, f" (row {i + 1}, {col})"
        lines.append(f"{name}: {len(rows_a)} rows, verdict {va}, "
                     f"max rel diff {worst:.3g}{where}")
        if worst > rtol:
            failures.append(f"{name}: max rel diff {worst:.3g}{where} > {rtol:g}")
    return lines, failures


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

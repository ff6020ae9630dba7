"""Correctness checks of a workload's outputs against committed references.

`capture` reduces one pass's output directories to what is compared:
exit codes, suite verdicts, the (lhs, rhs, ratio) of every suite CSV row
and every column of ``solution.csv`` and ``operators.csv``.  `compare`
counts one check per exit code, per verdict, per row and per column; each
one that differs is one failed check.  Every row value and every column
value must match its reference to 1e-9 relative; in a column, magnitudes
below 1e-3 of the column's largest are taken as that floor, so that a
value that should be 0 may carry rounding.  Rows and columns are compared
only at a seed that has its own reference (``refs/<workload>.seed<N>.json``
and, for the columns, ``.npz``); at any other seed the verdicts and exit
codes are checked against the seed-7 reference.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

RTOL = 1e-9
FIELD_FLOOR = 1e-3
FIELD_FILES = ("solution.csv", "operators.csv")
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
BASE_SEED = 7


def _num(text: str):
    v = float(text)
    return None if math.isnan(v) else v


def capture(exit_codes, out_dirs) -> dict:
    got = {"exit_codes": list(exit_codes), "verdicts": {}, "rows": {}, "fields": {}}
    for i, out in enumerate(out_dirs):
        summary = os.path.join(out, "summary.json")
        if os.path.exists(summary):
            with open(summary) as fh:
                for suite, entry in json.load(fh).items():
                    got["verdicts"][f"{i}/{suite}"] = entry["verdict"]
                    with open(os.path.join(out, f"{suite}.csv"), newline="") as fh2:
                        rows = list(csv.DictReader(fh2))
                    got["rows"][f"{i}/{suite}.csv"] = [
                        [_num(r["lhs"]), _num(r["rhs"]), _num(r["ratio"])] for r in rows]
        for name in FIELD_FILES:
            path = os.path.join(out, name)
            if not os.path.exists(path):
                continue
            with open(path, newline="") as fh:
                header = next(csv.reader(fh))
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            for j, col in enumerate(header):
                got["fields"][f"{i}/{name}:{col}"] = data[:, j]
    return got


def _close(a, b) -> bool:
    """a and b agree to RTOL relative to their size; None (NaN) matches
    only None."""
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _column_ok(ref: np.ndarray, got: np.ndarray) -> bool:
    """Every value agrees to RTOL relative to its size, floored at
    FIELD_FLOOR of the column's largest magnitude; NaN matches only NaN."""
    if ref.shape != got.shape or not np.array_equal(np.isnan(ref), np.isnan(got)):
        return False
    ref, got = ref[~np.isnan(ref)], got[~np.isnan(got)]
    floor = FIELD_FLOOR * np.abs(ref).max(initial=0.0)
    scale = np.maximum(np.maximum(np.abs(ref), np.abs(got)), floor)
    return bool(np.all(np.abs(got - ref) <= RTOL * scale))


def compare(ref: dict, got: dict, full: bool) -> tuple[int, list[str]]:
    """(checks attempted, descriptions of the failed ones)."""
    attempted, failed = 0, []
    exp_codes = ref["exit_codes"]
    for i in range(max(len(exp_codes), len(got["exit_codes"]))):
        attempted += 1
        code = got["exit_codes"][i] if i < len(got["exit_codes"]) else None
        if code != 0:
            failed.append(f"call {i}: exit code {code}")
    for suite, verdict in ref["verdicts"].items():
        attempted += 1
        if got["verdicts"].get(suite) != verdict:
            failed.append(f"{suite}: verdict {got['verdicts'].get(suite)} != {verdict}")
    if not full:
        return attempted, failed
    attempted += 1
    if got.get("config_hash") != ref.get("config_hash"):
        failed.append("reference was made from another config")
    for fname, ref_rows in ref["rows"].items():
        got_rows = got["rows"].get(fname, [])
        for j in range(max(len(ref_rows), len(got_rows))):
            attempted += 1
            if j >= len(ref_rows) or j >= len(got_rows):
                failed.append(f"{fname} row {j}: missing or extra")
            elif not all(_close(g, r) for g, r in zip(got_rows[j], ref_rows[j])):
                failed.append(f"{fname} row {j}: {got_rows[j]} != {ref_rows[j]}")
    for key, column in ref["fields"].items():
        attempted += 1
        if key not in got["fields"] or not _column_ok(column, got["fields"][key]):
            failed.append(f"{key}: column differs")
    return attempted, failed


def ref_path(workload: str, seed: int, ext: str = "json") -> str:
    return os.path.join(REF_DIR, f"{workload}.seed{seed}.{ext}")


def write_reference(workload: str, seed: int, got: dict, config_hash: str) -> None:
    """Store a pass's capture as the seed's reference: the columns go to
    the .npz, everything else to the .json."""
    os.makedirs(REF_DIR, exist_ok=True)
    ref = {k: v for k, v in got.items() if k != "fields"}
    with open(ref_path(workload, seed), "w") as fh:
        json.dump(dict(ref, workload=workload, seed=seed, config_hash=config_hash),
                  fh, indent=1, sort_keys=True)
    npz = ref_path(workload, seed, "npz")
    if got["fields"]:
        np.savez_compressed(npz, **got["fields"])
    elif os.path.exists(npz):
        os.remove(npz)


def load_reference(workload: str, seed: int) -> tuple[dict, bool]:
    """(reference, full): the seed's own reference if committed, else the
    seed-7 one for verdicts and exit codes only."""
    path = ref_path(workload, seed)
    full = os.path.exists(path)
    if not full:
        seed = BASE_SEED
    with open(ref_path(workload, seed)) as fh:
        ref = json.load(fh)
    ref["fields"] = {}
    npz = ref_path(workload, seed, "npz")
    if os.path.exists(npz):
        with np.load(npz) as data:
            ref["fields"] = {k: data[k] for k in data.files}
    return ref, full

#!/usr/bin/env python3
"""Run default suites one fresh interpreter each and print their peaks.

    python scripts/suite_peaks.py SUITE... [--tree DIR]

Each suite runs through ``harness.run_suite`` at the tree's shipped
``default.json``, in its own interpreter with DIR/src first on the path and
OMP_NUM_THREADS = OPENBLAS_NUM_THREADS = 2.  One line per suite gives its
verdict, its fitted constant (repr, so every digit shows), the wall time of
``run_suite`` and the interpreter's peak RSS (``ru_maxrss``).  DIR defaults
to the tree that holds this script.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

THREADS = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2"}


def run_one(tree: str, suite: str) -> dict:
    """Run `suite` of `tree` in this interpreter."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from morreylab import harness

    if not os.path.abspath(harness.__file__).startswith(tree + os.sep):
        sys.exit(f"morreylab imported from {harness.__file__}, not from {tree}")
    config = harness.default_config()
    start = time.perf_counter()
    result = harness.run_suite(suite, config)
    wall = time.perf_counter() - start
    return {"suite": suite, "verdict": result.verdict,
            "fitted_constant": repr(float(result.fitted_constant)), "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("suites", nargs="+", metavar="SUITE")
    ap.add_argument("--tree", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="source tree to run (default: this script's tree)")
    ap.add_argument("--run-one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if args.run_one:
        print(json.dumps(run_one(tree, args.suites[0])))
        return 0
    env = {**os.environ, **THREADS, "PYTHONPATH": os.path.join(tree, "src")}
    print(f"{'suite':<12} {'verdict':<9} {'fitted constant':<22} {'wall s':>8} {'peak MB':>8}")
    for suite in args.suites:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--run-one",
                              "--tree", tree, suite],
                             env=env, check=True, capture_output=True, text=True).stdout
        r = json.loads(out.strip().splitlines()[-1])
        print(f"{r['suite']:<12} {r['verdict']:<9} {r['fitted_constant']:<22} "
              f"{r['wall_s']:>8.3f} {r['peak_rss_mb']:>8.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

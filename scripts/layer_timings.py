#!/usr/bin/env python3
"""Time the kernels the suites spend their time in, one fresh interpreter
each, at fixed sizes.

    python scripts/layer_timings.py [--tree DIR] [KERNEL...]

Each kernel runs in its own interpreter with DIR/src first on the path and
OMP_NUM_THREADS = OPENBLAS_NUM_THREADS = 2, as ``scripts/suite_peaks.py``
runs suites.  Its inputs are built first; the kernel call then runs
REPEATS times and its fastest wall time is printed, one line per kernel.
With no KERNEL, every kernel runs.  DIR defaults to the tree that holds
this script.  The kernels:

    offdiag-disk-m1-48   lemma22's off-diagonal sums, disk m=1, N=48
    offdiag-disk-m2-24   the same on disk m=2, N=24
    pairwise-disk-m2-40  the disk m=2 solver's pairwise sums, N=40, one RHS
    field-csv-disk-256   cli._field_csv of a disk N=256 solve's 7 columns
    maximal-field        maximal_field of 8 rows, disk N=96
    singular-field       singular_field of 8 rows, disk N=96
    solve-disk-m1-128    solve_dirichlet_many, disk m=1, N=128, 22 RHS
    morrey-norm          MorreyEvaluator.norm of that solve's a priori stack
    condition-213        condition_213 on the disk, power weight, cold
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

THREADS = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2"}
REPEATS = 5


def _disk(n: int, m: int = 1):
    from morreylab import harness
    from morreylab.geometry import Grid

    dom, _ = harness._case_domain(("disk", m))
    return dom, Grid(dom, n)


def _offdiag(m: int, n: int):
    from morreylab import harness
    from morreylab.corpus import build_corpus
    from morreylab.greens import green_function
    from morreylab.spaces import multi_indices

    dom, g = _disk(n, m)
    gf = green_function(dom, m)
    alphas = [a for a in multi_indices(2, 2 * m) if sum(a) == 2 * m]
    F = np.column_stack([np.abs(f.values) for _, f in build_corpus(g, seed=7, n_random=2)[:5]])
    return lambda: harness._offdiagonal_region_sums(g, gf, alphas, F, F)


def _pairwise():
    from morreylab.corpus import build_corpus
    from morreylab.solver import _pairwise_values

    _, g = _disk(40, 2)
    F = build_corpus(g, seed=7, n_random=0)[0][1].values[:, None]
    return lambda: _pairwise_values(g, 2, F)


def _field_csv():
    from morreylab.cli import _field_csv

    _, g = _disk(256)
    rng = np.random.default_rng(7)
    cols = {f"c{i}": rng.standard_normal(g.n_cells) for i in range(7)}
    out = tempfile.TemporaryDirectory()  # removed at exit

    def run():
        _field_csv(os.path.join(out.name, "solution.csv"), g, cols)
    return run


def _operator(singular: bool):
    from morreylab import harness
    from morreylab.corpus import build_corpus
    from morreylab.operators import CZKernel, maximal_field, singular_field

    _, g = _disk(96)
    rows = np.stack([f.values for _, f in build_corpus(g, seed=7, n_random=3)[:8]])
    radii = harness._nested_operator_grid(g, 3)
    if singular:
        kern = CZKernel(2, 1, (2, 0))
        return lambda: singular_field(g, rows, kern, radii)
    return lambda: maximal_field(g, rows, radii)


def _solve_inputs():
    from morreylab.corpus import build_corpus

    dom, g = _disk(128)
    return dom, g, [f for _, f in build_corpus(g, seed=7, n_random=13)]


def _solve():
    from morreylab.solver import solve_dirichlet_many

    dom, _, fields = _solve_inputs()
    return lambda: solve_dirichlet_many(dom, 1, fields)


def _morrey_norm():
    from morreylab import harness
    from morreylab.geometry import nested_sweep
    from morreylab.solver import solve_dirichlet_many
    from morreylab.spaces import MorreyEvaluator

    dom, g, fields = _solve_inputs()
    jet = solve_dirichlet_many(dom, 1, fields)
    stack = ([f.values for f in fields]
             + [block[i] for i in range(len(fields)) for block in jet.values()])
    ev = MorreyEvaluator(g, nested_sweep(g, 5))
    _, w, _ = harness.default_weights(dom, 2.0)[0]
    phi = harness.default_phis(dom, 2.0, w)[0][1]
    # a new list each call, so the evaluator's inner-norm cache misses
    return lambda: ev.norm(list(stack), w, phi, 2.0)


def _condition():
    from morreylab import spaces
    from morreylab.spaces import PowerLawPhi, condition_213
    from morreylab.weights import PowerWeight

    dom, _ = _disk(8)
    w = PowerWeight(tuple(dom.center), 0.5)
    phi = PowerLawPhi(lam=1.0, p=2.0, n=2)
    r_grid = np.geomspace(0.02, 0.9, 8) * dom.diameter

    def run():
        spaces._ball_measures.cache_clear()  # cold, as at a suite's first call
        return condition_213(phi, phi, w, 2.0, dom.center, r_grid, 10.0 * dom.diameter)
    return run


KERNELS = {
    "offdiag-disk-m1-48": lambda: _offdiag(1, 48),
    "offdiag-disk-m2-24": lambda: _offdiag(2, 24),
    "pairwise-disk-m2-40": _pairwise,
    "field-csv-disk-256": _field_csv,
    "maximal-field": lambda: _operator(False),
    "singular-field": lambda: _operator(True),
    "solve-disk-m1-128": _solve,
    "morrey-norm": _morrey_norm,
    "condition-213": _condition,
}


def run_one(tree: str, kernel: str) -> dict:
    """Time `kernel` of `tree` in this interpreter."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from morreylab import harness

    if not os.path.abspath(harness.__file__).startswith(tree + os.sep):
        sys.exit(f"morreylab imported from {harness.__file__}, not from {tree}")
    call = KERNELS[kernel]()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return {"kernel": kernel, "min_s": min(times)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("kernels", nargs="*", metavar="KERNEL", help=f"of {', '.join(KERNELS)}")
    ap.add_argument("--tree", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="source tree to run (default: this script's tree)")
    ap.add_argument("--run-one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    unknown = [k for k in args.kernels if k not in KERNELS]
    if unknown:
        ap.error(f"unknown kernel {unknown[0]!r}; valid: {', '.join(KERNELS)}")
    tree = os.path.abspath(args.tree)
    if args.run_one:
        print(json.dumps(run_one(tree, args.kernels[0])))
        return 0
    env = {**os.environ, **THREADS, "PYTHONPATH": os.path.join(tree, "src")}
    print(f"{'kernel':<20} {'min s':>8}")
    for kernel in args.kernels or KERNELS:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--run-one",
                              "--tree", tree, kernel],
                             env=env, check=True, capture_output=True, text=True).stdout
        r = json.loads(out.strip().splitlines()[-1])
        print(f"{r['kernel']:<20} {r['min_s']:>8.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

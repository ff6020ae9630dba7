#!/usr/bin/env python3
"""Run the same morreylab calls on two source trees and compare every byte.

    python scripts/same_outputs.py OLD_TREE NEW_TREE [--work DIR]

Each tree runs in a fresh interpreter with its own ``src`` first on the
path and OMP_NUM_THREADS = OPENBLAS_NUM_THREADS = 2.  The calls, each in
its own directory under WORK/<old|new>/:

- bench/<workload>/seed<s>/<i>: every call of the tree's
  ``benchmark/workloads.py`` at seeds 7 and 11;
- verify/<suite>: ``verify --suite <suite>`` of every suite at
  ``tests/test_harness.py::tiny_config`` (seed 7);
- defaults/<command>: norm, weight, condition, hardy and kernels at the
  shipped default config; ``report`` then runs over defaults/kernels.

Every call runs with ``--jobs 1`` and leaves ``stdout.txt`` and
``exit_code.txt`` (``report.stdout.txt``/``report.exit_code.txt`` for the
report call) next to its outputs.  The script prints the path of every
file that differs or exists on one side only, and exits 1 when there is
one, 0 otherwise.  Under a differing CSV or summary.json it prints the
largest relative and column-scaled differences that
``scripts/compare_outputs.py`` reports for that file at rtol 1e-12.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout

SEEDS = (7, 11)
THREADS = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2"}


def _module(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _calls(tree: str) -> list[tuple[str, list, dict | None]]:
    """(directory, argv, config or None for the shipped default) of every
    call, in run order."""
    from morreylab import harness

    with open(os.path.join(tree, "src", "morreylab", "data", "default.json")) as fh:
        shipped = json.load(fh)
    workloads = _module(os.path.join(tree, "benchmark", "workloads.py"), "workloads")
    out = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, (argv, cfg) in enumerate(workloads.calls(name, seed, shipped)):
                out.append((os.path.join("bench", name, f"seed{seed}", str(i)), argv, cfg))
    sys.path.insert(0, os.path.join(tree, "tests"))
    test_harness = _module(os.path.join(tree, "tests", "test_harness.py"), "test_harness")
    tiny = test_harness.tiny_config()
    for suite in sorted(harness.SUITES):
        out.append((os.path.join("verify", suite), ["verify", "--suite", suite], tiny))
    for command in ("norm", "weight", "condition", "hardy", "kernels"):
        out.append((os.path.join("defaults", command), [command], None))
    out.append((os.path.join("defaults", "kernels"), ["report"], None))
    return out


def run_tree(tree: str, work: str) -> None:
    """Every call of `tree`, in this interpreter, into `work`."""
    tree = os.path.abspath(tree)
    sys.path.insert(0, os.path.join(tree, "src"))
    from morreylab import cli

    if not os.path.abspath(cli.__file__).startswith(tree + os.sep):
        sys.exit(f"morreylab imported from {cli.__file__}, not from {tree}")
    for rel, argv, cfg in _calls(tree):
        out = os.path.join(work, rel)
        os.makedirs(out, exist_ok=True)
        full = argv + ["--jobs", "1", "--out", out]
        if cfg is not None:
            cfg_path = os.path.join(work, "configs", rel.replace(os.sep, "_") + ".json")
            os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            full += ["--config", cfg_path]
        captured = io.StringIO()
        with redirect_stdout(captured):
            code = cli.main(full)
        prefix = "report." if argv[0] == "report" else ""
        with open(os.path.join(out, prefix + "stdout.txt"), "w") as fh:
            fh.write(captured.getvalue())
        with open(os.path.join(out, prefix + "exit_code.txt"), "w") as fh:
            fh.write(f"{code}\n")


def _files(root: str) -> set[str]:
    """Every output path under root; the generated configs are inputs."""
    paths = {os.path.relpath(os.path.join(d, f), root)
             for d, _, names in os.walk(root) for f in names}
    return {p for p in paths if not p.startswith("configs" + os.sep)}


def differing(old: str, new: str) -> list[str]:
    """Paths (relative) that differ in bytes or exist on one side only."""
    a, b = _files(old), _files(new)
    out = []
    for rel in sorted(a | b):
        if rel not in a or rel not in b:
            out.append(f"{rel} (only in {'new' if rel in b else 'old'})")
        elif not filecmp.cmp(os.path.join(old, rel), os.path.join(new, rel), shallow=False):
            out.append(rel)
    return out


def _difference(work: str, rel: str) -> list[str]:
    """compare_outputs' lines for a differing CSV or summary.json; none for
    any other path (one that exists on one side only ends in its note)."""
    folder, name = os.path.split(rel)
    if not (name.endswith(".csv") or name == "summary.json"):
        return []
    compare_outputs = _module(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                           "compare_outputs.py"), "compare_outputs")
    return compare_outputs.compare_file(os.path.join(work, "old", folder),
                                        os.path.join(work, "new", folder), name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_tree")
    ap.add_argument("new_tree")
    ap.add_argument("--work", default=None,
                    help="directory for both trees' outputs (default: a new temporary one)")
    ap.add_argument("--run-tree", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_tree:
        run_tree(args.old_tree, args.new_tree)
        return 0
    work = args.work or tempfile.mkdtemp(prefix="same_outputs-")
    for side in ("old", "new"):
        if os.path.exists(os.path.join(work, side)):
            ap.error(f"{os.path.join(work, side)} exists; give an empty --work")
    env = {**os.environ, **THREADS}
    for side, tree in (("old", args.old_tree), ("new", args.new_tree)):
        env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--run-tree",
                        tree, os.path.join(work, side)], env=env, check=True)
    diffs = differing(os.path.join(work, "old"), os.path.join(work, "new"))
    for rel in diffs:
        print(rel)
        for line in _difference(work, rel):
            print(f"    {line}")
    compared = len(_files(os.path.join(work, "old")) | _files(os.path.join(work, "new")))
    print(f"# {len(diffs)} of {compared} paths differ (outputs under {work})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

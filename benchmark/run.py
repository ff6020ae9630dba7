"""morreylab benchmark: time-to-verdict of CLI workloads, with a traced
per-layer run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload NAME --seed N --write-refs

Run from the repository root.  Each pass starts a fresh interpreter
(`child.py`, ``PYTHONPATH=src``) that imports morreylab and drives
``cli.main`` with ``--jobs 1`` and a generated config; its outputs go to a
temporary directory under ``.bench_tmp/`` that is removed once they have
been checked.  Passes repeat for ``--seconds``, and the end-to-end
metrics are taken over them:

    wall_s       wall time from the first cli.main call to its last
                 return, fastest pass
    cpu_s        user + system CPU of the child over the same interval,
                 fastest pass
    peak_rss_mb  ru_maxrss of the child, median
    setup_s      import morreylab and load the config, median of the
                 set-up-only passes and the measured ones

wall_s and cpu_s are the fastest pass, not the median, because on a
shared host a pass runs 15 to 60% slower in phases of tens of seconds or
more, and the share of a run spent in them varies from run to run (see
README.md).

Passes run unpinned, with two BLAS threads.  With ``--trace 1`` the
passes are followed by one traced pass whose per-layer metrics are
reported instead (see `tracer.py`); its spans are written to
``.bench_spans/``.  Every printed line before the last is for people; the
last is one JSON object.  ``--write-refs`` runs one pass and stores its
outputs as the reference for that seed in ``refs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")
SPANS = os.path.join(ROOT, ".bench_spans")

# one set-up pass runs before each measured pass, so that set-up samples
# the same stretch of machine time as the passes; the time a further
# measured pass would not fit into is filled with more set-up passes
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
BLAS_THREADS = 2
# a traced pass takes longer than a plain one; leave room for it
TRACE_RESERVE = 1.5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# end-to-end metrics reported as the fastest pass; the others as the median
FASTEST = ("wall_s", "cpu_s")


class ChildFailed(RuntimeError):
    pass


# per-layer counts taken from array sizes or call arguments, not observed
COMPUTED = ("operators.fft.pad", "operators.spectra.bytes", "greens.kernel_pairs",
            "geometry.sweep_balls", "solver.solve.rhs.")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")) or ".s." in name or ".s_per_rhs." in name:
        return "s"
    if "ratio" in name or name.startswith("share.") or name == "trace.coverage":
        return "ratio"
    unit = "bytes" if name.endswith("bytes") else "count"
    return unit + ".computed" if name.startswith(COMPUTED) else unit


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("MORREYLAB_OUT", None)
    return env


def run_pass(calls, *, setup_only=False, trace=False, spans_path=None) -> dict:
    """One child process over the workload's calls; returns its report with
    the captured outputs under "capture"."""
    os.makedirs(TMP, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP)
    try:
        spec_calls = []
        for i, (argv, cfg) in enumerate(calls):
            cfg_path = os.path.join(tmp, f"config{i}.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            spec_calls.append([argv, cfg_path, os.path.join(tmp, f"out{i}")])
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump({"calls": spec_calls, "setup_only": setup_only,
                       "trace": trace,
                       "run_id": os.path.basename(tmp), "spans_path": spans_path}, fh)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=ROOT, env=_child_env(),
                capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"pass exceeded {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if not setup_only:
            report["capture"] = check.capture(report["exit_codes"],
                                              [c[2] for c in spec_calls])
        return report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP)
        except OSError:
            pass


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if (proc.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def _default_config() -> dict:
    with open(os.path.join(SRC, "morreylab", "data", "default.json")) as fh:
        return json.load(fh)


def write_refs(name: str, seed: int) -> int:
    calls = workloads.calls(name, seed, _default_config())
    chash = workloads.config_hash(calls)
    report = run_pass(calls)
    got = report["capture"]
    check.write_reference(name, seed, got, chash)
    print(f"wrote {check.ref_path(name, seed)}: exit codes {report['exit_codes']}, "
          f"verdicts {got['verdicts']}, {len(got['fields'])} field columns")
    return 0


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    calls = workloads.calls(name, seed, _default_config())
    chash = workloads.config_hash(calls)
    ref, full = check.load_reference(name, seed)
    deadline = time.perf_counter() + seconds

    setups, passes, traced = [], [], None
    while True:
        t = time.perf_counter()
        setups.append(run_pass(calls, setup_only=True)["setup_s"])
        passes.append(run_pass(calls))
        took = time.perf_counter() - t
        reserve = TRACE_RESERVE * took if trace else 0.0
        if time.perf_counter() + took + reserve > deadline:
            break
    while not trace:
        t = time.perf_counter()
        setups.append(run_pass(calls, setup_only=True)["setup_s"])
        now = time.perf_counter()
        if len(setups) >= MIN_SETUPS and now + (now - t) > deadline:
            break
    if trace:
        os.makedirs(SPANS, exist_ok=True)
        traced = run_pass(calls, trace=True,
                          spans_path=os.path.join(SPANS, f"{name}.seed{seed}.jsonl"))

    attempted, failures = 0, []
    for report in passes + ([traced] if traced else []):
        report["capture"]["config_hash"] = chash
        n, bad = check.compare(ref, report["capture"], full)
        attempted += n
        failures += bad
    for line in sorted(set(failures))[:20]:
        print(f"FAILED {line}")

    each = {k: [p[k] for p in passes] for k in END_TO_END}
    each["setup_s"] += setups
    value = {k: min(v) if k in FASTEST else statistics.median(v)
             for k, v in each.items()}
    print(f"# workload {name}  seed {seed}  passes {len(passes)}"
          f"{' + 1 traced' if traced else ''}  set-up passes {len(setups)}"
          f"  reference {'full' if full else 'verdicts and exit codes'}")
    for key, unit in END_TO_END.items():
        how = "fastest" if key in FASTEST else "median"
        print(f"{key:<16} {value[key]:>12.4f} {unit:<3} {how:<7} "
              f"(median {statistics.median(each[key]):.4g}) per pass "
              + " ".join(f"{v:.4g}" for v in each[key]))
    print(f"{'ops_failed_frac':<16} {len(failures) / attempted:>12.4f} ratio"
          f"  (ops_total {attempted})")
    metrics = {k: {"value": value[k], "unit": u} for k, u in END_TO_END.items()}
    if traced:
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(each["wall_s"])
        for key in sorted(layers):
            print(f"{key:<40} {layers[key]:>14.6g} {unit_of(key)}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    meta = {
        "workload": name, "seed": seed, "config_hash": chash,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": passes[0]["numpy"], "blas": passes[0]["blas"],
        "blas_threads": BLAS_THREADS, "git_revision": git_revision(),
        "passes": len(passes),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true",
                    help="store this seed's outputs as its reference")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "morreylab", "__init__.py")):
        print(f"no morreylab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.write_refs:
            return write_refs(args.workload, args.seed)
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around morreylab's entry points, installed from outside.

The program carries no timing hooks, so the traced run replaces the
bindings its callers look up with timing wrappers and puts the originals
back afterwards.  `harness` and `cli` import with ``from .operators import
maximal_field``; patching ``operators.maximal_field`` alone would time
nothing, so each wrapper goes on the module or class where the caller
resolves the name.

A span is ``[name, start, end, parent, attrs]``.  Spans live in memory
under one run id and are written out when the run ends.  A span's self
time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
import weakref

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, pre=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if name is None:
            def wrapper(*args, **kwargs):
                pre(*args, **kwargs)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                attrs = pre(*args, **kwargs) if pre else {}
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if post:
                    post(attrs, args, result)
                return result
        return functools.wraps(fn)(wrapper)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self._wrap(fn, name)(*args, **kwargs)

    def patch(self, owner, attr: str, name: str | None, pre=None, post=None):
        """Replace owner.attr with a wrapper that records a span called
        name (or, with name None, only runs the pre hook)."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, pre, post))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str):
        """Write the spans, one JSON list per line, under the run id."""
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([self.run_id, name, start, end, parent,
                                     {k: v for k, v in attrs.items()
                                      if isinstance(v, (int, float, str))}]) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    kids: list[list] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            kids[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), ch in zip(spans, kids):
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in ch]
        out.append((end - start) - _union([c for c in clipped if c[1] > c[0]]))
    return out


def covered(spans, names) -> float:
    """Wall time covered by spans whose name is in names (their children
    included)."""
    return _union([(s[1], s[2]) for s in spans if s[0] in names])


# ---------------------------------------------------------------------------
# the patch set


SOLVER_INSTANCES = ("interval-m1", "interval-m2", "disk-m1", "disk-m2")


def _instance(domain, m) -> str:
    return f"{type(domain).__name__.lower()}-m{m}"


class Probe:
    """Installs the wrappers on morreylab and reads its counters once the
    run ends."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.spectrum_lookups = 0
        self.spectrum_builds = 0
        self.fft_applies = 0
        self.pads: dict = {}
        self._convolvers = weakref.WeakSet()
        self._evaluators = weakref.WeakKeyDictionary()
        self._serials = itertools.count()

    # pre/post hooks --------------------------------------------------------

    def _spectrum(self, conv, key, build):
        self._convolvers.add(conv)
        self.pads[conv.grid.n] = conv.size
        self.spectrum_lookups += 1
        self.spectrum_builds += key not in conv._spectra

    def _apply(self, conv, fwd, key, build):
        self.fft_applies += 1

    @staticmethod
    def _solve_many(domain, m, fields):
        return {"instance": _instance(domain, m), "rhs": len(fields)}

    @staticmethod
    def _solve_one(domain, m, f):
        return {"instance": _instance(domain, m), "rhs": 1}

    def _norm_pre(self, ev, *args, **kwargs):
        serial = self._evaluators.get(ev)
        if serial is None:
            serial = self._evaluators[ev] = next(self._serials)
        return {"ev": serial, "before": len(ev._inner), "obj": ev}

    @staticmethod
    def _norm_post(attrs, args, result):
        ev = attrs.pop("obj")
        attrs["after"] = len(ev._inner)

    @staticmethod
    def _condition_pre(*args, **kwargs):
        return {"key": repr((args, sorted(kwargs.items())))}

    @staticmethod
    def _offdiag_pre(g, gf, alphas, F, MF):
        return {"pairs": g.n_cells ** 2 * len(alphas)}

    @staticmethod
    def _kernel_bounds_pre(domain, m, x, y, alphas):
        return {"pairs": len(x) * len(alphas)}

    @staticmethod
    def _sweep_pre(cache, grid, sweep):
        return {"balls": len(sweep)}

    @staticmethod
    def _corpus_post(attrs, args, result):
        attrs["fields"] = len(result)

    @staticmethod
    def _csv_post(attrs, args, result):
        attrs["bytes"] = os.path.getsize(args[0])

    def install(self, cli, harness, spaces, greens, operators):
        p = self.tracer.patch
        p(operators._Convolver, "spectrum", None, pre=self._spectrum)
        p(operators._Convolver, "apply", None, pre=self._apply)
        for mod in (harness, cli):
            p(mod, "maximal_field", "operators.maximal_field")
            p(mod, "singular_field", "operators.singular_field")
            p(mod, "build_corpus", "corpus.build", post=self._corpus_post)
        p(cli, "singular_identity_check", "operators.identity_check")
        p(harness, "solve_dirichlet_many", "solver.solve", pre=self._solve_many)
        p(cli, "solve_dirichlet", "solver.solve", pre=self._solve_one)
        p(harness, "condition_213", "spaces.condition_213", pre=self._condition_pre)
        p(spaces, "ball_measure", "weights.ball_measure")
        p(spaces.SweepCache, "prefix_sums", "spaces.prefix_sums")
        p(spaces.SweepCache, "__init__", "spaces.sweep_cache_build", pre=self._sweep_pre)
        p(harness, "verify_kernel_bounds", "greens.verify_kernel_bounds",
          pre=self._kernel_bounds_pre)
        p(harness, "sample_pairs", "greens.sample_pairs")
        p(greens.GreenFunction, "regular_derivative", "greens.regular_derivative")
        p(harness, "ap_constant", "weights.ap_constant")
        p(harness, "weight_cell_integrals", "weights.cell_integrals")
        p(harness, "_offdiagonal_region_sums", "harness.offdiag_sums",
          pre=self._offdiag_pre)
        p(harness, "write_reports", "harness.write_reports")
        p(harness.MorreyEvaluator, "norm", "harness.morrey_norm",
          pre=self._norm_pre, post=self._norm_post)
        p(cli, "_field_csv", "cli.field_csv", post=self._csv_post)

    def spectra_held(self) -> tuple[int, int]:
        """(spectra, bytes) held by the convolvers still alive."""
        count = nbytes = 0
        for conv in list(self._convolvers):
            count += len(conv._spectra)
            nbytes += sum(s.nbytes for s in conv._spectra.values())
        return count, nbytes


# ---------------------------------------------------------------------------
# per-layer metrics from a finished trace


# span names whose self time is reported as <name>.s and <name>.calls
SPAN_LAYERS = (
    "operators.maximal_field", "operators.singular_field",
    "operators.identity_check",
    "harness.morrey_norm", "harness.offdiag_sums", "harness.write_reports",
    "harness.suite_self",
    "spaces.condition_213", "spaces.prefix_sums", "spaces.sweep_cache_build",
    "weights.ball_measure", "weights.cell_integrals", "weights.ap_constant",
    "greens.regular_derivative", "greens.verify_kernel_bounds",
    "greens.sample_pairs",
    "corpus.build", "cli.field_csv", "cli.self",
)

# the catch-all spans around each cli.main call; their self time is what
# no named layer accounts for, so trace.coverage leaves it out
ROOTS = ("harness.suite_self", "cli.self")

# spans with enough calls for per-call percentiles on some workload
PERCALL_LAYERS = ("spaces.prefix_sums", "weights.ball_measure")

# groups whose covered wall time (children included) is reported as a share
SHARES = {
    "solver": ("solver.solve",),
    "operators": ("operators.maximal_field", "operators.singular_field",
                  "operators.identity_check"),
    "harness.morrey_norm": ("harness.morrey_norm",),
    "greens_offdiag": ("greens.regular_derivative", "greens.verify_kernel_bounds",
                       "greens.sample_pairs", "harness.offdiag_sums"),
}


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics (plain numbers) from the spans of one traced run."""
    selfs = self_times(spans)
    by_name: dict = {}
    for rec, st in zip(spans, selfs):
        by_name.setdefault(rec[0], []).append((rec, st))
    out: dict = {}
    for name in SPAN_LAYERS:
        recs = by_name.get(name, [])
        out[f"{name}.s"] = float(sum(st for _, st in recs))
        out[f"{name}.calls"] = len(recs)
    for name in PERCALL_LAYERS:
        durs = np.array([r[2] - r[1] for r, _ in by_name.get(name, [])])
        out[f"{name}.p50_ms"] = float(np.percentile(durs, 50) * 1e3) if len(durs) else 0.0
        out[f"{name}.p99_ms"] = float(np.percentile(durs, 99) * 1e3) if len(durs) else 0.0

    solves = by_name.get("solver.solve", [])
    for inst in SOLVER_INSTANCES:
        recs = [(r, st) for r, st in solves if r[4]["instance"] == inst]
        secs = float(sum(st for _, st in recs))
        rhs = sum(r[4]["rhs"] for r, _ in recs)
        out[f"solver.solve.s.{inst}"] = secs
        out[f"solver.solve.calls.{inst}"] = len(recs)
        out[f"solver.solve.rhs.{inst}"] = rhs
        out[f"solver.s_per_rhs.{inst}"] = secs / rhs if rhs else 0.0

    norms = [r[4] for r, _ in by_name.get("harness.morrey_norm", [])]
    hits = sum(a["after"] == a["before"] for a in norms)
    out["harness.morrey_inner.hit_ratio"] = hits / len(norms) if norms else 0.0
    final: dict = {}
    for a in norms:
        final[a["ev"]] = a["after"]
    out["harness.morrey_inner.entries"] = sum(final.values())

    conds = [r[4]["key"] for r, _ in by_name.get("spaces.condition_213", [])]
    out["spaces.condition_213.distinct_ratio"] = len(set(conds)) / len(conds) if conds else 0.0

    out["greens.kernel_pairs"] = sum(
        r[4]["pairs"] for name in ("harness.offdiag_sums", "greens.verify_kernel_bounds")
        for r, _ in by_name.get(name, []))
    out["corpus.build.fields"] = sum(r[4]["fields"] for r, _ in by_name.get("corpus.build", []))
    out["cli.field_csv.bytes"] = sum(r[4]["bytes"] for r, _ in by_name.get("cli.field_csv", []))
    out["geometry.sweep_balls"] = sum(
        r[4]["balls"] for r, _ in by_name.get("spaces.sweep_cache_build", []))

    groups: dict = {}
    for (name, *_), st in zip(spans, selfs):
        layer = name.split(".")[0]
        groups[layer] = groups.get(layer, 0.0) + st
    for layer in ("operators", "solver", "harness", "spaces", "weights", "greens",
                  "corpus", "cli"):
        out[f"layer.{layer}.s"] = float(groups.get(layer, 0.0))
    named = sum(st for rec, st in zip(spans, selfs) if rec[0] not in ROOTS)
    out["trace.coverage"] = float(named / wall_s) if wall_s > 0 else 0.0
    for share, names in SHARES.items():
        out[f"share.{share}"] = covered(spans, names) / wall_s if wall_s > 0 else 0.0
    return out

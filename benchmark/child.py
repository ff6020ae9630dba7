"""One measured pass over a workload, in a fresh interpreter.

    python3 benchmark/child.py SPEC.json

SPEC holds the calls (argv, config path, output directory) and whether to
trace.  The parent starts this with ``PYTHONPATH=src``, so process-level
caches are cold as in ``morreylab verify``.  The last line of standard
output is one JSON object with the measurements; the CLI's own output is
captured and passed along inside it.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import numpy as np
    from morreylab import cli, greens, harness, operators, spaces

    for _, cfg_path, _ in spec["calls"]:
        harness.load_config(cfg_path)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if spec.get("setup_only"):
        print(json.dumps(result))
        return 0

    tracer = probe = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"])
        probe = tracing.Probe(tracer)
        probe.install(cli, harness, spaces, greens, operators)

    captured = io.StringIO()
    codes = []
    cpu0 = _cpu()
    t1 = time.perf_counter()
    try:
        with redirect_stdout(captured):
            for argv, cfg_path, out in spec["calls"]:
                full = argv + ["--config", cfg_path, "--jobs", "1", "--out", out]
                if tracer is None:
                    codes.append(cli.main(full))
                else:
                    root = "harness.suite_self" if argv[0] == "verify" else "cli.self"
                    codes.append(tracer.call(root, cli.main, full))
        wall_s = time.perf_counter() - t1
        cpu_s = _cpu() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()

    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        exit_codes=codes,
        stdout=captured.getvalue(),
        numpy=np.__version__,
        blas=_blas_name(np),
    )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans, wall_s)
        held, held_bytes = probe.spectra_held()
        lookups = probe.spectrum_lookups
        layers.update({
            "operators.fft_apply.calls": probe.fft_applies,
            "operators.spectra.built": probe.spectrum_builds,
            "operators.spectra.hit_ratio":
                (lookups - probe.spectrum_builds) / lookups if lookups else 0.0,
            "operators.spectra.held": held,
            "operators.spectra.bytes": held_bytes,
            "operators.convolvers.cached": operators._convolver.cache_info().currsize,
            "operators.fft.pad": max(probe.pads.values(), default=0),
            "trace.spans": len(tracer.spans),
        })
        result["layers"] = layers
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    print(json.dumps(result))
    return 0


def _blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""The benchmark's workloads.

Each workload is a list of CLI calls.  A call is an argument list for
``morreylab.cli.main`` plus a patch over the shipped default config; the
workload seed becomes the config's ``seed``.  Sizes are chosen so that
one pass takes 7 to 20 s on a 2-core machine: a 60 s run then repeats it
three to seven times, and all the runs of a full benchmark fit in an hour.

`hardy` is reached by no suite; it is CLI-only and runs in well under a
second, so no workload measures it.  The ``--jobs 2`` process pool is not
measured either: every call runs with ``--jobs 1``.
"""

from __future__ import annotations

import copy
import hashlib
import json

WORKLOADS = {
    # the paper's main estimate (apriori: the batched disk m=1 solver and
    # the Morrey engine both carry the load), then boundedness (FFT fields
    # with a warm spectrum cache, no solver; where peak RSS builds up).
    # Boundedness needs three levels: with two the verdict is FAIL.  One
    # workload, not two: apart, each spread by up to 0.37 and 0.22 of its
    # median over ten 40 s runs on a shared 2-core host (see README.md).
    "apriori_boundedness": [
        (["verify", "--suite", "apriori", "--suite", "boundedness"],
         {"apriori": {"grids": [64, 128]}, "boundedness": {"grids": [32, 64, 128]}}),
    ],
    # the greens suites, then one right-hand side per grid with cold caches:
    # the workload without the Morrey engine.  lemma22, kernels and ap are
    # the only heavy users of greens and weights.ap_constant.  The kernels
    # suite runs without its disk m=2 case, whose verdict is FAIL at about
    # one seed in twelve (see README.md); a lemma22 call on the disk m=2
    # case takes its place as the path to DiskGreen2._h_deriv and
    # _h_unit_partials, and does not depend on the seed.  The solves cover
    # every solver instance and the CLI's field output.  One workload, not
    # two: the Green-kernel suites alone spread too much from run to run on
    # a shared 2-core host (see README.md).
    "kernels_cli": [
        (["verify", "--suite", "lemma22", "--suite", "kernels", "--suite", "ap"],
         {"lemma22": {"grids_2d": [24, 48]},
          "kernels": {"cases": [["interval", 1], ["interval", 2], ["disk", 1]]}}),
        (["verify", "--suite", "lemma22"],
         {"lemma22": {"cases": [["disk", 2]], "grids_2d": [12, 24]}}),
        (["solve", "--grid", "512"],
         {"solve": {"domain": {"kind": "interval"}, "m": 1, "f": "const"}}),
        (["solve", "--grid", "512"],
         {"solve": {"domain": {"kind": "interval"}, "m": 2, "f": "const"}}),
        (["solve", "--grid", "256"],
         {"solve": {"domain": {"kind": "disk"}, "m": 1, "f": "const"}}),
        (["solve", "--grid", "40"],
         {"solve": {"domain": {"kind": "disk"}, "m": 2, "f": "const"}}),
        (["operators", "--grid", "128"], {}),
    ],
}


def calls(name: str, seed: int, default_config: dict) -> list[tuple[list, dict]]:
    """(argv, config) for every call of a workload at a seed."""
    out = []
    for argv, patch in WORKLOADS[name]:
        cfg = copy.deepcopy(default_config)
        for section, values in patch.items():
            cfg.setdefault(section, {}).update(copy.deepcopy(values))
        cfg["seed"] = seed
        out.append((list(argv), cfg))
    return out


def config_hash(workload_calls) -> str:
    blob = json.dumps(workload_calls, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

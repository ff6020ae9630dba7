#!/usr/bin/env python3
"""Refinement study of the Dirichlet solver against the closed-form
solutions for constant data, printing max node errors and FD residuals per
grid level and writing solver_convergence.csv next to the other outputs."""

import csv
import os
import sys
import time

import numpy as np

from morreylab.geometry import Disk, Grid, Interval, SampledField
from morreylab.solver import residual_check, solve_dirichlet

CASES = [
    ("interval-m1", Interval(0.0, 1.0), 1,
     lambda x: x[:, 0] * (1 - x[:, 0]) / 2, (64, 128, 256, 512)),
    ("interval-m2", Interval(0.0, 1.0), 2,
     lambda x: x[:, 0] ** 2 * (1 - x[:, 0]) ** 2 / 24, (64, 128, 256, 512)),
    ("disk-m1", Disk((0.0, 0.0), 1.0), 1,
     lambda x: (1 - (x**2).sum(-1)) / 4, (64, 128, 256, 512)),
    ("disk-m2", Disk((0.0, 0.0), 1.0), 2,
     lambda x: (1 - (x**2).sum(-1)) ** 2 / 64, (32, 48, 64)),
]


def main() -> int:
    out = os.environ.get("MORREYLAB_OUT", "out")
    os.makedirs(out, exist_ok=True)
    rows = [("case", "n", "max_rel_err", "residual", "seconds")]
    for name, dom, m, exact, grids in CASES:
        for n in grids:
            g = Grid(dom, n)
            f = SampledField(g, np.ones(g.n_cells))
            t0 = time.time()
            u = solve_dirichlet(dom, m, f)[(0,) * dom.dim]
            dt = time.time() - t0
            want = exact(g.nodes)
            err = np.abs(u.values - want).max() / np.abs(want).max()
            resid = residual_check(m, u, f)
            print(f"{name:12s} N={n:4d}  rel err {err:.3e}  residual {resid:.3e}"
                  f"  ({dt:.1f}s)")
            rows.append((name, n, f"{err:.6e}", f"{resid:.6e}", f"{dt:.2f}"))
    with open(os.path.join(out, "solver_convergence.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())

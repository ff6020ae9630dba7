"""Test-function families for the verification suites.

Default corpus: constants, coordinate monomials, mollified ball indicators at
three positions, sine products, and seeded random trigonometric polynomials.
A singular power profile (the conjugate-exponent spike of an out-of-class
weight) is available for negative-control runs; fixed smooth corpora cannot
witness the failure of the A_p hypothesis, their norm ratios simply converge.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Domain, Grid, SampledField, distance

__all__ = ["build_corpus", "polynomial_bump", "smoothstep_indicator",
    "singular_profile"]


def smoothstep_indicator(center, rho: float):
    """Mollified indicator of B(center, rho): 1 inside the core, C^2
    smoothstep over the outer half of the radius."""
    c = np.asarray(center, dtype=float)

    def f(*coords):
        pts = np.stack(np.broadcast_arrays(*coords), axis=-1)
        d = distance(pts, c)
        t = np.clip((rho - d) / (0.5 * rho), 0.0, 1.0)
        return t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)

    return f


def polynomial_bump(center, rho: float, dim: int):
    """phi = (rho^2 - |z - c|^2)^6 / rho^12 inside B(c, rho) (peak value 1),
    with exact Laplacian and bi-Laplacian for reproduction checks of the
    solution kernels.  C^5 regularity keeps the bi-Laplacian continuous at
    the support edge, which midpoint quadrature needs.

    Radial calculus for g(s), s = |z|^2: Lap g = 2 n g' + 4 s g''.
    """
    c = np.asarray(center, dtype=float)
    n = dim
    scale = rho**12

    def _s(pts):
        return ((pts - c) ** 2).sum(-1)

    def phi(pts):
        s = _s(np.asarray(pts, dtype=float))
        return np.where(s < rho**2, (rho**2 - s) ** 6, 0.0) / scale

    def lap(pts):
        s = _s(np.asarray(pts, dtype=float))
        val = -12.0 * n * (rho**2 - s) ** 5 + 120.0 * s * (rho**2 - s) ** 4
        return np.where(s < rho**2, val, 0.0) / scale

    def bilap(pts):
        s = _s(np.asarray(pts, dtype=float))
        g2p = (60.0 * n + 120.0) * (rho**2 - s) ** 4 - 480.0 * s * (rho**2 - s) ** 3
        g2pp = -(240.0 * n + 960.0) * (rho**2 - s) ** 3 + 1440.0 * s * (rho**2 - s) ** 2
        return np.where(s < rho**2, 2.0 * n * g2p + 4.0 * s * g2pp, 0.0) / scale

    return phi, lap, bilap


def singular_profile(center, exponent: float, rho: float):
    """f(x) = |x - center|^exponent on B(center, rho), zero outside; sampled
    values stay finite because grid nodes avoid the center."""
    c = np.asarray(center, dtype=float)

    def f(*coords):
        pts = np.stack(np.broadcast_arrays(*coords), axis=-1)
        d = distance(pts, c)
        with np.errstate(divide="ignore"):
            vals = np.where(d < rho, d**exponent, 0.0)
        return vals

    return f


def _domain_anchor_points(domain: Domain):
    """Three ball-indicator positions: center, mid-radius, near-boundary."""
    box = domain.bounding_box
    if domain.dim == 1:
        a, b = box[0]
        L = b - a
        return [a + 0.5 * L, a + 0.75 * L, a + 0.92 * L], 0.15 * L
    cx = 0.5 * (box[0][0] + box[0][1])
    cy = 0.5 * (box[1][0] + box[1][1])
    R = 0.5 * (box[0][1] - box[0][0])
    return [(cx, cy), (cx + 0.5 * R, cy), (cx + 0.75 * R, cy + 0.2 * R)], 0.15 * 2 * R


def build_corpus(grid: Grid, seed: int = 0, n_random: int = 12,
                 singular_spec: tuple | None = None) -> list[tuple[str, SampledField]]:
    """Named corpus fields on a grid.

    singular_spec: (center, exponent, rho) of the negative-control member,
    which is added last when given.
    """
    dom = grid.domain
    box = dom.bounding_box
    rng = np.random.default_rng(seed)
    out: list[tuple[str, SampledField]] = []

    out.append(("const", SampledField(grid, np.ones(grid.n_cells))))
    for i, (lo, hi) in enumerate(box):
        name = "mono-x" if grid.dim == 1 else f"mono-x{i + 1}"
        out.append((name, SampledField.from_function(
            grid, lambda *x, i=i, lo=lo, hi=hi: (x[i] - lo) / (hi - lo))))

    anchors, rho = _domain_anchor_points(dom)
    for i, c in enumerate(anchors):
        f = smoothstep_indicator(np.atleast_1d(c), rho)
        out.append((f"bump{i}", SampledField.from_function(grid, f)))

    for k in (1, 3, 7):
        out.append((f"sin{k}", SampledField.from_function(grid, lambda *coords, k=k: math.prod(
            np.sin(k * np.pi * (x - lo) / (hi - lo)) for x, (lo, hi) in zip(coords, box)))))

    for j in range(n_random):
        amps = rng.uniform(-1.0, 1.0, size=5)
        freqs = rng.integers(1, 5, size=(5, grid.dim))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=5)

        def trig(*coords, amps=amps, freqs=freqs, phases=phases):
            pts = np.stack(np.broadcast_arrays(*coords), axis=-1)
            scaled = np.empty_like(pts)
            for ax in range(pts.shape[-1]):
                lo, hi = box[ax]
                scaled[..., ax] = (pts[..., ax] - lo) / (hi - lo)
            acc = 0.0
            for t in range(5):
                phase = (scaled * freqs[t]).sum(-1) * np.pi + phases[t]
                acc = acc + amps[t] * np.sin(phase)
            return acc

        out.append((f"trig{j}", SampledField.from_function(grid, trig)))

    if singular_spec is not None:
        center, exponent, srho = singular_spec
        f = singular_profile(np.atleast_1d(center), exponent, srho)
        out.append(("singular", SampledField.from_function(grid, f)))
    return out

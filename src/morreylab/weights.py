"""Analytic weight families and Muckenhoupt A_p constant estimation.

The family {constant, |x - x0|^gamma} is closed under the powers needed by
the A_p expression (w -> w^{-1/(p-1)}), evaluates pointwise, and integrates
over grid cells: exactly in 1D via the |t|^{gamma+1}/(gamma+1)
antiderivative, by 8x oversampled midpoint in 2D.

Cells on which the exact 1D integral diverges (conjugate exponent <= -1
straddling the singular center) fall back to the midpoint value so that
out-of-class weights produce finite, refinement-divergent estimates instead
of immediate infinities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (Ball, Grid, cell_lattice, distance, nested_log_radii, region_mask,
                       sweep_centers)

__all__ = [
    "ConstantWeight",
    "PowerWeight",
    "Weight",
    "ApEstimate",
    "MembershipReport",
    "conjugate_weight",
    "weight_cell_integrals",
    "weight_measure",
    "ball_measure",
    "ap_constant",
    "ap_membership",
    "ap_sweep",
]

_OVERSAMPLE = 8
# sub-cell points per pass of _oversampled_cells: bounds its temporaries
_SUBCELL_CHUNK = 2**14
# ball_measure's 2D midpoint quadrature: _BALL_QUAD radii by 2 * _BALL_QUAD
# angles
_BALL_QUAD = 96


@dataclass(frozen=True)
class ConstantWeight:
    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("constant weight must be positive")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.full(np.shape(pts)[:-1], self.c)

    def pow(self, s: float) -> "ConstantWeight":
        return ConstantWeight(self.c**s)

    @property
    def label(self) -> str:
        return f"const({self.c:g})"


@dataclass(frozen=True)
class PowerWeight:
    """w(x) = |x - center|^gamma; local integrability needs gamma > -dim."""

    center: tuple[float, ...]
    gamma: float

    def __post_init__(self):
        if self.gamma <= -len(self.center):
            raise ValueError("power weight needs gamma > -n for local integrability")

    @property
    def dim(self) -> int:
        return len(self.center)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        d = distance(pts, self.center)
        with np.errstate(divide="ignore"):
            d **= self.gamma
        return d

    def pow(self, s: float):
        g = self.gamma * s
        if g <= -self.dim:
            return _RawPower(self.center, g)
        return PowerWeight(self.center, g)

    @property
    def label(self) -> str:
        return f"|x-{self.center}|^{self.gamma:g}"


@dataclass(frozen=True)
class _RawPower(PowerWeight):
    """Power with a non-integrable exponent (appears only as an A_p
    conjugate); singular cells are integrated by midpoint fallback."""

    def __post_init__(self):  # skip the integrability guard
        pass


Weight = ConstantWeight | PowerWeight


def conjugate_weight(w: Weight, p: float) -> Weight:
    """w^{-1/(p-1)}, the second factor of the A_p expression (p > 1)."""
    if p <= 1:
        raise ValueError("invalid exponent")
    return w.pow(-1.0 / (p - 1.0))


def _power_antiderivative(t: np.ndarray, gamma: float) -> np.ndarray:
    if gamma == -1.0:
        return np.sign(t) * np.log(np.abs(t))
    return np.sign(t) * np.abs(t) ** (gamma + 1.0) / (gamma + 1.0)


def _power_cells_1d(lo: np.ndarray, hi: np.ndarray, x0: float, gamma: float) -> np.ndarray:
    if gamma > -1.0:
        return _power_antiderivative(hi - x0, gamma) - _power_antiderivative(lo - x0, gamma)
    straddle = (lo <= x0) & (x0 <= hi)
    mid = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = _power_antiderivative(hi - x0, gamma) - _power_antiderivative(lo - x0, gamma)
        fallback = np.abs(mid - x0) ** gamma * (hi - lo)
    return np.where(straddle, fallback, exact)


def _oversampled_cells(w: Weight, grid: Grid) -> np.ndarray:
    """Midpoint sums of w over the _OVERSAMPLE**dim sub-cells of each cell,
    in blocks of about _SUBCELL_CHUNK points."""
    shift = cell_lattice(((-0.5, 0.5),) * grid.dim, _OVERSAMPLE)[1] * grid.h
    step = max(1, _SUBCELL_CHUNK // len(shift))
    nodes = grid.nodes
    blocks = [w(nodes[start:start + step, None, :] + shift).sum(axis=1)
              for start in range(0, len(nodes), step)]
    return np.concatenate(blocks) * (grid.h / _OVERSAMPLE) ** grid.dim


def weight_cell_integrals(w: Weight, grid: Grid) -> np.ndarray:
    """integral of w over each masked cell (vector aligned with grid.nodes)."""
    if isinstance(w, ConstantWeight):
        return np.full(grid.n_cells, w.c * grid.cell_measure)
    if grid.dim == 1:
        x = grid.nodes[:, 0]
        return _power_cells_1d(x - grid.h / 2, x + grid.h / 2, w.center[0], w.gamma)
    return _oversampled_cells(w, grid)


def weight_measure(w: Weight, region: Ball | None, grid: Grid) -> float:
    """w(region ∩ domain) over the cells whose centers lie in the region."""
    return float(weight_cell_integrals(w, grid)[region_mask(grid, region)].sum())


@lru_cache(maxsize=1)
def _polar_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ball_measure's 2D midpoint nodes: the radial midpoints in units of
    r / _BALL_QUAD, and cos and sin of the angular midpoints."""
    th = (np.arange(2 * _BALL_QUAD) + 0.5) * (2 * np.pi / (2 * _BALL_QUAD))
    nodes = (np.arange(_BALL_QUAD) + 0.5, np.cos(th), np.sin(th))
    for a in nodes:
        a.setflags(write=False)
    return nodes


def ball_measure(w: Weight, x, r: float) -> float:
    """Full-space w(B(x, r)) for the analytic family (used by the phi
    condition checkers, where balls are not clipped to the domain); the
    dimension is that of the point x.

    Constants and 1D powers: exact.  2D powers: midpoint polar quadrature
    around x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim, quad = len(x), _BALL_QUAD
    if isinstance(w, ConstantWeight):
        vol = 2.0 * r if dim == 1 else np.pi * r**2
        return w.c * vol
    if dim == 1:
        arr = _power_cells_1d(np.array([x[0] - r]), np.array([x[0] + r]), w.center[0], w.gamma)
        return float(arr[0])
    mid, cos, sin = _polar_nodes()
    rho = mid * (r / quad)
    # x + rho (cos th, sin th) at every (radius, angle)
    pts = np.empty((quad, 2 * quad, 2))
    np.multiply(rho[:, None], cos, out=pts[..., 0])
    np.multiply(rho[:, None], sin, out=pts[..., 1])
    pts += x
    vals = w(pts)
    return float((vals * rho[:, None]).sum() * (r / quad) * (2 * np.pi / (2 * quad)))


def _cell_extrema(w: Weight, grid: Grid, sel: np.ndarray) -> tuple[float, float]:
    """(ess inf, ess sup) of w over the selected cell union, analytic: a
    power's distance to its center ranges over each cell's node distance
    plus or minus half the cell diagonal."""
    if isinstance(w, ConstantWeight):
        return w.c, w.c
    d = distance(grid.nodes[sel], w.center)
    half = grid.h / np.sqrt(4.0 / grid.dim)  # half the cell diagonal
    dmin = np.maximum(d - half, 0.0)
    dmax = d + half
    if w.gamma >= 0:
        return float(dmin.min() ** w.gamma), float(dmax.max() ** w.gamma)
    with np.errstate(divide="ignore"):
        return float(dmax.max() ** w.gamma), float(dmin.min() ** w.gamma)


@dataclass(frozen=True)
class ApEstimate:
    p: float
    value: float
    attaining_ball: Ball
    n_balls: int

    def __post_init__(self):
        if np.isfinite(self.value) and self.value < 1.0 - 1e-9:
            raise ValueError("A_p expression fell below 1; quadrature is inconsistent")


def _admissible(grid: Grid, balls: list[Ball]) -> list[Ball]:
    """The balls contained in the domain."""
    centers = np.array([b.center for b in balls], dtype=float).reshape(-1, grid.dim)
    dist = grid.domain.boundary_distance(centers)
    return [b for b, d in zip(balls, dist) if b.radius <= d]


def ap_constant(w: Weight, p: float, grid: Grid, sweep: list[Ball]) -> ApEstimate:
    """Discrete A_p constant: max over the admissible sweep (balls contained
    in the domain) of the A_p product; both averages use the same cell set.

    p = 1 uses the A_1 form sup_B avg_B(w) / ess inf_B(w).
    """
    from .spaces import SweepCache

    if p < 1:
        raise ValueError("invalid exponent")
    balls = _admissible(grid, sweep)
    if not balls:
        raise ValueError("empty region")
    cache = SweepCache(grid, balls)
    live = cache.sizes > 0
    meas = cache.sizes * grid.cell_measure
    wc = weight_cell_integrals(w, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        if p > 1:
            wconj = weight_cell_integrals(conjugate_weight(w, p), grid)
            sums = cache.ball_sums(np.stack([wc, wconj]))
            avg_w = sums[0] / meas
            vals = avg_w * (sums[1] / meas) ** (p - 1.0)
        else:
            avg_w = cache.ball_sums(wc) / meas
            lo = np.ones(len(balls))
            for i, cells in cache.ball_cells():
                if len(cells):
                    lo[i] = _cell_extrema(w, grid, cells)[0]
            vals = np.where(lo > 0, avg_w / lo, np.inf)
    vals = np.where(live, vals, -np.inf)
    i = int(np.argmax(vals))
    if not live[i]:
        raise ValueError("empty region")
    return ApEstimate(p=p, value=float(vals[i]), attaining_ball=balls[i], n_balls=len(balls))


def ap_sweep(grid: Grid, w: Weight, centers_per_axis: int = 9,
             per_octave: int = 4) -> list[Ball]:
    """Sweep for A_p estimation: coarse sub-grid centers plus balls centered
    at the weight's singular center, nested radii from the largest inscribed
    radius down to one cell width."""
    centers = [tuple(float(v) for v in c) for c in sweep_centers(grid.domain, centers_per_axis)]
    if isinstance(w, PowerWeight):
        centers.append(tuple(float(v) for v in w.center))
    balls = []
    for c, dist in zip(centers, grid.domain.boundary_distance(np.array(centers))):
        if dist <= grid.h:
            continue
        for r in nested_log_radii(float(dist), grid.h, per_octave):
            balls.append(Ball(c, float(r)))
    return balls


@dataclass(frozen=True)
class MembershipReport:
    in_class: bool
    p: float
    gamma: float
    criterion: str


def ap_membership(w: Weight, p: float) -> MembershipReport:
    """Power-weight A_p classification: -n < gamma < n(p-1) for p > 1,
    -n < gamma <= 0 for p = 1; a constant weight is gamma = 0 with n = 1."""
    if p < 1:
        raise ValueError("invalid exponent")
    gamma, n = (0.0, 1) if isinstance(w, ConstantWeight) else (w.gamma, w.dim)
    if p > 1:
        ok = -n < gamma < n * (p - 1.0)
        crit = f"-{n} < gamma < {n * (p - 1.0):g}"
    else:
        ok = -n < gamma <= 0.0
        crit = f"-{n} < gamma <= 0"
    return MembershipReport(in_class=bool(ok), p=p, gamma=gamma, criterion=crit)

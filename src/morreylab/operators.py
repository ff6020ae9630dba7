"""Hardy-Littlewood maximal operator, truncated / maximal singular integrals,
and the differentiation identity for second derivatives of the potential.

All operators treat the field as extended by zero outside the domain; ball
volumes in the maximal operator are full Lebesgue ball measures.  Pointwise
evaluations are direct sums; whole-field evaluations on 2D grids go through
cached-spectrum FFT convolutions (the discrete sums are translation-invariant
on the lattice, so the two routes agree to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Grid, SampledField
from .greens import FundamentalSolution

__all__ = [
    "CZKernel",
    "maximal",
    "maximal_field",
    "truncated_singular",
    "maximal_singular",
    "singular_field",
    "singular_identity_check",
    "IdentityReport",
    "operator_radius_grid",
]

_BALL_VOL = {1: 2.0, 2: np.pi}


def operator_radius_grid(grid: Grid, count: int = 48) -> np.ndarray:
    """Log-spaced radii/truncations in [cell width, diam]."""
    from .geometry import log_radii

    return log_radii(grid.h, grid.domain.diameter, count)


# ---------------------------------------------------------------------------
# kernels: order-2m derivatives of the fundamental solution


@dataclass(frozen=True)
class CZKernel:
    """k(x, y) = D^alpha Gamma(x - y) with |alpha| = 2m: homogeneous of
    degree -n with zero angular mean (validated at construction)."""

    dim: int
    m: int
    alpha: tuple[int, ...]

    def __post_init__(self):
        if sum(self.alpha) != 2 * self.m:
            raise ValueError("CZ kernel needs |alpha| = 2m")
        if self.dim == 2:
            th = (np.arange(4096) + 0.5) * (2 * np.pi / 4096)
            vals = self(np.column_stack([np.cos(th), np.sin(th)]))
            scale = np.abs(vals).mean()
            if scale > 0 and abs(vals.mean()) > 1e-8 * scale:
                raise ValueError("kernel angular mean does not vanish")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        gam = FundamentalSolution(self.dim, self.m)
        z = np.asarray(z, dtype=float)
        if self.dim == 1:
            # 1D fundamental solutions are piecewise polynomials of degree
            # 2m-1: the off-diagonal order-2m derivative vanishes
            return np.zeros(z.shape[:-1] if z.ndim > 1 else z.shape)
        return gam.derivative(self.alpha, z)

    def size_constant(self, samples: int = 256, seed: int = 0) -> float:
        """Fitted C_k in |k(z)| <= C_k |z|^{-n} over a log-radial sample."""
        rng = np.random.default_rng(seed)
        r = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), samples))
        th = rng.uniform(0, 2 * np.pi, samples)
        z = np.column_stack([r * np.cos(th), r * np.sin(th)])
        return float((np.abs(self(z)) * r**self.dim).max())


# ---------------------------------------------------------------------------
# pointwise operators


def _dists(grid: Grid, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.linalg.norm(grid.nodes - x[None, :], axis=1)


def maximal(f: SampledField, x, radius_grid) -> float:
    """sup over the radius grid of the |f| average over B(x, t); the
    denominator is the full ball volume (zero extension)."""
    g = f.grid
    d = _dists(g, x)
    absf = np.abs(f.values)
    best = 0.0
    for t in np.asarray(radius_grid, dtype=float):
        s = absf[d < t].sum() * g.cell_measure
        best = max(best, s / (_BALL_VOL[g.dim] * t**g.dim))
    return best


def truncated_singular(f: SampledField, kernel: CZKernel, x, eps: float) -> float:
    """Quadrature of k(x - y) f(y) over cells with centers outside B(x, eps)."""
    g = f.grid
    if eps < g.h:
        raise ValueError("truncation below resolution")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = _dists(g, x)
    keep = d >= eps
    z = x[None, :] - g.nodes[keep]
    return float((kernel(z) * f.values[keep]).sum() * g.cell_measure)


def maximal_singular(f: SampledField, kernel: CZKernel, x, eps_grid) -> float:
    return max(abs(truncated_singular(f, kernel, x, e)) for e in np.asarray(eps_grid))


# ---------------------------------------------------------------------------
# whole-field variants (1D: sliding windows; 2D: cached-spectrum FFT)


class _Convolver:
    """Linear convolution on the full lattice with cached kernel spectra."""

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.n
        self.size = 1 << int(np.ceil(np.log2(3 * n - 2)))
        offs = np.arange(-(n - 1), n) * grid.h
        self.oz1, self.oz2 = np.meshgrid(offs, offs, indexing="ij")
        self._spectra: dict = {}

    def spectrum(self, key, build):
        if key not in self._spectra:
            self._spectra[key] = np.fft.rfft2(build(self.oz1, self.oz2),
                                              s=(self.size, self.size))
        return self._spectra[key]

    def forward(self, lattice: np.ndarray) -> np.ndarray:
        return np.fft.rfft2(lattice, s=(self.size, self.size))

    def apply(self, fwd: np.ndarray, key, build) -> np.ndarray:
        n = self.grid.n
        full = np.fft.irfft2(fwd * self.spectrum(key, build),
                             s=(self.size, self.size))
        return full[n - 1: 2 * n - 1, n - 1: 2 * n - 1]


# one live convolver: a finished level's spectra are freed, not held
@lru_cache(maxsize=1)
def _convolver(grid: Grid) -> _Convolver:
    return _Convolver(grid)


def _window_sums_1d(lattice: np.ndarray, k: int) -> np.ndarray:
    """sum over |j - i| <= k of lattice[j] at every i (zero padded)."""
    cs = np.concatenate([[0.0], np.cumsum(lattice)])
    n = len(lattice)
    lo = np.clip(np.arange(n) - k, 0, n)
    hi = np.clip(np.arange(n) + k + 1, 0, n)
    return cs[hi] - cs[lo]


def maximal_field(f: SampledField, radius_grid) -> SampledField:
    """Mf on every masked node, matching `maximal` up to rounding."""
    g = f.grid
    radii = np.asarray(radius_grid, dtype=float)
    if g.dim == 1:
        lattice = g.embed(np.abs(f.values))
        best = np.zeros_like(lattice)
        for t in radii:
            k = int(np.ceil(t / g.h)) - 1  # |j-i| h < t
            s = _window_sums_1d(lattice, k) * g.cell_measure
            np.maximum(best, s / (2.0 * t), out=best)
        return SampledField(g, g.extract(best))
    conv = _convolver(g)
    fwd = conv.forward(g.embed(np.abs(f.values)))
    best = None
    for t in radii:
        build = (lambda t: lambda o1, o2: ((o1**2 + o2**2 < t**2)
                                           * g.cell_measure))(t)
        s = conv.apply(fwd, ("ball", round(t / g.h, 9)), build)
        avg = s / (np.pi * t**2)
        best = avg if best is None else np.maximum(best, avg)
    return SampledField(g, np.maximum(g.extract(best), 0.0))


def singular_field(f: SampledField, kernel: CZKernel, eps_grid) -> SampledField:
    """K* f = sup over truncations |K_eps f| on every masked node."""
    g = f.grid
    eps = np.asarray(eps_grid, dtype=float)
    if (eps < g.h).any():
        raise ValueError("truncation below resolution")
    if g.dim == 1:
        return SampledField(g, np.zeros(g.n_cells))
    conv = _convolver(g)
    fwd = conv.forward(g.embed(f.values))
    best = None
    for e in eps:
        def build(o1, o2, e=e):
            z = np.stack([o1, o2], axis=-1)
            r2 = o1**2 + o2**2
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = kernel(z.reshape(-1, 2)).reshape(o1.shape)
            return np.where(r2 >= e**2, vals, 0.0) * g.cell_measure
        part = np.abs(conv.apply(fwd, ("cz", kernel.alpha, kernel.m,
                                       round(e / g.h, 9)), build))
        best = part if best is None else np.maximum(best, part)
    return SampledField(g, g.extract(best))


def potential_field(f: SampledField, kernel_builder, key) -> np.ndarray:
    """Lattice convolution of f with an arbitrary offset kernel (cellwise
    midpoint with the kernel's own value at offset zero)."""
    g = f.grid
    conv = _convolver(g)
    fwd = conv.forward(g.embed(f.values))
    return conv.apply(fwd, key, kernel_builder)


# ---------------------------------------------------------------------------
# the differentiation identity for second derivatives of the potential


@dataclass(frozen=True)
class IdentityReport:
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    fitted_a: float
    expected_a: float
    max_discrepancy: float
    trace_residual: float
    skipped_nodes: int


def _lattice_fd(grid: Grid, lattice: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Central difference along an axis; second output marks full stencils
    (both neighbours inside the mask)."""
    mask = grid.lattice_mask.reshape(grid.n, grid.n)
    out = np.zeros_like(lattice)
    ok = np.zeros_like(mask)
    sl_p = [slice(None)] * 2
    sl_m = [slice(None)] * 2
    sl_c = [slice(1, -1) if a == axis else slice(None) for a in range(2)]
    sl_p[axis] = slice(2, None)
    sl_m[axis] = slice(0, -2)
    out[tuple(sl_c)] = (lattice[tuple(sl_p)] - lattice[tuple(sl_m)]) / (2 * grid.h)
    ok[tuple(sl_c)] = mask[tuple(sl_p)] & mask[tuple(sl_m)] & mask[tuple(sl_c)]
    return out, ok


def singular_identity_check(f: SampledField, alpha: tuple[int, int],
                            beta: tuple[int, int],
                            eps_factor: float = 2.0) -> IdentityReport:
    """One more derivative of the (2m-1)-order potential against the
    truncated singular integral plus a multiple of f.

    Implemented instance: n = 2, m = 1.  alpha must exceed beta by one unit
    coordinate; the expected multiplier for alpha = e_i + e_j is
    -delta_ij / n (validated by the fit, not assumed).
    """
    g = f.grid
    if g.dim != 2 or sum(alpha) != 2 or sum(beta) != 1:
        raise ValueError("identity check implemented for n = 2, m = 1")
    diff = (alpha[0] - beta[0], alpha[1] - beta[1])
    if sorted(diff) != [0, 1] or min(diff) < 0:
        raise ValueError("alpha must extend beta by one coordinate")
    axis = 0 if diff[0] == 1 else 1
    gam = FundamentalSolution(2, 1)

    def build_beta(o1, o2):
        z = np.stack([o1, o2], axis=-1).reshape(-1, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = gam.derivative(beta, z).reshape(o1.shape)
        vals[np.isnan(vals) | np.isinf(vals)] = 0.0  # odd kernel: zero cell
        return vals * g.cell_measure

    pot = potential_field(f, build_beta, ("dgamma", beta))
    lhs, ok = _lattice_fd(g, pot, axis)

    kern = CZKernel(2, 1, alpha)
    eps = eps_factor * g.h
    kf = singular_field_signed(f, kern, eps)
    expected_a = -(1.0 / 2.0) if alpha[0] != 1 else 0.0  # -delta_ij / n

    fv = g.embed(f.values)
    sel = ok & (np.abs(fv) > 0.1 * np.abs(f.values).max())
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = np.median(((lhs - kf) / fv)[sel]) if sel.any() else np.nan
    resid = np.abs(lhs - kf - expected_a * fv)[ok].max() / max(np.abs(f.values).max(), 1e-300)

    # trace: sum_i d_i (d_i Gamma * f) = -f on interior nodes
    trace = np.zeros((g.n, g.n))
    trace_ok = np.ones((g.n, g.n), dtype=bool)
    for i, b in ((0, (1, 0)), (1, (0, 1))):
        def build(o1, o2, b=b):
            z = np.stack([o1, o2], axis=-1).reshape(-1, 2)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = gam.derivative(b, z).reshape(o1.shape)
            vals[~np.isfinite(vals)] = 0.0
            return vals * g.cell_measure
        p = potential_field(f, build, ("dgamma", b))
        dfield, dok = _lattice_fd(g, p, i)
        trace += dfield
        trace_ok &= dok
    trace_res = np.abs(trace + fv)[trace_ok].max() / max(np.abs(f.values).max(), 1e-300)

    skipped = int(g.lattice_mask.sum() - ok.sum())
    return IdentityReport(alpha=tuple(alpha), beta=tuple(beta),
                          fitted_a=float(fitted), expected_a=expected_a,
                          max_discrepancy=float(resid),
                          trace_residual=float(trace_res),
                          skipped_nodes=skipped)


def singular_field_signed(f: SampledField, kernel: CZKernel, eps: float) -> np.ndarray:
    """K_eps f on the full lattice (signed, single truncation)."""
    g = f.grid
    conv = _convolver(g)
    fwd = conv.forward(g.embed(f.values))

    def build(o1, o2):
        z = np.stack([o1, o2], axis=-1)
        r2 = o1**2 + o2**2
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = kernel(z.reshape(-1, 2)).reshape(o1.shape)
        return np.where(r2 >= eps**2, vals, 0.0) * g.cell_measure

    return conv.apply(fwd, ("cz1", kernel.alpha, kernel.m, round(eps / g.h, 9)),
                      build)

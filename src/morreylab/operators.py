"""Hardy-Littlewood maximal operator, truncated / maximal singular integrals,
and the differentiation identity for second derivatives of the potential.

All operators treat the field as extended by zero outside the domain; ball
volumes in the maximal operator are full Lebesgue ball measures.  Each
operator has one implementation.  It takes a grid and a stack of rows of
masked-cell values on it, a (k, cells) array or a list of k rows (the row
forms `spaces.SweepCache` takes), and returns one (k, cells) array: sliding
window sums in 1D and FFT convolutions in 2D (the discrete sums are
translation-invariant on the lattice).  `_in_ball` is the one
rule for which lattice offsets a ball or a truncation holds.

`_convolutions` is the one convolution path, a stack of rows against a
list of kernels; the solver's free-space potentials take it too.  It holds
the smaller set of transforms and streams the other (the rows' while each
spectrum is built, applied to every row and dropped, or the spectra while
each row is transformed), and keeps no spectrum past the call.

Each axis is zero-padded to the transform size L.  The kernel spans the
2n-1 offsets, and the n x n central block keeps the rows n-1 ... 2n-2 of
the (3n-2)-long linear convolution; a length-L circular transform wraps
onto those rows only when L <= 2n-2, so every L >= 2n-1 gives the same
values up to rounding.  The operators take the smallest such power of
two, pow2(2n-1), the default size; the solver's free-space potentials
pass pow2(3n-2) (see `solver._solve_disk_m1_values` for why).

`_Convolver.apply` is irfft2 by hand: the product spectrum and its inverse
column transform go into one reused buffer, and the inverse row transform
runs only on the n rows of the central block, into a second.  Both
buffers live while one `_convolutions` call runs and are overwritten by
each apply, so apply returns a copy of the central block: callers hold
several results at once.  The bits are irfft2's, which runs the same two
stages line by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Grid, SampledField, log_radii
from .greens import FundamentalSolution

__all__ = [
    "CZKernel",
    "maximal_field",
    "singular_field",
    "singular_identity_check",
    "IdentityReport",
    "operator_radius_grid",
]


def operator_radius_grid(grid: Grid, count: int = 48) -> np.ndarray:
    """Log-spaced radii/truncations in [cell width, diam]."""
    return log_radii(grid.h, grid.domain.diameter, count)


# ---------------------------------------------------------------------------
# kernels: order-2m derivatives of the fundamental solution


@dataclass(frozen=True)
class CZKernel:
    """k(x, y) = D^alpha Gamma(x - y) with |alpha| = 2m: homogeneous of
    degree -n, and in 2D of zero mean over the unit circle."""

    dim: int
    m: int
    alpha: tuple[int, ...]

    def __post_init__(self):
        if sum(self.alpha) != 2 * self.m:
            raise ValueError("CZ kernel needs |alpha| = 2m")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        gam = FundamentalSolution(self.dim, self.m)
        z = np.asarray(z, dtype=float)
        if self.dim == 1:
            # 1D fundamental solutions are piecewise polynomials of degree
            # 2m-1: the off-diagonal order-2m derivative vanishes
            return np.zeros(z.shape[:-1] if z.ndim > 1 else z.shape)
        return gam.derivative(self.alpha, z)


# ---------------------------------------------------------------------------
# lattice convolution: a stack of rows against a list of kernels


def _pow2(k: int) -> int:
    """The smallest power of two >= k."""
    return 1 << int(np.ceil(np.log2(k)))


class _Convolver:
    """Linear convolution on the full lattice at transform size `size` per
    axis (default: alias-free pow2(2n-1)); its spectra and buffers live for
    one `_convolutions` call."""

    def __init__(self, grid: Grid, size: int | None = None):
        self.grid = grid
        n = grid.n
        self.size = _pow2(2 * n - 1) if size is None else size
        # the offsets k * h along each axis, shaped to broadcast to the
        # (2n-1)^2 lattice of the kernels
        offs = np.arange(-(n - 1), n) * grid.h
        self.offsets = offs[:, None], offs[None, :]
        self._spectra: dict = {}
        # apply's buffers: the product spectrum, then its column transform,
        # and the kept rows of the inverse; allocated at the first apply of
        # a call, dropped by _convolutions after its last
        self._work = self._rows = None

    def spectrum(self, key, build):
        if key not in self._spectra:
            self._spectra[key] = np.fft.rfft2(build(*self.offsets),
                                              s=(self.size, self.size))
        return self._spectra[key]

    def forward(self, lattice: np.ndarray) -> np.ndarray:
        return np.fft.rfft2(lattice, s=(self.size, self.size))

    def apply(self, fwd: np.ndarray, key, build) -> np.ndarray:
        """The central n x n block of irfft2(fwd * spectrum), as a fresh
        array with irfft2's bits (see the module docstring)."""
        n, size = self.grid.n, self.size
        if self._work is None:
            self._work = np.empty_like(fwd)
            self._rows = np.empty((n, size))
        work = np.multiply(fwd, self.spectrum(key, build), out=self._work)
        np.fft.ifft(work, size, axis=0, out=work)
        np.fft.irfft(work[n - 1: 2 * n - 1], size, axis=1, out=self._rows)
        return self._rows[:, n - 1: 2 * n - 1].copy()


# one live convolver, cached because benchmark/child.py reads
# _convolver.cache_info(); it holds its grid and size, no lattice
@lru_cache(maxsize=1)
def _convolver(grid: Grid, size: int | None) -> _Convolver:
    return _Convolver(grid, size)


def _convolutions(grid: Grid, rows, kernels, size: int | None = None):
    """(i, j, lattice) for the convolution of masked-cell row i of `rows`
    (zero outside) with the kernel that builder j of `kernels` builds, each
    row meeting the kernels in order, at transform size `size` (None: the
    operators' pow2(2n-1)).  A spectrum is keyed by its builder's position."""
    conv = _convolver(grid, size)
    try:
        if len(rows) <= len(kernels):
            fwds = [conv.forward(grid.embed(v)) for v in rows]
            for j, build in enumerate(kernels):
                for i, fwd in enumerate(fwds):
                    yield i, j, conv.apply(fwd, j, build)
                conv._spectra.clear()
        else:
            for i, v in enumerate(rows):
                fwd = conv.forward(grid.embed(v))
                for j, build in enumerate(kernels):
                    yield i, j, conv.apply(fwd, j, build)
    finally:
        conv._spectra.clear()
        conv._work = conv._rows = None


# ---------------------------------------------------------------------------
# lattice kernels: each builder takes the convolver's offsets along each
# axis and returns the kernel on the (2n-1)^2 lattice they broadcast to


def _in_ball(t: float, *offsets: np.ndarray) -> np.ndarray:
    """The lattice-ball rule: an offset of k cells per axis, given per axis
    as the arrays k * h, lies in the open ball B(0, t) iff its squares,
    summed in axis order, are below t**2.  Every caller passes one scalar
    t: a scalar square can round apart from an array square."""
    r2 = offsets[0] ** 2
    for o in offsets[1:]:
        r2 = r2 + o**2
    return r2 < t**2


def _ball_kernel(grid: Grid, t: float):
    """Indicator of the offsets in B(0, t) times the cell measure."""
    def build(o1, o2):
        return _in_ball(t, o1, o2) * grid.cell_measure
    return build


def _truncated_kernel(grid: Grid, kernel: CZKernel, eps: float):
    """k(offset) times the cell measure outside B(0, eps), zero inside."""
    forms = FundamentalSolution(2, kernel.m)._forms

    def build(o1, o2):
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = forms(o1, o2)(tuple(kernel.alpha))
        return np.where(_in_ball(eps, o1, o2), 0.0, vals) * grid.cell_measure
    return build


@lru_cache(maxsize=None)
def _unit_square_log_moments() -> tuple[float, float]:
    """I0 = integral of log|z| and I2 = integral of |z|^2 log|z| over the
    unit square [-1/2, 1/2]^2, by the exact polar reduction
    8 * int_0^{pi/4} int_0^{R(th)} rho^{1+2k} log rho drho dth."""
    nodes, weights = np.polynomial.legendre.leggauss(96)
    th = 0.25 * np.pi * (nodes + 1.0) / 2.0
    wth = 0.25 * np.pi * weights / 2.0
    R = 0.5 / np.cos(th)
    i0 = 8.0 * ((R**2 / 2.0) * (np.log(R) - 0.5) * wth).sum()
    i2 = 8.0 * ((R**4 / 4.0) * (np.log(R) - 0.25) * wth).sum()
    return float(i0), float(i2)


def _gamma_diagonal_cell(dim: int, m: int, alpha: tuple[int, ...], h: float) -> float:
    """integral of D^alpha Gamma over the centered cell [-h/2, h/2]^dim.

    Odd-order kernels integrate to zero by symmetry; the even closed forms
    follow from the |t|^k antiderivatives (1D) and the scaled unit-square
    log moments (2D).
    """
    k = sum(alpha)
    if k % 2 == 1:
        return 0.0
    if dim == 1:
        if m == 1:
            return -(h / 2.0) ** 2 / 2.0 if k == 0 else 0.0  # int -|t|/2
        if k == 0:
            return (h / 2.0) ** 4 / 24.0  # int |t|^3/12
        if k == 2:
            return (h / 2.0) ** 2 / 2.0   # int |t|/2
        return 0.0
    i0, i2 = _unit_square_log_moments()
    log_int = h**2 * (np.log(h) + i0)          # int log|z| over the cell
    if m == 1:
        # d11 Gamma = -(1/2pi)(1/r^2 - 2 z1^2/r^4) is not absolutely
        # integrable on the cell; its principal value vanishes by the
        # kernel's zero angular mean and the square's symmetry
        return -log_int / (2.0 * np.pi) if k == 0 else 0.0
    # m = 2: Gamma = |z|^2 log|z| / (8 pi)
    if k == 0:
        return (h**4 * (np.log(h) / 6.0 + i2)) / (8.0 * np.pi)
    if alpha in ((2, 0), (0, 2)):
        # d11 v = 2 log|z| + 1 + 2 z1^2/|z|^2; the last term integrates to
        # h^2/2 by symmetry
        return (2.0 * log_int + h**2 + h**2) / (2.0 * 8.0 * np.pi)
    return 0.0  # (1, 1) is odd in each coordinate


def _gamma_kernel(grid: Grid, m: int, alpha: tuple[int, int]):
    """D^alpha Gamma(offset) times the cell measure, with the analytic
    diagonal-cell integral at offset zero."""
    forms = FundamentalSolution(2, m)._forms
    diag = _gamma_diagonal_cell(2, m, alpha, grid.h)

    def build(o1, o2):
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = forms(o1, o2)(alpha) * grid.cell_measure
        vals[(o1 == 0.0) & (o2 == 0.0)] = diag
        vals[~np.isfinite(vals)] = 0.0
        return vals
    return build


# ---------------------------------------------------------------------------
# whole-field variants (1D: sliding windows; 2D: lattice convolutions)


def _window_sums_1d(lattice: np.ndarray, k) -> np.ndarray:
    """sum over |j - i| <= k of lattice[..., j] at every i (zero padded), per
    lattice of a stack; R half-widths k give (R, n) per lattice, one cumsum."""
    n = lattice.shape[-1]
    cs = np.zeros(lattice.shape[:-1] + (n + 1,))
    np.cumsum(lattice, axis=-1, out=cs[..., 1:])
    k = np.asarray(k)[..., None]
    lo = np.clip(np.arange(n) - k, 0, n)
    hi = np.clip(np.arange(n) + k + 1, 0, n)
    return cs[..., hi] - cs[..., lo]


def _row_stack(grid: Grid, rows) -> np.ndarray:
    """A (k, cells) array, or a list of k rows, on `grid` as one (k, cells)
    array; rows of any other length raise a ValueError."""
    return np.asarray(rows, dtype=float).reshape(len(rows), grid.n_cells)


def maximal_field(grid: Grid, rows, radius_grid) -> np.ndarray:
    """Mf = sup over the radius grid of the |f| average over each ball, on
    every masked node, for each row f of `rows`; the denominator is the
    full ball volume."""
    absf = np.abs(_row_stack(grid, rows))
    radii = np.asarray(radius_grid, dtype=float)
    if grid.dim == 1:
        offs = np.arange(grid.n) * grid.h  # half-width: the offsets k >= 1 in the ball
        k = np.array([_in_ball(t, offs).sum() - 1 for t in radii], dtype=int)
        s = _window_sums_1d(grid.embed(absf), k) * grid.cell_measure
        return grid.extract((s / (2.0 * radii[:, None])).max(axis=-2, initial=0.0))
    best = np.full((len(absf), grid.n, grid.n), -np.inf)
    for i, j, s in _convolutions(grid, absf, [_ball_kernel(grid, t) for t in radii]):
        np.maximum(best[i], s / (np.pi * radii[j] ** 2), out=best[i])
    return np.maximum(grid.extract(best), 0.0)


def singular_field(grid: Grid, rows, kernel: CZKernel, eps_grid) -> np.ndarray:
    """K* f = sup over truncations |K_eps f| on every masked node, for each
    row f of `rows`."""
    rows = _row_stack(grid, rows)
    eps = np.asarray(eps_grid, dtype=float)
    if (eps < grid.h).any():
        raise ValueError("truncation below resolution")
    if grid.dim == 1:
        return np.zeros_like(rows)
    best = np.zeros((len(rows), grid.n, grid.n))
    for i, _, part in _convolutions(grid, rows,
                                    [_truncated_kernel(grid, kernel, e) for e in eps]):
        np.maximum(best[i], np.abs(part), out=best[i])
    return grid.extract(best)


# ---------------------------------------------------------------------------
# mask-aware lattice finite differences


def _masked_fd(grid: Grid, lattice: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """d/dx_axis by central differences where both neighbours are masked,
    one-sided at mask edges, zero on isolated cells; the second output marks
    the central cells.  `lattice` is one lattice or a stack (k, lattice),
    and `axis` counts the lattice axes only."""
    axis += lattice.ndim - grid.dim
    mask = grid.lattice_mask.reshape((grid.n,) * grid.dim)
    mask = np.moveaxis(np.broadcast_to(mask, lattice.shape), axis, 0)
    v = np.moveaxis(lattice, axis, 0)
    vp, vm = np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
    mp, mm = np.roll(mask, -1, axis=0), np.roll(mask, 1, axis=0)
    mp[-1] = False
    mm[0] = False
    central = mask & mp & mm
    fwd = mask & mp & ~mm
    bwd = mask & ~mp & mm
    out = np.zeros_like(v)
    out[central] = (vp[central] - vm[central]) / (2 * grid.h)
    out[fwd] = (vp[fwd] - v[fwd]) / grid.h
    out[bwd] = (v[bwd] - vm[bwd]) / grid.h
    return np.moveaxis(out, 0, axis), np.moveaxis(central, 0, axis)


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


def singular_identity_check(f: SampledField, pairs) -> list[IdentityReport]:
    """One more derivative of the (2m-1)-order potential against the
    singular integral truncated at 2h plus a multiple of f, one report per
    (alpha, beta) of `pairs`, from one stack of convolutions.

    Implemented instance: n = 2, m = 1.  alpha must exceed beta by one unit
    coordinate; the expected multiplier for alpha = e_i + e_j is
    -delta_ij / n (validated by the fit, not assumed).
    """
    g = f.grid
    for alpha, beta in pairs:
        if g.dim != 2 or sum(alpha) != 2 or sum(beta) != 1:
            raise ValueError("identity check implemented for n = 2, m = 1")
        diff = (alpha[0] - beta[0], alpha[1] - beta[1])
        if sorted(diff) != [0, 1] or min(diff) < 0:
            raise ValueError("alpha must extend beta by one coordinate")

    # d_i Gamma * f for i = 1, 2 (each beta is one of them), then K_eps f
    firsts = ((1, 0), (0, 1))
    kernels = [_gamma_kernel(g, 1, b) for b in firsts]
    kernels += [_truncated_kernel(g, CZKernel(2, 1, a), 2.0 * g.h) for a, _ in pairs]
    lattices = [None] * len(kernels)
    for _, j, out in _convolutions(g, [f.values], kernels):
        lattices[j] = out
    pots, kfs = lattices[:2], lattices[2:]
    fv = g.embed(f.values)
    scale = max(np.abs(f.values).max(), 1e-300)

    # trace: sum_i d_i (d_i Gamma * f) = -f on interior nodes
    (d0, ok0), (d1, ok1) = (_masked_fd(g, p, i) for i, p in enumerate(pots))
    trace_res = np.abs(d0 + d1 + fv)[ok0 & ok1].max() / scale

    reports = []
    for (alpha, beta), kf in zip(pairs, kfs):
        axis = 0 if alpha[0] > beta[0] else 1
        lhs, ok = _masked_fd(g, pots[firsts.index(tuple(beta))], axis)
        expected_a = -(1.0 / 2.0) if alpha[0] != 1 else 0.0  # -delta_ij / n
        sel = ok & (np.abs(fv) > 0.1 * np.abs(f.values).max())
        with np.errstate(divide="ignore", invalid="ignore"):
            fitted = np.median(((lhs - kf) / fv)[sel]) if sel.any() else np.nan
        resid = np.abs(lhs - kf - expected_a * fv)[ok].max() / scale
        reports.append(IdentityReport(
            alpha=tuple(alpha), beta=tuple(beta), fitted_a=float(fitted),
            expected_a=expected_a, max_discrepancy=float(resid),
            trace_residual=float(trace_res),
            skipped_nodes=int(g.lattice_mask.sum() - ok.sum())))
    return reports

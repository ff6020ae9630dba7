"""Dirichlet solver by Green-function quadrature, with the full derivative
jet of the solution.

u(x) is computed at every node as sum_j G(x, y_j) f_j h^n with the singular
part of the diagonal cell integrated analytically (the regular part uses its
midpoint value).  Derivatives up to order 2m-1 come from quadrature against
the differentiated kernel; order-2m fields are central differences of the
order-(2m-1) quadrature fields, which sidesteps principal-value quadrature
in the solver (the operators module tests that identity separately).

Evaluation strategy per instance:

* interval m = 1, 2: dense pairwise kernel matrices (cheap in 1D),
* disk m = 1: FFT convolution for the free-space part plus harmonic
  completion of the regular part through the Poisson kernel (the regular
  potential is harmonic, so its boundary trace determines it; this keeps
  512-per-axis solves in seconds),
* disk m = 2: blocked pairwise closed-form kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Disk, Domain, Grid, Interval, SampledField
from .greens import FundamentalSolution, PoissonKernel, green_function
from .operators import _convolver
from .spaces import multi_indices

__all__ = ["solve_dirichlet", "solve_dirichlet_many", "residual_check", "Solution"]


@dataclass(frozen=True, eq=False)
class Solution:
    domain: Domain
    m: int
    jet: dict[tuple[int, ...], SampledField]

    @property
    def u(self) -> SampledField:
        return self.jet[(0,) * self.domain.dim]


# ---------------------------------------------------------------------------
# diagonal-cell integrals of the fundamental solution and its derivatives


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
        return -log_int / (2.0 * np.pi) if k == 0 else _disk_m1_order2_cell(alpha, h, log_int)
    # m = 2: Gamma = |z|^2 log|z| / (8 pi)
    if k == 0:
        return (h**4 * (np.log(h) / 6.0 + i2)) / (8.0 * np.pi)
    if alpha in ((2, 0), (0, 2)):
        # d11 v = 2 log|z| + 1 + 2 z1^2/|z|^2; the last term integrates to
        # h^2/2 by symmetry
        return (2.0 * log_int + h**2 + h**2) / (2.0 * 8.0 * np.pi)
    if alpha == (1, 1):
        return 0.0  # odd in each coordinate
    return 0.0


def _disk_m1_order2_cell(alpha, h, log_int):
    # d11 Gamma = -(1/2pi)(1/r^2 - 2 z1^2/r^4): not absolutely integrable on
    # the cell; the principal-value cell integral vanishes by the kernel's
    # zero angular mean and the square's symmetry
    return 0.0


# ---------------------------------------------------------------------------
# lattice finite differences (mask-aware)


def _masked_fd(grid: Grid, lattice: np.ndarray, axis: int) -> np.ndarray:
    """d/dx_axis by central differences where both neighbours are masked,
    one-sided at mask edges, zero on isolated cells."""
    if grid.dim == 1:
        mask = grid.lattice_mask.astype(bool)
        v = lattice
        out = np.zeros_like(v)
        vp = np.roll(v, -1)
        vm = np.roll(v, 1)
        mp = np.roll(mask, -1)
        mm = np.roll(mask, 1)
        mp[-1] = False
        mm[0] = False
        central = mask & mp & mm
        fwd = mask & mp & ~mm
        bwd = mask & ~mp & mm
        out[central] = (vp[central] - vm[central]) / (2 * grid.h)
        out[fwd] = (vp[fwd] - v[fwd]) / grid.h
        out[bwd] = (v[bwd] - vm[bwd]) / grid.h
        return out
    mask = grid.lattice_mask.reshape(grid.n, grid.n)
    v = lattice
    out = np.zeros_like(v)
    vp = np.roll(v, -1, axis=axis)
    vm = np.roll(v, 1, axis=axis)
    mp = np.roll(mask, -1, axis=axis)
    mm = np.roll(mask, 1, axis=axis)
    edge_hi = [slice(None)] * 2
    edge_hi[axis] = -1
    edge_lo = [slice(None)] * 2
    edge_lo[axis] = 0
    mp[tuple(edge_hi)] = False
    mm[tuple(edge_lo)] = False
    central = mask & mp & mm
    fwd = mask & mp & ~mm
    bwd = mask & ~mp & mm
    out[central] = (vp[central] - vm[central]) / (2 * grid.h)
    out[fwd] = (vp[fwd] - v[fwd]) / grid.h
    out[bwd] = (v[bwd] - vm[bwd]) / grid.h
    return out


# ---------------------------------------------------------------------------
# instance drivers


def _interval_kernels(grid: Grid, m: int) -> dict:
    """Quadrature matrices for every derivative order < 2m."""
    gf = green_function(grid.domain, m)
    nodes = grid.nodes
    orders = [(k,) for k in range(2 * m)]
    idx = np.arange(len(nodes))
    diag = dict(gf.jet(orders, nodes, nodes, regular=True))
    kernels = {}
    for alpha, kern in gf.jet(orders, nodes[:, None, :], nodes[None, :, :]):
        kern *= grid.cell_measure
        # diagonal cell: analytic Gamma integral plus midpoint regular part
        kern[idx, idx] = (_gamma_diagonal_cell(1, m, alpha, grid.h)
                          + diag[alpha] * grid.cell_measure)
        kernels[alpha] = kern
    return kernels


def _fd_columns(grid: Grid, values: np.ndarray, axis: int) -> np.ndarray:
    out = np.empty_like(values)
    for col in range(values.shape[1]):
        lattice = grid.embed(values[:, col])
        out[:, col] = grid.extract(_masked_fd(grid, lattice, axis))
    return out


def _solve_interval_values(grid: Grid, m: int, F: np.ndarray) -> dict:
    """F: (cells, k) right-hand sides -> dict alpha -> (cells, k)."""
    kernels = _interval_kernels(grid, m)
    vals = {alpha: kern @ F for alpha, kern in kernels.items()}
    vals[(2 * m,)] = _fd_columns(grid, vals[(2 * m - 1,)], 0)
    return vals


def _free_space_potential(grid: Grid, m: int, f: SampledField, alpha) -> np.ndarray:
    """(D^alpha Gamma) * f on the full lattice via cached-spectrum FFT, with
    the analytic diagonal-cell value at offset zero."""
    gam = FundamentalSolution(2, m)
    diag = _gamma_diagonal_cell(2, m, alpha, grid.h)

    def build(o1, o2):
        z = np.stack([o1, o2], axis=-1).reshape(-1, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = gam.derivative(alpha, z).reshape(o1.shape)
        center = (o1 == 0.0) & (o2 == 0.0)
        vals = vals * grid.cell_measure
        vals[center] = diag
        vals[~np.isfinite(vals)] = 0.0
        return vals

    conv = _convolver(grid)
    fwd = conv.forward(grid.embed(f.values))
    return conv.apply(fwd, ("gamma", m, alpha, round(grid.h, 12)), build)


def _harmonic_completion(grid: Grid, boundary_data: np.ndarray):
    """Harmonic H on the disk with boundary values `boundary_data` (sampled
    at the midpoint angles of PoissonKernel.boundary_nodes), plus its first
    derivatives, at every masked node.

    This is the Poisson integral evaluated through its Fourier series:
    H = Re F(zeta) with F holomorphic, F(zeta) = c0 + sum 2 g_k zeta^k.
    """
    dom: Disk = grid.domain
    M = len(boundary_data)
    ghat = np.fft.rfft(boundary_data) / M
    ghat *= np.exp(-1j * np.arange(len(ghat)) * np.pi / M)  # midpoint phase
    coeff = 2.0 * ghat
    coeff[0] = ghat[0].real
    scale = np.abs(coeff).max()
    keep = np.nonzero(np.abs(coeff) > 1e-15 * scale)[0]
    K = int(keep[-1]) + 1 if len(keep) else 1
    coeff = coeff[:K]
    c = np.asarray(dom.center)
    zeta = ((grid.nodes[:, 0] - c[0]) + 1j * (grid.nodes[:, 1] - c[1])) / dom.radius
    F = np.zeros_like(zeta)
    Fp = np.zeros_like(zeta)
    for k in range(K - 1, -1, -1):  # Horner for F and F' together
        Fp = Fp * zeta + F
        F = F * zeta + coeff[k]
    H = F.real
    dH1 = Fp.real / dom.radius
    dH2 = -Fp.imag / dom.radius
    return H, dH1, dH2


def _solve_disk_m1(grid: Grid, f: SampledField, boundary_factor: int = 8) -> dict:
    dom: Disk = grid.domain
    kern = PoissonKernel(dom, 0)
    Pb, _ = kern.boundary_nodes(boundary_factor * grid.n)

    pot0 = _free_space_potential(grid, 1, f, (0, 0))
    # boundary trace of the free-space potential by bilinear interpolation
    trace = _bilinear(grid, pot0, Pb)
    H, dH1, dH2 = _harmonic_completion(grid, -trace)

    vals = {(0, 0): grid.extract(pot0) + H}
    for alpha, hpart in (((1, 0), dH1), ((0, 1), dH2)):
        gamma_part = grid.extract(_free_space_potential(grid, 1, f, alpha))
        vals[alpha] = gamma_part + hpart
    for alpha in ((2, 0), (1, 1), (0, 2)):
        source = (1, 0) if alpha[0] else (0, 1)
        axis = 0 if alpha == (2, 0) else 1
        lattice = grid.embed(vals[source])
        vals[alpha] = grid.extract(_masked_fd(grid, lattice, axis))
    return vals


def _bilinear(grid: Grid, lattice: np.ndarray, pts: np.ndarray) -> np.ndarray:
    ax0, ax1 = grid.axes
    i = np.clip(np.searchsorted(ax0, pts[:, 0]) - 1, 0, grid.n - 2)
    j = np.clip(np.searchsorted(ax1, pts[:, 1]) - 1, 0, grid.n - 2)
    t = (pts[:, 0] - ax0[i]) / grid.h
    u = (pts[:, 1] - ax1[j]) / grid.h
    return ((1 - t) * (1 - u) * lattice[i, j] + t * (1 - u) * lattice[i + 1, j]
            + (1 - t) * u * lattice[i, j + 1] + t * u * lattice[i + 1, j + 1])


def _solve_disk_m2_values(grid: Grid, F: np.ndarray, block: int = 256) -> dict:
    gf = green_function(grid.domain, 2)
    nodes = grid.nodes
    M = len(nodes)
    orders = [a for a in multi_indices(2, 3)]
    vals = {a: np.empty((M, F.shape[1])) for a in orders}
    FV = F * grid.cell_measure
    # diagonal cells: analytic Gamma integral plus the midpoint regular part
    diag = {a: _gamma_diagonal_cell(2, 2, a, grid.h) / grid.cell_measure + h
            for a, h in gf.jet(orders, nodes, nodes, regular=True)}
    for start in range(0, M, block):
        rows = np.arange(start, min(start + block, M))
        for a, kern in gf.jet(orders, nodes[rows][:, None, :], nodes[None, :, :]):
            kern[rows - start, rows] = diag[a][rows]
            vals[a][rows] = kern @ FV
    for alpha in multi_indices(2, 4):
        if sum(alpha) != 4:
            continue
        source = (alpha[0] - 1, alpha[1]) if alpha[0] else (0, 3)
        axis = 0 if alpha[0] else 1
        vals[alpha] = _fd_columns(grid, vals[source], axis)
    return vals


def solve_dirichlet(domain: Domain, m: int, f: SampledField) -> Solution:
    """Solve (-Lap)^m u = f with vanishing Dirichlet data on the model
    domain of f's grid; returns u with all derivatives up to order 2m."""
    return solve_dirichlet_many(domain, m, [f])[0]


def solve_dirichlet_many(domain: Domain, m: int,
                         fields: list[SampledField]) -> list[Solution]:
    """Batch solve: 1D kernel matrices and 2D pair blocks are assembled once
    and applied to every right-hand side."""
    if not fields:
        return []
    grid = fields[0].grid
    if grid.domain != domain:
        raise ValueError("field lives on a different domain")
    if any(f.grid is not grid for f in fields[1:]):
        raise ValueError("batch fields must share one grid")
    green_function(domain, m)  # raises "no Green function" for bad pairs
    if isinstance(domain, Disk) and m == 1:
        out = []
        for f in fields:
            vals = _solve_disk_m1(grid, f)
            jet = {a: SampledField(grid, v) for a, v in vals.items()}
            out.append(Solution(domain=domain, m=m, jet=jet))
        return out
    F = np.column_stack([f.values for f in fields])
    if isinstance(domain, Interval):
        vals = _solve_interval_values(grid, m, F)
    else:
        vals = _solve_disk_m2_values(grid, F)
    out = []
    for i in range(len(fields)):
        jet = {a: SampledField(grid, np.ascontiguousarray(v[:, i]))
               for a, v in vals.items()}
        out.append(Solution(domain=domain, m=m, jet=jet))
    return out


# ---------------------------------------------------------------------------
# residual of the finite-difference polyharmonic operator


def _neg_lap_lattice(grid: Grid, lattice: np.ndarray) -> np.ndarray:
    h2 = grid.h**2
    if grid.dim == 1:
        out = -(np.roll(lattice, -1) - 2 * lattice + np.roll(lattice, 1)) / h2
        return out
    out = -(np.roll(lattice, -1, 0) + np.roll(lattice, 1, 0)
            + np.roll(lattice, -1, 1) + np.roll(lattice, 1, 1) - 4 * lattice) / h2
    return out


def residual_check(domain: Domain, m: int, sol: Solution, f: SampledField) -> float:
    """max |(-Lap)^m u - f| over nodes at least 2m cells from the boundary."""
    grid = f.grid
    lattice = grid.embed(sol.u.values)
    for _ in range(m):
        lattice = _neg_lap_lattice(grid, lattice)
    resid = np.abs(lattice - grid.embed(f.values))
    interior = grid.boundary_dist >= 2 * m * grid.h
    vals = grid.extract(resid)[interior]
    return float(vals.max()) if len(vals) else np.nan

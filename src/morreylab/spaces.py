"""Norm functionals on sampled fields and the phi-condition checker.

Implements the weighted Lebesgue norm, its weak (distribution-level)
counterpart, the generalized weighted Morrey norm

    sup over balls of  phi(x,r)^{-1} w(Omega(x,r))^{-1/p} ||f||_{L_{p,w}(Omega(x,r))},

the Sobolev-Morrey sum over a derivative jet, and the integral condition on
phi pairs under which the maximal/singular operators are bounded.

The domain-restricted norm uses the weight measure of Omega(x,r) = Omega n
B(x,r) in the prefactor.  Every sum over the balls of a sweep comes from one
``SweepCache``, as cumulative sums of shell sums that are summed over runs of
consecutive cells; ``MorreyEvaluator`` builds the Morrey norm on it, forming
|f|^p w one row chunk of a stack at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Ball, Grid, SampledField, distance, region_mask
from .hardy import _suffix_trapz
from .weights import Weight, ball_measure, weight_cell_integrals

__all__ = [
    "PowerLawPhi",
    "WeightMeasurePhi",
    "InverseWeightMeasurePhi",
    "PhiFunction",
    "lp_weighted_norm",
    "weak_lp_weighted_norm",
    "morrey_norm",
    "sobolev_morrey_norm",
    "multi_indices",
    "MorreyNorm",
    "MorreyEvaluator",
    "SweepCache",
    "condition_213",
    "ConditionReport",
]


# ---------------------------------------------------------------------------
# phi families (Remark-style: power law, weight measure, inverse weight
# measure).  ``over(radii, measure)`` evaluates phi on many balls at once;
# ``measure(w)`` gives w's measure of each ball.


class _Phi:
    def __call__(self, x, r) -> float:
        """phi(x, r); the measure families take the full-space w(B(x, r))."""
        return float(self.over(np.array([float(r)]),
                               lambda w: np.array([ball_measure(w, x, r)]))[0])


@dataclass(frozen=True)
class PowerLawPhi(_Phi):
    """phi(x, r) = r^{(lam - n)/p} with 0 < lam < n."""

    lam: float
    p: float
    n: int

    def over(self, radii, measure) -> np.ndarray:
        return radii ** ((self.lam - self.n) / self.p)

    @property
    def label(self):
        return f"power(lam={self.lam:g},p={self.p:g})"


@dataclass(frozen=True)
class WeightMeasurePhi(_Phi):
    """phi(x, r) = w(B(x,r))^{(k-1)/p}, 0 <= k < 1."""

    k: float
    p: float
    w: Weight

    def over(self, radii, measure) -> np.ndarray:
        return measure(self.w) ** ((self.k - 1.0) / self.p)

    @property
    def label(self):
        return f"wmeas(k={self.k:g},p={self.p:g})"


@dataclass(frozen=True)
class InverseWeightMeasurePhi(_Phi):
    """phi(x, r) = w(B(x,r))^{-1/p}; collapses the Morrey norm to L_{p,w}."""

    p: float
    w: Weight

    def over(self, radii, measure) -> np.ndarray:
        return measure(self.w) ** (-1.0 / self.p)

    @property
    def label(self):
        return f"invwmeas(p={self.p:g})"


PhiFunction = PowerLawPhi | WeightMeasurePhi | InverseWeightMeasurePhi


def _checked_phi(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError("invalid phi")
    return values


# ---------------------------------------------------------------------------
# inner norms


def lp_weighted_norm(f: SampledField, w: Weight, p: float,
                     region: Ball | None = None) -> float:
    """(integral over region n domain of |f|^p w)^{1/p}, p >= 1."""
    if p < 1:
        raise ValueError("invalid exponent")
    sel = region_mask(f.grid, region)
    wc = weight_cell_integrals(w, f.grid)
    return float((np.abs(f.values[sel]) ** p * wc[sel]).sum() ** (1.0 / p))


def _weak_from_arrays(absf: np.ndarray, wc: np.ndarray, p: float) -> np.ndarray:
    """The weak norm of each row of absf (..., n) against the cell weights
    wc (n,): rows are sorted independently, largest first."""
    order = np.argsort(absf, axis=-1)[..., ::-1]
    v = np.take_along_axis(absf, order, axis=-1)
    cw = np.cumsum(wc[order], axis=-1)
    with np.errstate(invalid="ignore"):
        vals = v * cw ** (1.0 / p)
    return vals.max(axis=-1, initial=0.0)


def weak_lp_weighted_norm(f: SampledField, w: Weight, p: float,
                          region: Ball | None = None) -> float:
    """sup_t t * w({|f| > t} n region)^{1/p}; the sup over t > 0 is attained
    as t increases to a field value, so thresholds run over the |f| values
    with closed level sets {|f| >= t}."""
    if p < 1:
        raise ValueError("invalid exponent")
    sel = region_mask(f.grid, region)
    wc = weight_cell_integrals(w, f.grid)
    return float(_weak_from_arrays(np.abs(f.values[sel]), wc[sel], p))


_CHUNK_CELLS = 1 << 16  # stack cells per pass of SweepCache's ball sums


# ---------------------------------------------------------------------------
# the ball-sum engine: the balls of one center are nested, so every cell
# falls in one shell between consecutive radii, and a ball sum is a cumulative
# sum over shell sums.  Arrays come as one field (cells,), a stack
# (k, cells) or a list of k rows (cells,), which is never stacked whole:
# each pass copies only its own rows.  A row's sums never depend on the
# other rows of its stack, nor on whether the stack is an array or a list.


class SweepCache:
    """Per-center shells and runs for the cells of a ball sweep, with the
    sweep grouped by center once.

    A run is a maximal stretch of consecutive cells (in cell order) that lie
    in one shell.  Per center, one ``np.add.reduceat`` over the runs gives
    the run sums, a second over the run sums sorted by shell gives the sums
    of the non-empty shells, and a cumulative sum over those gives the ball
    sums.  Every sum adds only cells of its own ball, so a small ball's sum
    keeps its relative accuracy next to large values outside it.  Every ball
    that holds every cell gets one row total, so such balls tie exactly."""

    def __init__(self, grid: Grid, sweep: list[Ball]):
        self.grid = grid
        self.balls = list(sweep)
        by_center: dict[tuple, list[int]] = {}
        for i, b in enumerate(self.balls):
            by_center.setdefault(b.center, []).append(i)
        # (center, ball indices, run starts, inner runs sorted by shell,
        # their first run per non-empty shell, each ball's cumulative-sum
        # column) per center, in first-seen order
        self._groups = []
        self.sizes = np.zeros(len(self.balls), dtype=int)
        for c, idx in by_center.items():
            d = distance(grid.nodes, c)
            idx = np.array(idx)
            radii = np.array([self.balls[i].radius for i in idx])
            shells, ball_shell = np.unique(radii, return_inverse=True)
            # a cell with |node - c| < r lies in every ball of radius r, so
            # its shell is the number of radii <= |node - c|; shell
            # len(shells) holds the cells outside every ball
            cell_shell = np.searchsorted(shells, d, side="right")
            starts = np.flatnonzero(np.diff(cell_shell, prepend=-1))
            run_shell = cell_shell[starts]
            inner = np.flatnonzero(run_shell < len(shells))
            by_shell = inner[np.argsort(run_shell[inner], kind="stable")]
            firsts = np.flatnonzero(np.diff(run_shell[by_shell], prepend=-1))
            # column 0 of the cumulative sums is the empty ball
            column = np.searchsorted(run_shell[by_shell[firsts]], ball_shell, side="right")
            self._groups.append((c, idx, starts, by_shell, firsts, column))
            # a ball holds the cells of its own shell and every inner one
            counts = np.bincount(cell_shell, minlength=len(shells))
            self.sizes[idx] = np.cumsum(counts)[ball_shell]
        self._whole = np.flatnonzero(self.sizes == grid.n_cells)

    def _nearest(self, center) -> np.ndarray:
        """The cells in order of distance from center, ties in cell order."""
        return np.argsort(distance(self.grid.nodes, center), kind="stable")

    def prefix_sums(self, center, values: np.ndarray) -> np.ndarray:
        """Sums of values over the cells nearest center, for every count."""
        return np.concatenate([[0.0], np.cumsum(values[self._nearest(center)])])

    def ball_sums(self, a) -> np.ndarray:
        """Sum of each row of a, (cells,), (k, cells) or a list of k rows,
        over every ball, in sweep order; the result has shape (balls,) for
        one field and (k, balls) for a stack."""
        return self._sums(a, lambda chunk: chunk)

    def power_sums(self, values, wc: np.ndarray, p: float) -> np.ndarray:
        """``ball_sums(np.abs(values) ** p * wc)`` with the same bits; the
        product is formed one row chunk at a time, never for the whole
        stack."""
        return self._sums(values, lambda chunk: np.abs(chunk) ** p * wc)

    def _sums(self, a, form) -> np.ndarray:
        rows = a if isinstance(a, list) else np.atleast_2d(a)
        out = np.empty((len(rows), len(self.balls)))
        # rows go through in chunks of about _CHUNK_CELLS stack cells, so
        # that a chunk and its run sums stay in cache
        step = max(1, _CHUNK_CELLS // self.grid.n_cells)
        for lo in range(0, len(rows), step):
            # C order, so that a row's total does not depend on the layout
            chunk = np.ascontiguousarray(form(np.asarray(rows[lo: lo + step])))
            part = out[lo: lo + len(chunk)]
            for _, idx, starts, by_shell, firsts, column in self._groups:
                runs = np.add.reduceat(chunk, starts, axis=1)
                shells = np.add.reduceat(runs[:, by_shell], firsts, axis=1)
                cum = np.zeros((len(chunk), len(firsts) + 1))
                np.cumsum(shells, axis=1, out=cum[:, 1:])
                part[:, idx] = cum[:, column]
            part[:, self._whole] = chunk.sum(axis=1)[:, None]
        return out if isinstance(a, list) else out.reshape(np.shape(a)[:-1] + (len(self.balls),))

    def ball_cells(self):
        """(ball index, the ball's cells nearest first) for every ball."""
        for c, idx, *_ in self._groups:
            order = self._nearest(c)
            for i, n in zip(idx, self.sizes[idx]):
                yield i, order[:n]

    def weak_ball_norms(self, absf: np.ndarray, wc: np.ndarray, p: float) -> np.ndarray:
        """The weak L_{p,w} norm of each row of |f|, (cells,) or (k, cells),
        over every ball, in sweep order (shaped as ``ball_sums``)."""
        out = np.empty(np.shape(absf)[:-1] + (len(self.balls),))
        for i, cells in self.ball_cells():
            out[..., i] = _weak_from_arrays(absf[..., cells], wc[cells], p)
        return out


class MorreyEvaluator:
    """Morrey norms of fields, or stacks of fields (arrays or lists of
    rows), against one (grid, sweep).  Cell integrals, weight sums and phi
    values are computed once per weight and phi; inner ball norms are cached per
    (values object, w, p, weak), so sweeping the phi family costs one pass
    over the balls per phi.  Callers must not mutate value arrays or lists
    between calls."""

    def __init__(self, grid: Grid, sweep):
        self.grid = grid
        self.cache = SweepCache(grid, sweep)
        self._cells = {}
        self._wsums = {}
        self._phis = {}
        self._inner = {}

    def cell_integrals(self, w) -> np.ndarray:
        """w's integral over every cell of the grid."""
        if w not in self._cells:
            self._cells[w] = weight_cell_integrals(w, self.grid)
        return self._cells[w]

    def weight_sums(self, w) -> np.ndarray:
        """w(Omega n B) for every sweep ball."""
        if w not in self._wsums:
            self._wsums[w] = self.cache.ball_sums(self.cell_integrals(w))
        return self._wsums[w]

    def phi_values(self, phi) -> np.ndarray:
        """phi on every sweep ball, with domain-restricted measures; it must
        be finite and > 0 on every ball that holds a cell."""
        if phi not in self._phis:
            radii = np.array([b.radius for b in self.cache.balls])
            # a ball without cells has zero measure; its value is never used
            with np.errstate(divide="ignore"):
                vals = phi.over(radii, self.weight_sums)
            _checked_phi(vals[self.cache.sizes > 0])
            self._phis[phi] = vals
        return self._phis[phi]

    def _inner_norms(self, values, w, p: float, weak: bool) -> np.ndarray:
        # the cached values array (or list) is kept alive inside the entry so
        # a freed object's id can never alias a live key
        key = (id(values), w, p, weak)
        hit = self._inner.get(key)
        if hit is not None and hit[0] is values:
            return hit[1]
        wc = self.cell_integrals(w)
        if weak:
            inner = self.cache.weak_ball_norms(np.abs(values), wc, p)
        else:
            inner = self.cache.power_sums(values, wc, p) ** (1.0 / p)
        self._inner[key] = (values, inner)
        return inner

    def attaining(self, values, w, phi, p: float, weak: bool = False):
        """The discrete Morrey norm, the max of phi^{-1} w(ball)^{-1/p}
        ||f||_ball over the balls of positive weight measure, and the index
        of the first ball that attains it: a (float, int) for one field
        (cells,), a pair of (k,) arrays for a stack (k, cells) or a list of
        k rows."""
        if p < 1:
            raise ValueError("invalid exponent")
        wsums = self.weight_sums(w)
        inner = self._inner_norms(values, w, p, weak)
        phiv = self.phi_values(phi)
        if not len(wsums):
            raise ValueError("empty sweep")
        if not (wsums > 0).any():
            raise ValueError("empty region")
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(wsums > 0, inner / (phiv * wsums ** (1.0 / p)), -np.inf)
        i = np.argmax(vals, axis=-1)
        if vals.ndim == 1:  # one field; np.ndim would stack a list
            return float(vals[i]), int(i)
        return vals.max(axis=-1), i

    def norm(self, values, w, phi, p: float, weak: bool = False):
        """``attaining(...)[0]``: a float for one field, (k,) for a stack."""
        return self.attaining(values, w, phi, p, weak)[0]


@dataclass(frozen=True)
class MorreyNorm:
    value: float
    attaining_ball: Ball | None
    weak: bool


def morrey_norm(f: SampledField, w: Weight, phi: PhiFunction, p: float,
                sweep: list[Ball], weak: bool = False) -> MorreyNorm:
    """Discrete generalized weighted Morrey norm over a ball sweep.

    Returns the max over balls of phi^{-1} w(region)^{-1/p} ||f||_{region}
    together with the attaining ball (first index wins ties).
    """
    value, i = MorreyEvaluator(f.grid, sweep).attaining(f.values, w, phi, p, weak)
    return MorreyNorm(value=value, attaining_ball=sweep[i], weak=weak)


def multi_indices(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices with |s| <= max_order, lexicographic by order."""
    out = []
    for total in range(max_order + 1):
        if dim == 1:
            out.append((total,))
        else:
            for i in range(total, -1, -1):
                out.append((i, total - i))
    return out


def sobolev_morrey_norm(jet: dict[tuple[int, ...], SampledField], w: Weight,
                        phi: PhiFunction, p: float, sweep: list[Ball], m: int) -> float:
    """Sum of Morrey norms of D^s u over all |s| <= m."""
    any_field = next(iter(jet.values()))
    dim = any_field.grid.dim
    need = multi_indices(dim, m)
    missing = [s for s in need if s not in jet]
    if missing:
        raise ValueError(f"incomplete jet: missing {missing}")
    rows = [jet[s].values for s in need]
    return float(MorreyEvaluator(any_field.grid, sweep).norm(rows, w, phi, p).sum())


# ---------------------------------------------------------------------------
# the phi-pair integral condition


@dataclass(frozen=True)
class ConditionReport:
    constant: float
    x: tuple[float, ...]
    per_r: tuple[tuple[float, float], ...]  # (r, LHS(r)/phi2(x,r))
    upper_limit: float
    truncation_sensitivity: float
    grid_sensitivity: float
    flags: tuple[str, ...]


@lru_cache(maxsize=64)
def _ball_measures(w, x: tuple, t_grid: tuple) -> np.ndarray:
    """Full-space w(B(x, t)) for every t, shared (read-only) by the
    condition checks of every phi that goes with w."""
    out = np.array([ball_measure(w, x, t) for t in t_grid])
    out.setflags(write=False)
    return out


def _fitted_constant(phi1, phi2, w, p, x, r_grid, upper_limit, points):
    r_grid = np.asarray(r_grid, dtype=float)
    fill = np.geomspace(r_grid.min(), upper_limit, points)
    t_grid = np.unique(np.concatenate([r_grid, fill]))
    key = tuple(t_grid.tolist())

    def measure(v):
        return _ball_measures(v, x, key)

    # suffix-min of phi1(x,s) w(B(x,s))^{1/p} over s >= t, divided by
    # w(B(x,t))^{1/p}, then integrated dt/t from each t to the end
    meas = measure(w) ** (1.0 / p)
    prod = _checked_phi(phi1.over(t_grid, measure)) * meas
    integrand = np.minimum.accumulate(prod[::-1])[::-1] / meas
    if not np.all(np.isfinite(integrand)):
        raise ValueError("divergent condition")
    lhs = _suffix_trapz(np.log(t_grid), integrand)
    phi2_vals = _checked_phi(phi2.over(t_grid, measure))
    idx = np.searchsorted(t_grid, r_grid)
    rows = [(float(r), float(lhs[i] / phi2_vals[i])) for r, i in zip(r_grid, idx)]
    return max(v for _, v in rows), rows


def condition_213(phi1: PhiFunction, phi2: PhiFunction, w: Weight, p: float,
                  x, r_grid, upper_limit: float, points: int = 96,
                  sensitivity_checks: bool = True) -> ConditionReport:
    """Smallest admissible constant at x for the phi-pair integral condition:

        max over r of  [ int_r^T (suffix-inf phi1 w(B)^{1/p}) / w(B(x,t))^{1/p} dt/t ]
                       / phi2(x, r)

    The inner essential infimum is a suffix minimum on a shared log grid of
    ``points`` nodes (doubled-grid agreement is checked and flagged beyond
    1%); the upper limit T truncates the paper-side infinite integral and its
    sensitivity (T vs 10 T) is always reported.
    """
    if p < 1:
        raise ValueError("invalid exponent")
    x = tuple(float(v) for v in np.atleast_1d(x))
    if min(r_grid) <= 0 or max(r_grid) >= upper_limit:
        raise ValueError("r_grid must lie inside (0, upper_limit)")
    c0, rows = _fitted_constant(phi1, phi2, w, p, x, r_grid, upper_limit, points)
    flags = []
    trunc = grid_sens = 0.0
    if sensitivity_checks:
        c_far, _ = _fitted_constant(phi1, phi2, w, p, x, r_grid,
                                    10.0 * upper_limit, points)
        trunc = abs(c_far - c0) / c0 if c0 > 0 else np.inf
        if trunc > 0.05:
            flags.append("truncation-sensitive")
        c_fine, _ = _fitted_constant(phi1, phi2, w, p, x, r_grid, upper_limit, 2 * points)
        grid_sens = abs(c_fine - c0) / c0 if c0 > 0 else np.inf
        if grid_sens > 0.01:
            flags.append("grid-sensitive")
    return ConditionReport(constant=float(c0), x=x, per_r=tuple(rows),
                           upper_limit=float(upper_limit),
                           truncation_sensitivity=float(trunc),
                           grid_sensitivity=float(grid_sens),
                           flags=tuple(flags))

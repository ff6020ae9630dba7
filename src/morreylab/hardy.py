"""Weighted Hardy operator on monotone functions and its best constant.

H_w g(r) = integral of g(t) w(t) dt over (r, d).  The two-weight inequality

    sup_r v2(r) H_w g(r)  <=  C  sup_r v1(r) g(r)      (g >= 0 nondecreasing)

holds iff B = sup_r v2(r) int_r^d w(t)/sup_{t<s<d} v1(s) dt is finite, and
C = B is best.  All essential sups run over a shared double-log grid of
(0, d) so the discrete inequality is exact by construction (conventions
1/inf = 0 and 0 * inf = 0 apply).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HardySetting",
    "HardyBound",
    "hardy_apply",
    "hardy_best_constant",
    "hardy_verify_inequality",
]


def _tabulate(func_or_values, ts: np.ndarray) -> np.ndarray:
    if callable(func_or_values):
        return np.asarray(func_or_values(ts), dtype=float) * np.ones_like(ts)
    v = np.asarray(func_or_values, dtype=float)
    if v.shape != ts.shape:
        raise ValueError("tabulated weight must match the setting grid")
    return v


@dataclass(frozen=True, eq=False)
class HardySetting:
    """Weights v1, v2, w on (0, d); callables of t or arrays on `grid`."""

    d: float
    v1: object
    v2: object
    w: object
    points: int = 2048

    @property
    def grid(self) -> np.ndarray:
        """Double-log grid: dense toward both 0 and d (sup over r needs the
        r -> 0 end; integrals need resolution near d).  The endpoint d itself
        is kept so quadratures reach the full interval."""
        half = self.points // 2
        lo = self.d * np.geomspace(1e-8, 0.5, half)
        hi = self.d * (1.0 - np.geomspace(1e-8, 0.5, half))
        return np.unique(np.concatenate([lo, hi, [self.d]]))

    def tables(self):
        ts = self.grid
        with np.errstate(divide="ignore", over="ignore"):
            v1 = _tabulate(self.v1, ts)
            v2 = _tabulate(self.v2, ts)
            w = _tabulate(self.w, ts)
        if (v1 < 0).any() or (v2 < 0).any() or (w < 0).any():
            raise ValueError("weights must be nonnegative")
        return ts, v1, v2, w


def _check_nondecreasing(g: np.ndarray):
    scale = np.abs(g).max(initial=0.0)
    if np.any(np.diff(g) < -1e-12 * max(scale, 1.0)):
        raise ValueError("monotonicity violated")


def hardy_apply(g, setting: HardySetting, r: float) -> float:
    """H_w g(r): trapezoid quadrature of g * w over (r, d)."""
    if not 0.0 < r < setting.d:
        raise ValueError("r must lie in (0, d)")
    ts, _, _, w = setting.tables()
    gv = _tabulate(g, ts)
    _check_nondecreasing(gv)
    keep = ts > r
    tq = np.concatenate([[r], ts[keep]])
    gq = np.concatenate([[np.interp(r, ts, gv)], gv[keep]])
    wq = np.concatenate([[np.interp(r, ts, w)], w[keep]])
    return float(np.trapezoid(gq * wq, tq))


def _suffix_max(a: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(a[::-1])[::-1]


def _suffix_trapz(ts: np.ndarray, f: np.ndarray) -> np.ndarray:
    """integral of f from each grid point to d (cumulative from the right)."""
    seg = 0.5 * (f[1:] + f[:-1]) * np.diff(ts)
    out = np.zeros_like(ts)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


@dataclass(frozen=True)
class HardyBound:
    value: float
    attaining_r: float
    unbounded: bool

    @property
    def status(self) -> str:
        return "unbounded" if self.unbounded else "finite"


def hardy_best_constant(setting: HardySetting) -> HardyBound:
    """Discrete sup over r of v2(r) * int_r^d w(t) / sup_{s >= t} v1(s) dt."""
    ts, v1, v2, w = setting.tables()
    sup1 = _suffix_max(v1)
    integrand = np.where(w == 0.0, 0.0,
                         np.divide(w, sup1, out=np.full_like(w, np.inf),
                                   where=sup1 > 0))
    if np.isinf(integrand).any():
        return HardyBound(value=np.inf,
                          attaining_r=float(ts[int(np.argmax(np.isinf(integrand)))]),
                          unbounded=True)
    acc = _suffix_trapz(ts, integrand)
    # 0 * inf = 0: an unbounded v2 at a point with vanishing tail integral
    with np.errstate(invalid="ignore"):
        vals = np.where(acc > 0, v2 * acc, 0.0)
    i = int(np.argmax(vals))
    return HardyBound(value=float(vals[i]), attaining_r=float(ts[i]),
                      unbounded=not np.isfinite(vals[i]))


@dataclass(frozen=True)
class HardyRow:
    label: str
    lhs: float
    rhs: float
    ratio: float
    holds: bool


@dataclass(frozen=True)
class HardyReport:
    bound: HardyBound
    rows: tuple[HardyRow, ...]
    max_ratio: float

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.rows)


def hardy_verify_inequality(setting: HardySetting, g_family) -> HardyReport:
    """Check sup v2 H_w g <= B sup v1 g, to 1e-6 relative, for each
    nondecreasing g and report the family max of LHS/RHS as an empirical
    lower bound on B."""
    bound = hardy_best_constant(setting)
    if bound.unbounded:
        raise ValueError("unbounded")
    ts, v1, v2, w = setting.tables()
    rows = []
    max_ratio = 0.0
    for label, g in g_family:
        gv = _tabulate(g, ts)
        _check_nondecreasing(gv)
        hw = _suffix_trapz(ts, gv * w)
        with np.errstate(invalid="ignore"):
            lhs = float(np.where(hw > 0, v2 * hw, 0.0).max())
        rhs = float((v1 * gv).max())
        # 0 * inf = 0 convention: zero g gives 0 <= 0
        holds = lhs <= bound.value * rhs * (1.0 + 1e-6) + 1e-300
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
        max_ratio = max(max_ratio, ratio)
        rows.append(HardyRow(label=label, lhs=lhs, rhs=rhs, ratio=ratio,
                             holds=bool(holds)))
    return HardyReport(bound=bound, rows=tuple(rows), max_ratio=float(max_ratio))

"""Fundamental solutions, model-domain Green functions, Poisson kernels, and
numerical verification of the kernel bounds.

Implemented instances of the Dirichlet problem (-Lap)^m u = f:

* interval, m = 1      (second order, absorbing ends)
* interval, m = 2      (clamped beam; cubic closed form)
* disk, m = 1          (logarithmic image formula)
* disk, m = 2          (Boggio's formula on the ball)

Each Green function is assembled as G = Gamma + h with the regular part h in
closed form, so both G and h (and their x-derivatives) are available off and
on the diagonal.  All x-derivatives come from one jet per Green function,
`jet(alphas, x, y)`: the terms they share are built once, those of a single
point on that point alone.  The derivatives are closed-form up to order 3;
disk m=2 forms order 4 as a Richardson-extrapolated central difference of
the closed-form order 3.

The closed forms are treated as hypotheses: the test suite admits them only
after they reproduce smooth solutions through the quadrature identity
u = integral of G * f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Disk, Domain, Interval, distance

__all__ = [
    "FundamentalSolution",
    "GreenFunction",
    "green_function",
    "PoissonKernel",
    "sample_pairs",
    "verify_kernel_bounds",
    "verify_poisson_bounds",
    "RegimeFit",
]


class _Terms:
    """The terms that the entries of one jet share.  Each is built on first
    use by the rule of its name, then kept; keyword arguments seed inputs."""

    def __init__(self, rules: dict, **given):
        self.__dict__.update(given, _rules=rules)

    def __getattr__(self, name):
        if name not in self._rules:
            raise AttributeError(name)
        value = self.__dict__[name] = self._rules[name](self)
        return value


# ---------------------------------------------------------------------------
# fundamental solutions of (-Lap)^m in dimension n, and their derivatives

_GAMMA1_TERMS = {"a": lambda t: np.abs(t.t), "sg": lambda t: np.sign(t.t)}

# derivatives of Gamma in 1D by order, over the offset t = x - y
_GAMMA1_FORMS = {
    1: (lambda t: -t.a / 2, lambda t: -t.sg / 2),
    2: (lambda t: t.a**3 / 12, lambda t: t.t * t.a / 4, lambda t: t.a / 2,
        lambda t: t.sg / 2),
}

_GAMMA2_TERMS = {
    "z1sq": lambda t: t.z1 * t.z1,
    "z2sq": lambda t: t.z2 * t.z2,
    "z1cu": lambda t: t.z1sq * t.z1,
    "z2cu": lambda t: t.z2sq * t.z2,
    "r2": lambda t: t.z1sq + t.z2sq,
    "r4": lambda t: t.r2 * t.r2,
    "r6": lambda t: t.r4 * t.r2,
    "inv": lambda t: 1.0 / t.r2,
    "lr2": lambda t: np.log(t.r2),
    "lr2p1": lambda t: t.lr2 + 1.0,
}

# derivatives of -2 pi Gamma = log r (m = 1)
_M1_FORMS = {
    (0, 0): lambda t: 0.5 * t.lr2,
    (1, 0): lambda t: t.z1 / t.r2,
    (0, 1): lambda t: t.z2 / t.r2,
    (2, 0): lambda t: t.inv - 2.0 * t.z1sq / t.r4,
    (1, 1): lambda t: -2.0 * t.z1 * t.z2 / t.r4,
    (0, 2): lambda t: t.inv - 2.0 * t.z2sq / t.r4,
}

# derivatives of v = r^2 log r (biharmonic fundamental solution up to 1/8pi)
_M2_FORMS = {
    (0, 0): lambda t: t.r2 * 0.5 * t.lr2,
    (1, 0): lambda t: t.z1 * t.lr2p1,
    (0, 1): lambda t: t.z2 * t.lr2p1,
    (2, 0): lambda t: t.lr2p1 + 2.0 * t.z1sq / t.r2,
    (1, 1): lambda t: 2.0 * t.z1 * t.z2 / t.r2,
    (0, 2): lambda t: t.lr2p1 + 2.0 * t.z2sq / t.r2,
    (3, 0): lambda t: 6.0 * t.z1 / t.r2 - 4.0 * t.z1cu / t.r4,
    (2, 1): lambda t: 2.0 * t.z2 / t.r2 - 4.0 * t.z1sq * t.z2 / t.r4,
    (1, 2): lambda t: 2.0 * t.z1 / t.r2 - 4.0 * t.z2sq * t.z1 / t.r4,
    (0, 3): lambda t: 6.0 * t.z2 / t.r2 - 4.0 * t.z2cu / t.r4,
    (4, 0): lambda t: 6.0 / t.r2 - 24.0 * t.z1sq / t.r4 + 16.0 * (t.z1sq * t.z1sq) / t.r6,
    (3, 1): lambda t: -12.0 * t.z1 * t.z2 / t.r4 + 16.0 * t.z1cu * t.z2 / t.r6,
    (2, 2): lambda t: -2.0 / t.r2 + 16.0 * t.z1sq * t.z2sq / t.r6,
    (1, 3): lambda t: -12.0 * t.z1 * t.z2 / t.r4 + 16.0 * t.z2cu * t.z1 / t.r6,
    (0, 4): lambda t: 6.0 / t.r2 - 24.0 * t.z2sq / t.r4 + 16.0 * (t.z2sq * t.z2sq) / t.r6,
}


class FundamentalSolution:
    """Gamma with (-Lap)^m Gamma = delta; supported (n, m) pairs:
    (1,1), (1,2), (2,1), (2,2)."""

    def __init__(self, dim: int, m: int):
        if (dim, m) not in {(1, 1), (1, 2), (2, 1), (2, 2)}:
            raise ValueError("no fundamental solution implemented")
        self.dim = dim
        self.m = m

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.derivative((0,) * self.dim, z)

    def derivative(self, alpha: tuple[int, ...], z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.dim == 1:
                out = self._forms(z.reshape(-1) if z.ndim else z[None])(tuple(alpha))
                return out.reshape(z.shape) if z.ndim else out[0]
            out = self._forms(*np.moveaxis(np.atleast_2d(z), -1, 0))(tuple(alpha))
        return out if z.ndim > 1 else out[0]

    def _forms(self, *z):
        """alpha -> D^alpha Gamma, from terms of z shared by all alphas; z
        holds one coordinate array per axis, which broadcast together."""
        if self.dim == 1:
            t = _Terms(_GAMMA1_TERMS, t=z[0])
            forms = _GAMMA1_FORMS[self.m]
            return lambda a: forms[a[0]](t) if a[0] < len(forms) else np.zeros_like(z[0])
        t = _Terms(_GAMMA2_TERMS, z1=z[0], z2=z[1])
        if self.m == 1:
            return lambda a: -_M1_FORMS[a](t) / (2.0 * np.pi)
        return lambda a: _M2_FORMS[a](t) / (8.0 * np.pi)


# ---------------------------------------------------------------------------
# Green functions


def _pairs(x, y, dim):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    x, y = np.broadcast_arrays(x, y)
    if x.shape[-1] != dim:
        raise ValueError("point dimension mismatch")
    if np.any(np.all(np.isclose(x, y, rtol=0, atol=1e-15), axis=-1)):
        raise ValueError("on-diagonal")
    return x, y


_BLOCK_ENTRIES = 1 << 15  # kernel entries a pairwise driver holds per array


def _row_blocks(n: int):
    """Yield the row slices of an n x n pairwise kernel sum: each holds the
    largest power of two of rows with rows * n <= _BLOCK_ENTRIES, and at
    least one row.  A power of two because a one-column OpenBLAS product
    kept its bits at 8 to 64 rows (on node counts a multiple of 4), so the
    solver's values do not move with the grid's block size there."""
    rows = 1 << max((_BLOCK_ENTRIES // n).bit_length() - 1, 0)
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


class GreenFunction:
    """Common interface: jet(alphas, x, y), and its one-alpha wrappers
    __call__(x, y), derivative(alpha, x, y), regular_part(x, y) and
    regular_derivative(alpha, x, y)."""

    domain: Domain
    m: int

    @property
    def dim(self):
        return self.domain.dim

    @property
    def gamma(self) -> FundamentalSolution:
        return FundamentalSolution(self.dim, self.m)

    def jet(self, alphas, x, y, regular: bool = False):
        """Yield (alpha, D^alpha_x G(x, y)) for each alpha in turn, or the
        derivatives of the regular part h alone when `regular`; dict() of it
        maps each alpha to its array.

        Meant for unbroadcast operands x (b, 1, d) and y (1, n, d): the
        terms of one point are built on the b or n points, the pair terms
        once for all alphas, and each (b, n) entry when it is asked for
        (disk m=2 builds its order-4 entries together, as they share their
        stencil points).  On the diagonal, Gamma's entries are inf or nan."""
        alphas = [tuple(a) for a in alphas]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
        h = self._regular(alphas, x, y)
        if not regular:
            gam = self.gamma._forms(*np.moveaxis(x - y, -1, 0))
        for a in alphas:
            with np.errstate(divide="ignore", invalid="ignore"):
                if regular:
                    v = h(a)
                else:
                    v = gam(a)
                    v += h(a)
            yield a, v if np.shape(v) == shape else np.broadcast_to(v, shape).copy()

    def __call__(self, x, y):
        return self.derivative((0,) * self.dim, x, y)

    def derivative(self, alpha, x, y):
        x, y = _pairs(x, y, self.dim)
        return next(self.jet([alpha], x, y))[1]

    def regular_part(self, x, y):
        return self.regular_derivative((0,) * self.dim, x, y)

    def regular_derivative(self, alpha, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return next(self.jet([alpha], x, y, regular=True))[1]

    def _unit(self, p):
        """Points in the unit model domain: t in [0, 1], or the coordinate
        pair of a point of the unit disk."""
        if isinstance(self.domain, Interval):
            return (p[..., 0] - self.domain.a) / self.domain.diameter
        u = (p - np.asarray(self.domain.center)) / self.domain.radius
        return u[..., 0], u[..., 1]


class IntervalGreen1(GreenFunction):
    """-u'' = f on (a,b), u(a) = u(b) = 0."""

    def __init__(self, domain: Interval):
        self.domain = domain
        self.m = 1

    def _regular(self, alphas, x, y):
        xi, eta = self._unit(x), self._unit(y)
        L = self.domain.diameter

        def h(alpha):
            if alpha[0] == 0:
                return L * ((xi + eta) / 2.0 - xi * eta)
            return 0.5 - eta if alpha[0] == 1 else np.zeros(())
        return h


class IntervalGreen2(GreenFunction):
    """Clamped beam u'''' = f on (a,b), u = u' = 0 at both ends."""

    def __init__(self, domain: Interval):
        self.domain = domain
        self.m = 2

    # regular part and x-derivatives on the unit interval (polynomials
    # generated symbolically from the x <= y branch of the cubic closed form)
    @staticmethod
    def _h_unit(k, x, y):
        if k == 0:
            return (-x**3 * y**3 / 3 + x**3 * y**2 / 2 - x**3 / 12 + x**2 * y**3 / 2
                    - x**2 * y**2 + x**2 * y / 4 + x * y**2 / 4 - y**3 / 12)
        if k == 1:
            return (-x**2 * y**3 + 1.5 * x**2 * y**2 - x**2 / 4 + x * y**3
                    - 2 * x * y**2 + x * y / 2 + y**2 / 4)
        if k == 2:
            return -2 * x * y**3 + 3 * x * y**2 - x / 2 + y**3 - 2 * y**2 + y / 2
        if k == 3:
            return -2 * y**3 + 3 * y**2 - 0.5 + 0.0 * x
        return 0.0 * x

    def _regular(self, alphas, x, y):
        xi, eta = self._unit(x), self._unit(y)
        L = self.domain.diameter
        return lambda a: L ** (3 - a[0]) * self._h_unit(a[0], xi, eta)


_DISK1_TERMS = {
    "x2": lambda t: t.x[0] * t.x[0] + t.x[1] * t.x[1],
    "e2": lambda t: t.e[0] * t.e[0] + t.e[1] * t.e[1],
    "A2": lambda t: t.x2 * t.e2 - 2.0 * (t.x[0] * t.e[0] + t.x[1] * t.e[1]) + 1.0,
    "A4": lambda t: t.A2 * t.A2,
    "eA": lambda t: t.e2 / t.A2,
    "g": lambda t: [t.x[i] * t.e2 - t.e[i] for i in (0, 1)],  # d(A^2)/d(xi_i) / 2
}


class DiskGreen1(GreenFunction):
    """-Lap u = f on a disk, u = 0 on the boundary (image formula)."""

    def __init__(self, domain: Disk):
        self.domain = domain
        self.m = 1

    def _regular(self, alphas, x, y):
        # A^2 = |xi|^2 |eta|^2 - 2 xi.eta + 1 = |xi-eta|^2 + (1-|xi|^2)(1-|eta|^2)
        t = _Terms(_DISK1_TERMS, x=self._unit(x), e=self._unit(y))
        R = self.domain.radius
        c = 2.0 * np.pi

        def h(alpha):
            if sum(alpha) == 0:
                return (0.5 * np.log(t.A2) + np.log(R)) / c
            if sum(alpha) == 1:
                return t.g[0 if alpha[0] else 1] / t.A2 / c / R
            if alpha == (1, 1):
                return (-2.0 * t.g[0] * t.g[1] / t.A4) / c / R**2
            if sum(alpha) == 2:
                g = t.g[0 if alpha[0] else 1]
                return (t.eA - 2.0 * g * g / t.A4) / c / R**2
            raise ValueError(f"derivative order {alpha} not available for disk m=1")
        return h


_DISK2_TERMS = {
    "x2": lambda t: t.x[0] * t.x[0] + t.x[1] * t.x[1],
    "Qe": lambda t: 1.0 - (t.e[0] * t.e[0] + t.e[1] * t.e[1]),
    "add": lambda t: 2.0 * (1.0 - t.Qe),
    "d": lambda t: [t.x[i] - t.e[i] for i in (0, 1)],
    "s": lambda t: t.d[0] * t.d[0] + t.d[1] * t.d[1],
    "q": lambda t: (1.0 - t.x2) * t.Qe,
    "A": lambda t: t.s + t.q,
    "A2": lambda t: t.A * t.A,
    # pow, not A2 * A: the order-4 difference amplifies a last-bit change
    # of A^3 to 3e-10 of a fitted kernel-bound constant
    "A3": lambda t: t.A**3,
    "u": lambda t: np.log(t.A),
    "P": lambda t: t.s / 2.0,
    "xQ": lambda t: [2.0 * t.x[i] * t.Qe for i in (0, 1)],
    "Ad": lambda t: [2.0 * t.d[i] - t.xQ[i] for i in (0, 1)],
    "AdA": lambda t: [t.Ad[i] / t.A for i in (0, 1)],
    "addA": lambda t: t.add / t.A,
    "X": lambda t: {(i, j): t.Ad[i] * t.Ad[j] / t.A2 for i, j in ((0, 0), (0, 1), (1, 1))},
}


def _disk2_partial(t, alpha):
    """x-partial of the unit-disk regular part h = (q/2 - P log A)/(8 pi) for
    |alpha| <= 3.  P = s/2 and A = s + q are quadratic in x, so their third
    partials vanish and the chain rule terminates: P has partials d_i and
    delta_ij, A has Ad_i and delta_ij * add."""
    idx = [ax for ax in (0, 1) for _ in range(alpha[ax])]
    if not idx:
        val = t.q / 2.0 - t.P * t.u
    elif len(idx) == 1:
        (i,) = idx
        val = -t.xQ[i] / 2.0 - t.d[i] * t.u - t.P * t.Ad[i] / t.A
    elif len(idx) == 2:
        i, j = idx
        val = -2.0 * t.Qe / 2.0 - t.u if i == j else 0.0
        val = (val - t.d[i] * t.Ad[j] / t.A - t.d[j] * t.Ad[i] / t.A
               - t.P * ((t.addA if i == j else 0.0) - t.X[i, j]))
    else:
        i, j, l = idx
        d, Ad, AdA, X = t.d, t.Ad, t.AdA, t.X
        val = (-(AdA[l] if i == j else 0.0)
               - (AdA[j] if i == l else 0.0)
               - d[i] * ((t.addA if j == l else 0.0) - X[j, l])
               - (AdA[i] if j == l else 0.0)
               - d[j] * ((t.addA if i == l else 0.0) - X[i, l])
               - d[l] * ((t.addA if i == j else 0.0) - X[i, j])
               - t.P * (-(t.add * Ad[l] / t.A2 if i == j else 0.0)
                        - ((t.add * Ad[j] if i == l else 0.0)
                           + (Ad[i] * t.add if j == l else 0.0)) / t.A2
                        + 2.0 * Ad[i] * Ad[j] * Ad[l] / t.A3))
    return val / (8.0 * np.pi)


def _disk2_fourth(t, alphas) -> dict:
    """Order-4 partials (unit disk) as one central difference of the
    closed-form order 3, Richardson-extrapolated over steps h and h/2.  The
    step stays below the pair separation and inside the disk (the continued
    formula degenerates at the exterior image points).  The terms of each
    stencil point are built once for every alpha that differences along
    its axis."""
    step = np.minimum(2e-3, np.minimum(np.sqrt(t.s) / 8.0, (1.0 - np.sqrt(t.x2)) / 4.0))
    step = np.maximum(step, 1e-6)
    diffs = {a: [] for a in alphas}
    for h in (step, step / 2.0):
        for axis in sorted({0 if a[0] else 1 for a in alphas}):
            along = [a for a in alphas if (a[0] > 0) == (axis == 0)]
            rests = [(a[0] - 1, a[1]) if axis == 0 else (a[0], a[1] - 1) for a in along]
            x = list(t.x)
            x[axis] = t.x[axis] + h
            side = _Terms(_DISK2_TERMS, x=x, e=t.e, Qe=t.Qe, add=t.add)
            plus = [0.5 * _disk2_partial(side, r) for r in rests]
            x[axis] = t.x[axis] - h
            side = _Terms(_DISK2_TERMS, x=x, e=t.e, Qe=t.Qe, add=t.add)
            for a, r, p in zip(along, rests, plus):
                diffs[a].append((p - 0.5 * _disk2_partial(side, r)) / h)
    return {a: (4.0 * f2 - f1) / 3.0 for a, (f1, f2) in diffs.items()}


class DiskGreen2(GreenFunction):
    """Clamped plate Lap^2 u = f on a disk (ball formula).

    h and its x-derivatives up to order 3 are closed-form; order 4 is a
    Richardson central difference of order 3 with a diagonal-aware step.
    """

    def __init__(self, domain: Disk):
        self.domain = domain
        self.m = 2

    def _regular(self, alphas, x, y):
        t = _Terms(_DISK2_TERMS, x=self._unit(x), e=self._unit(y))
        R = self.domain.radius
        fourth = {}

        def h(alpha):
            k = sum(alpha)
            if k > 4:
                raise ValueError(f"derivative order {alpha} not available for disk m=2")
            if k == 4 and not fourth:
                fourth.update(_disk2_fourth(t, [a for a in alphas if sum(a) == 4]))
            return R ** (2 - k) * (fourth[alpha] if k == 4 else _disk2_partial(t, alpha))
        return h


def green_function(domain: Domain, m: int) -> GreenFunction:
    if isinstance(domain, Interval) and m == 1:
        return IntervalGreen1(domain)
    if isinstance(domain, Interval) and m == 2:
        return IntervalGreen2(domain)
    if isinstance(domain, Disk) and m == 1:
        return DiskGreen1(domain)
    if isinstance(domain, Disk) and m == 2:
        return DiskGreen2(domain)
    raise ValueError("no Green function")


# ---------------------------------------------------------------------------
# Poisson kernel (disk, m = 1: harmonic measure)


@dataclass(frozen=True)
class PoissonKernel:
    domain: Disk

    def __post_init__(self):
        if not isinstance(self.domain, Disk):
            raise ValueError("Poisson kernel implemented for disk")

    def __call__(self, x, P):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        P = np.atleast_2d(np.asarray(P, dtype=float))
        c = np.asarray(self.domain.center)
        R = self.domain.radius
        num = R**2 - ((x - c) ** 2).sum(-1)
        den = ((x - P) ** 2).sum(-1)
        return num / (2.0 * np.pi * R * den)

    def boundary_nodes(self, count: int):
        """Equispaced boundary points and the arclength weight."""
        th = (np.arange(count) + 0.5) * (2.0 * np.pi / count)
        c = np.asarray(self.domain.center)
        P = c[None, :] + self.domain.radius * np.column_stack([np.cos(th), np.sin(th)])
        return P, 2.0 * np.pi * self.domain.radius / count


# ---------------------------------------------------------------------------
# kernel-bound verification


def _pair_positions(domain: Domain) -> list[np.ndarray]:
    """Ordered base positions: deep-interior lattice points interleaved with
    boundary anchors at nested depths, finest depth first (the regular-part
    and singular bounds approach their sups in the boundary-layer limit).

    The depth floor d/2048 is a fitting-protocol constant, not a grid
    property: grids floor the pair separation, while a grid-tied depth floor
    would make fitted constants incomparable across refinement levels.
    """
    from .geometry import nested_log_radii, sweep_centers

    interior = sweep_centers(domain, 7)
    interior = list(interior[np.argsort(-domain.boundary_distance(interior), kind="stable")])
    layers = []
    for i, delta in enumerate(nested_log_radii(domain.diameter / 4.0,
                                               domain.diameter / 2048.0, 1)):
        if isinstance(domain, Interval):
            layers.append(np.array([domain.a + delta]))
            layers.append(np.array([domain.b - delta]))
        else:
            c = np.asarray(domain.center)
            for k in range(4):
                th = np.pi / 16.0 + i * np.pi / 8.0 + k * np.pi / 2.0
                layers.append(c + (domain.radius - delta)
                              * np.array([np.cos(th), np.sin(th)]))
    out = []
    for i in range(max(len(interior), len(layers))):
        if i < len(interior):
            out.append(interior[i])
        if i < len(layers):
            out.append(layers[i])
    return out


def _direction_fan(domain: Domain, b: np.ndarray, n_dir: int) -> np.ndarray:
    if isinstance(domain, Interval):
        return np.array([[1.0], [-1.0]])
    c = np.asarray(domain.center)
    v = b - c
    nrm = np.hypot(v[0], v[1])
    # anchor the fan to the inward normal near the boundary, to the axes in
    # the deep interior (mixed-derivative shapes peak on axis diagonals)
    phi0 = np.arctan2(v[1], v[0]) + np.pi if nrm > 0.5 * domain.radius else 0.0
    th = phi0 + np.arange(n_dir) * (2.0 * np.pi / n_dir)
    return np.column_stack([np.cos(th), np.sin(th)])


def sample_pairs(domain: Domain, count: int, seed: int, min_sep: float) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal point pairs for sup fitting.

    Nine tenths form a deterministic configuration lattice, complete at every
    budget: nested log separations crossed with base positions (interior plus
    boundary-depth anchors) and direction fans, denser as `count` grows.  The
    remainder is seeded random draws, log-uniform in separation with half the
    bases pulled toward the boundary.  Sups over the lattice saturate, which
    is what makes fitted constants comparable across sample sizes and grids.
    """
    from .geometry import nested_log_radii

    rng = np.random.default_rng(seed)
    d = domain.diameter
    budget = int(0.9 * count)
    floor = d / 2048.0  # fixed protocol floor: keeps fits comparable across N
    seps = nested_log_radii(d / 2.0, min_sep, 2)
    n_dir = 2 if domain.dim == 1 else 8
    n_pos = max(2, budget // (max(len(seps), 1) * n_dir))
    positions = np.array(_pair_positions(domain)[:n_pos])
    fans = np.stack([_direction_fan(domain, b, n_dir) for b in positions])
    # (sep, position, direction) lattice, kept where y stays off the boundary
    ys = positions[None, :, None, :] + seps[:, None, None, None] * fans[None]
    xs = np.broadcast_to(positions[None, :, None, :], ys.shape)
    ys, xs = ys.reshape(-1, domain.dim), xs.reshape(-1, domain.dim)
    keep = domain.boundary_distance(ys) >= floor
    xs, ys = [xs[keep][:budget]], [ys[keep][:budget]]
    have = len(xs[0])

    def draw_interior(k):
        if isinstance(domain, Interval):
            return rng.uniform(domain.a, domain.b, size=(k, 1))
        c = np.asarray(domain.center)
        u = rng.uniform(-1, 1, size=(2 * k, 2)) * domain.radius
        u = u[np.hypot(u[:, 0], u[:, 1]) < domain.radius][:k]
        while len(u) < k:
            extra = rng.uniform(-1, 1, size=(k, 2)) * domain.radius
            extra = extra[np.hypot(extra[:, 0], extra[:, 1]) < domain.radius]
            u = np.vstack([u, extra])[:k]
        return c[None, :] + u

    while have < count:
        k = count
        x = draw_interior(k)
        if rng.uniform() < 0.5:
            delta = np.exp(rng.uniform(np.log(min_sep), np.log(d / 4), size=k))
            if isinstance(domain, Interval):
                side = rng.integers(0, 2, size=k)
                x = np.where(side[:, None] == 0, domain.a + delta[:, None],
                             domain.b - delta[:, None])
            else:
                c = np.asarray(domain.center)
                v = x - c[None, :]
                nrm = np.maximum(np.hypot(v[:, 0], v[:, 1]), 1e-12)
                x = c[None, :] + v / nrm[:, None] * (domain.radius - delta)[:, None]
        r = np.exp(rng.uniform(np.log(min_sep), np.log(d), size=k))
        if isinstance(domain, Interval):
            sign = rng.choice([-1.0, 1.0], size=k)
            y = x + (sign * r)[:, None]
        else:
            th = rng.uniform(0, 2 * np.pi, size=k)
            y = x + np.column_stack([r * np.cos(th), r * np.sin(th)])
        ok = domain.boundary_distance(y) >= floor
        xs.append(x[ok])
        ys.append(y[ok])
        have += len(xs[-1])
    return np.concatenate(xs)[:count], np.concatenate(ys)[:count]


@dataclass(frozen=True)
class RegimeFit:
    regime: str
    alpha: tuple[int, ...]
    constant: float
    pairs_used: int


def verify_kernel_bounds(domain: Domain, m: int, x: np.ndarray, y: np.ndarray,
                         alphas) -> list[RegimeFit]:
    """Fit the implicit constant of every applicable derivative-bound regime
    as the empirical sup of |LHS| / shape over the pair sample.

    Regimes, by k = |alpha| against 2m - n: bounded (k < 2m-n), logarithmic
    (k = 2m-n), power |x-y|^{2m-n-k} (k > 2m-n), the min{1, d/|x-y|}^m form
    at k = 2m (fitted in both the d(x) and d(y) readings, which the source
    states ambiguously), and the regular-part bound d(x)^{2m-n-k} for
    k > 2m-n+1 on pairs with |x-y| <= d(x).
    """
    gf = green_function(domain, m)
    n = domain.dim
    d = domain.diameter
    x, y = _pairs(x, y, n)
    sep = distance(x, y)
    dx = domain.boundary_distance(x)
    dy = domain.boundary_distance(y)
    near = sep <= dx
    high = [a for a in alphas if sum(a) > 2 * m - n + 1] if near.any() else []
    regular = dict(gf.jet(high, x[near], y[near], regular=True))
    fits = []
    for alpha, vals in gf.jet(alphas, x, y):
        k = sum(alpha)
        vals = np.abs(vals)
        if k < 2 * m - n:
            fits.append(RegimeFit("bounded", alpha, float(vals.max()), len(x)))
        elif k == 2 * m - n:
            shape = np.log(2.0 * d / sep)
            fits.append(RegimeFit("log", alpha, float((vals / shape).max()), len(x)))
        else:
            shape = sep ** (2 * m - n - k)
            fits.append(RegimeFit("power", alpha, float((vals / shape).max()), len(x)))
        if k == 2 * m:
            for tag, dd in (("min-dx", dx), ("min-dy", dy)):
                shape = np.minimum(1.0, dd / sep) ** m / sep**n
                fits.append(RegimeFit(f"singular-{tag}", alpha,
                                      float((vals / shape).max()), len(x)))
        if alpha in regular:
            hv = np.abs(regular[alpha])
            shape = dx[near] ** (2 * m - n - k)
            fits.append(RegimeFit("regular-part", alpha,
                                  float((hv / shape).max()), int(near.sum())))
    if not fits:
        raise ValueError("regime not applicable")
    return fits


def verify_poisson_bounds(domain: Disk, count: int, seed: int) -> dict:
    """Fit C in |K_0(x,P)| <= C d(x)/|x-P|^n over interior x and boundary P,
    and check the harmonic-measure normalization at a probe point."""
    kern = PoissonKernel(domain)
    rng = np.random.default_rng(seed)
    c = np.asarray(domain.center)
    R = domain.radius
    rho = R * np.sqrt(rng.uniform(0, 1, count)) * (1 - 1e-9)
    th = rng.uniform(0, 2 * np.pi, count)
    x = c[None, :] + np.column_stack([rho * np.cos(th), rho * np.sin(th)])
    # push a quarter of the probes very close to the boundary (sharpness)
    x[: count // 4] = c[None, :] + (R - np.geomspace(1e-6 * R, 0.2 * R, count // 4))[:, None] * \
        np.column_stack([np.cos(th[: count // 4]), np.sin(th[: count // 4])])
    phb = rng.uniform(0, 2 * np.pi, count)
    P = c[None, :] + R * np.column_stack([np.cos(phb), np.sin(phb)])
    vals = np.abs(kern(x, P))
    dxs = domain.boundary_distance(x)
    sep = distance(x, P)
    fitted = float((vals * sep**2 / dxs).max())
    nodes, wgt = kern.boundary_nodes(4096)
    probe = c + np.array([0.5 * R, 0.0])
    normalization = float(kern(probe[None, :], nodes).sum() * wgt)
    return {"fitted": fitted, "normalization": normalization,
            "center_value": float(kern(c[None, :], nodes[:1])[0])}

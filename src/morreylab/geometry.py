"""Model domains, uniform grids, sampled fields and midpoint quadrature.

Everything downstream (weights, norms, operators, the solver) computes on the
cell-center grids defined here.  Conventions used throughout the package:

* a cell belongs to a region iff its *center* does (open-ball membership,
  ``|node - center| < r``),
* quadrature is the midpoint rule ``sum f(node) * cell_measure``,
* grid nodes are strictly interior to their cells, so no node falls exactly
  on a domain boundary,
* a point is an array whose last axis holds its coordinates, 1D included:
  a point (dim,) gives a scalar, a stack (..., dim) gives one value per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Interval",
    "Disk",
    "Ball",
    "Grid",
    "SampledField",
    "distance",
    "integrate",
    "ball_sweep",
    "nested_sweep",
]


@dataclass(frozen=True)
class Interval:
    """1D model domain (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("interval needs b > a")

    @property
    def dim(self) -> int:
        return 1

    @property
    def diameter(self) -> float:
        return self.b - self.a

    @property
    def volume(self) -> float:
        return self.b - self.a

    @property
    def bounding_box(self) -> tuple[tuple[float, float], ...]:
        return ((self.a, self.b),)

    def boundary_distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., 0]
        return np.minimum(x - self.a, self.b - x)

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.boundary_distance(x) > 0.0


@dataclass(frozen=True)
class Disk:
    """2D model domain: open disk of given center and radius."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk needs radius > 0")

    @property
    def dim(self) -> int:
        return 2

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def volume(self) -> float:
        return np.pi * self.radius**2

    @property
    def bounding_box(self) -> tuple[tuple[float, float], ...]:
        cx, cy = self.center
        r = self.radius
        return ((cx - r, cx + r), (cy - r, cy + r))

    def boundary_distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.radius - np.hypot(x[..., 0] - self.center[0], x[..., 1] - self.center[1])

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.boundary_distance(x) > 0.0


Domain = Interval | Disk


@dataclass(frozen=True)
class Ball:
    """Open ball B(center, radius); in 1D the center is a length-1 tuple."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball needs radius > 0")


def distance(x, y) -> np.ndarray:
    """|x - y| over the last axis, the leading axes broadcast: the squared
    coordinate differences summed in axis order, then the square root.  In
    1D and 2D these are the bits of numpy's vector 2-norm of x - y along
    that axis, without its reduction over a short axis or its temporaries
    of shape (..., dim).  A single point gives a 0-d array, not a numpy
    scalar, so that ufuncs applied to the result round a point as they
    round a stack (scalar arithmetic such as ``**`` may not)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # a view of a (..., 1) difference: an array even for a point, so the
    # in-place updates below and the root keep it one
    s = np.subtract(x[..., :1], y[..., :1])[..., 0]
    s *= s
    for i in range(1, x.shape[-1]):
        d = x[..., i] - y[..., i]
        d *= d
        s += d
    return np.sqrt(s, out=s)


def _as_point(x, dim: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.shape != (dim,):
        raise ValueError(f"point of dimension {p.shape} on a {dim}D domain")
    return p


def cell_lattice(box, n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Centers of the n cells per axis of a box: their coordinates along each
    axis, and all of them as an (n**dim, dim) array, last axis fastest."""
    axes = tuple(lo + (np.arange(n) + 0.5) * (hi - lo) / n for lo, hi in box)
    return axes, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform cell-centered grid over the bounding box of a domain.

    ``n`` cells per axis; cells outside the domain are masked out.  An
    explicit ``box`` may enlarge the embedding box (used for zero-extension
    tests); it must contain the domain's bounding box.
    """

    domain: Domain
    n: int
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs n >= 2 cells per axis")

    @cached_property
    def _box(self) -> tuple[tuple[float, float], ...]:
        return self.box if self.box is not None else self.domain.bounding_box

    @cached_property
    def h(self) -> float:
        """Cell width (same along every axis; enforced via the box)."""
        widths = [(hi - lo) / self.n for lo, hi in self._box]
        if max(widths) - min(widths) > 1e-12 * max(widths):
            raise ValueError("embedding box must yield square cells")
        return widths[0]

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def cell_measure(self) -> float:
        return self.h**self.dim

    @cached_property
    def _lattice(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        return cell_lattice(self._box, self.n)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates along each axis."""
        return self._lattice[0]

    @property
    def lattice_nodes(self) -> np.ndarray:
        """All cell centers of the embedding box, shape (n**dim, dim)."""
        return self._lattice[1]

    @cached_property
    def lattice_mask(self) -> np.ndarray:
        return self.domain.contains(self.lattice_nodes)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Masked cell centers, shape (n_cells, dim)."""
        return self.lattice_nodes[self.lattice_mask]

    @property
    def n_cells(self) -> int:
        return int(self.lattice_mask.sum())

    @cached_property
    def boundary_dist(self) -> np.ndarray:
        """dist(node, boundary) for every masked node."""
        return self.domain.boundary_distance(self.nodes)

    def in_ball(self, center, radius: float) -> np.ndarray:
        """Boolean mask over masked nodes: |node - center| < radius."""
        return distance(self.nodes, _as_point(center, self.dim)) < radius

    def embed(self, values: np.ndarray) -> np.ndarray:
        """Scatter masked-cell values, (cells,) or a stack (k, cells), onto
        the full lattice (zero outside), (n,) * dim or (k,) + (n,) * dim."""
        values = np.asarray(values)
        flat = np.zeros(values.shape[:-1] + self.lattice_mask.shape)
        flat[..., self.lattice_mask] = values
        return flat.reshape(values.shape[:-1] + (self.n,) * self.dim)

    def extract(self, lattice: np.ndarray) -> np.ndarray:
        """The masked cells of a lattice, or of each lattice of a stack."""
        lattice = np.asarray(lattice)
        stack = lattice.shape[:lattice.ndim - self.dim]
        return lattice.reshape(stack + self.lattice_mask.shape)[..., self.lattice_mask]


@dataclass(frozen=True, eq=False)
class SampledField:
    """Real values on the masked cells of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError("values must match the grid's masked cells")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid, func) -> "SampledField":
        """Sample func(x1, ..., x_dim), one coordinate array per axis."""
        return cls(grid, np.asarray(func(*grid.nodes.T), dtype=float))

    def __add__(self, other: "SampledField") -> "SampledField":
        return SampledField(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledField") -> "SampledField":
        return SampledField(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "SampledField":
        return SampledField(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __abs__(self) -> "SampledField":
        return SampledField(self.grid, np.abs(self.values))


def region_mask(grid: Grid, region: Ball | None) -> np.ndarray:
    """Cells whose centers lie in the region (whole domain when None).

    Raises ValueError("empty region") when no cell center falls inside.
    """
    if region is None:
        return np.ones(grid.n_cells, dtype=bool)
    sel = grid.in_ball(region.center, region.radius)
    if not sel.any():
        raise ValueError("empty region")
    return sel


def integrate(f: SampledField, region: Ball | None = None) -> float:
    """Midpoint quadrature of f over region ∩ domain."""
    sel = region_mask(f.grid, region)
    return float(f.values[sel].sum() * f.grid.cell_measure)


def sweep_centers(domain: Domain, centers_per_axis: int) -> np.ndarray:
    """The centers of a cell lattice over the domain's bounding box that lie
    inside the domain, (k, dim)."""
    pts = cell_lattice(domain.bounding_box, centers_per_axis)[1]
    return pts[domain.contains(pts)]


def log_radii(r_min: float, r_max: float, count: int) -> np.ndarray:
    """Log-spaced radii in [r_min, r_max], last one exactly r_max."""
    if count < 2:
        raise ValueError("need at least 2 radii")
    r = np.geomspace(r_min, r_max, count)
    r[-1] = r_max
    return r


def nested_log_radii(r_max: float, r_min: float, per_octave: int = 4) -> np.ndarray:
    """r_max * 2^{-j/q} down to r_min, anchored at r_max: refining a grid
    (smaller r_min) only appends radii, so sups over these grids are
    monotone across refinement levels and their trends are comparable."""
    j = np.arange(int(np.ceil(per_octave * np.log2(r_max / r_min))) + 1)
    r = r_max * 2.0 ** (-j / per_octave)
    return r[r >= r_min * (1 - 1e-12)][::-1].copy()


def centered_sweep(grid: Grid, centers_per_axis: int, radii) -> list[Ball]:
    """Every radius at every center of the uniform sub-grid of sweep
    centers, center by center."""
    return [Ball(tuple(float(v) for v in c), float(r))
            for c in sweep_centers(grid.domain, centers_per_axis) for r in radii]


def ball_sweep(grid: Grid, centers_per_axis: int, radii_count: int) -> list[Ball]:
    """Discretize sup over (x, r): centers on a uniform sub-grid of the
    domain times log-spaced radii in [h, diam], including r = diam exactly."""
    if centers_per_axis < 2 or radii_count < 2:
        raise ValueError("sweep counts must be >= 2")
    return centered_sweep(grid, centers_per_axis,
                          log_radii(grid.h, grid.domain.diameter, radii_count))


def nested_sweep(grid: Grid, centers_per_axis: int) -> list[Ball]:
    """Morrey sweep whose ball set at a finer grid contains the coarser
    one: fixed centers, three radii per octave anchored at the diameter
    (sups become monotone across refinement levels, so trends measure
    convergence)."""
    return centered_sweep(grid, centers_per_axis,
                          nested_log_radii(grid.domain.diameter, grid.h, 3))

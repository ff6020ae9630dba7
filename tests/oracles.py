"""Brute-force direct-summation oracles.

Written before (and independently of) the vectorized package code.  Every
oracle is a plain Python loop over cells, using only the shared discrete
model: midpoint quadrature, cell-in-region-by-center, lattice balls on
integer cell offsets, analytic 1D power antiderivatives, 8x oversampled
midpoint for 2D weight cells.
"""

from __future__ import annotations

import math


def dist(p, q) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def cells_in_region(nodes, center, radius) -> list[int]:
    if center is None:
        return list(range(len(nodes)))
    return [i for i, p in enumerate(nodes) if dist(p, center) < radius]


def integrate(nodes, values, cell_measure, center=None, radius=None) -> float:
    total = 0.0
    for i in cells_in_region(nodes, center, radius):
        total += values[i] * cell_measure
    return total


def ball_sums(nodes, values, balls) -> list[float]:
    """Correctly rounded sum (math.fsum) of values over the cells of each
    (center, radius) ball."""
    return [math.fsum(values[i] for i in cells_in_region(nodes, c, r)) for c, r in balls]


def power_antiderivative(t: float, gamma: float) -> float:
    # odd antiderivative of |t|^gamma, valid for gamma > -1
    return math.copysign(abs(t) ** (gamma + 1.0) / (gamma + 1.0), t)


def power_cell_integral_1d(lo: float, hi: float, x0: float, gamma: float) -> float:
    if gamma > -1.0:
        return power_antiderivative(hi - x0, gamma) - power_antiderivative(lo - x0, gamma)
    if lo - x0 <= 0.0 <= hi - x0:
        # non-integrable singular cell: midpoint fallback
        mid = 0.5 * (lo + hi)
        return abs(mid - x0) ** gamma * (hi - lo)
    return power_antiderivative(hi - x0, gamma) - power_antiderivative(lo - x0, gamma)


def weight_cell_integrals(nodes, h, weight_eval, dim, analytic_1d=None):
    """Per-cell integrals of a weight.

    analytic_1d: optional (x0, gamma) for exact 1D power integration;
    otherwise 8x oversampled midpoint in every dimension.
    """
    out = []
    for p in nodes:
        if dim == 1 and analytic_1d is not None:
            x0, gamma = analytic_1d
            out.append(power_cell_integral_1d(p[0] - h / 2, p[0] + h / 2, x0, gamma))
        else:
            k = 8
            s = 0.0
            if dim == 1:
                for i in range(k):
                    x = p[0] - h / 2 + (i + 0.5) * h / k
                    s += weight_eval((x,)) * (h / k)
            else:
                for i in range(k):
                    for j in range(k):
                        x = p[0] - h / 2 + (i + 0.5) * h / k
                        y = p[1] - h / 2 + (j + 0.5) * h / k
                        s += weight_eval((x, y)) * (h / k) ** 2
            out.append(s)
    return out


def weight_measure(nodes, wcells, center=None, radius=None) -> float:
    total = 0.0
    for i in cells_in_region(nodes, center, radius):
        total += wcells[i]
    return total


def lp_weighted_norm(nodes, values, wcells, p, center=None, radius=None) -> float:
    total = 0.0
    for i in cells_in_region(nodes, center, radius):
        total += abs(values[i]) ** p * wcells[i]
    return total ** (1.0 / p)


def weak_lp_weighted_norm(nodes, values, wcells, p, center=None, radius=None) -> float:
    """sup over t of t * w({|f| >= t})^{1/p}, t running over the field values
    (the left-limit realization of the strict-level-set sup)."""
    sel = cells_in_region(nodes, center, radius)
    best = 0.0
    for i in sel:
        t = abs(values[i])
        if t == 0.0:
            continue
        mass = 0.0
        for j in sel:
            if abs(values[j]) >= t:
                mass += wcells[j]
        best = max(best, t * mass ** (1.0 / p))
    return best


def weak_norm_dense_t(nodes, values, wcells, p, t_grid, center=None, radius=None) -> float:
    sel = cells_in_region(nodes, center, radius)
    best = 0.0
    for t in t_grid:
        if t <= 0:
            continue
        mass = 0.0
        for j in sel:
            if abs(values[j]) > t:
                mass += wcells[j]
        best = max(best, t * mass ** (1.0 / p))
    return best


def morrey_norm(nodes, values, wcells, p, phi_eval, balls, weak=False):
    """max over balls of phi^{-1} * w(region)^{-1/p} * inner norm; returns
    (value, index of attaining ball), first index winning ties."""
    best, best_i = 0.0, -1
    for bi, (center, radius) in enumerate(balls):
        wm = weight_measure(nodes, wcells, center, radius)
        if wm <= 0.0:
            continue
        if weak:
            inner = weak_lp_weighted_norm(nodes, values, wcells, p, center, radius)
        else:
            inner = lp_weighted_norm(nodes, values, wcells, p, center, radius)
        val = inner / (phi_eval(center, radius) * wm ** (1.0 / p))
        if val > best:
            best, best_i = val, bi
    return best, best_i


def lattice_r2(a, b, h) -> float:
    """Squared length of the offset from cell b to cell a (integer lattice
    indices): the squares of k * h summed in axis order.  o * o is what
    numpy's o**2 gives on an array."""
    r2 = 0.0
    for i, j in zip(a, b):
        o = (i - j) * h
        r2 += o * o
    return r2


def ball_averages_lattice(cells, values, h, radii, centers=None) -> list[list[float]]:
    """At each center cell (default: every cell), for each radius t, the
    |values| sum over the cells whose offset has lattice_r2 < t**2 (t**2 on
    one float, as the package squares a radius), times h^dim over the full
    ball volume.  `cells` are the integer lattice indices of the values."""
    dim = len(cells[0])
    vol = {1: 2.0, 2: math.pi}[dim]
    out = []
    for a in cells if centers is None else centers:
        near = [(lattice_r2(a, b, h), abs(v)) for b, v in zip(cells, values)]
        row = []
        for t in radii:
            t = float(t)
            t2 = t ** 2
            s = math.fsum(v for r2, v in near if r2 < t2)
            row.append(s * h ** dim / (vol * t ** dim))
        out.append(row)
    return out


def maximal_lattice(cells, values, h, radii, centers=None) -> list[float]:
    """Mf at each center cell: the sup over radii of ball_averages_lattice."""
    return [max([0.0] + row) for row in ball_averages_lattice(cells, values, h, radii, centers)]


def maximal_singular_lattice(cells, values, h, kernel, eps_grid, centers=None) -> list[float]:
    """K*f at each center cell (default: every cell): the sup over eps of
    |sum of kernel(offset * h) * values * h^dim| over the cells whose
    offset has lattice_r2 >= eps**2.  kernel takes one offset as a tuple
    of floats; it is evaluated once per integer offset, and never inside
    the smallest truncation (where the zero offset lies)."""
    dim = len(cells[0])
    eps_grid = [float(e) for e in eps_grid]
    smallest = min(eps_grid) ** 2
    memo = {}
    out = []
    for a in cells if centers is None else centers:
        terms = []
        for b, v in zip(cells, values):
            r2 = lattice_r2(a, b, h)
            if r2 < smallest:
                continue
            off = tuple(i - j for i, j in zip(a, b))
            if off not in memo:
                memo[off] = kernel(tuple(k * h for k in off))
            terms.append((r2, memo[off] * v))
        best = 0.0
        for e in eps_grid:
            e2 = e ** 2
            best = max(best, abs(math.fsum(t for r2, t in terms if r2 >= e2)))
        out.append(best * h ** dim)
    return out


def ap_expression(nodes, wcells, wconj_cells, p, center, radius, cell_measure):
    """A_p product over one ball, averaging against the measure of the
    selected cell union.  Returns None for balls containing no cell."""
    sel = cells_in_region(nodes, center, radius)
    if not sel:
        return None
    meas = len(sel) * cell_measure
    iw = 0.0
    iconj = 0.0
    for i in sel:
        iw += wcells[i]
        iconj += wconj_cells[i]
    return (iw / meas) * (iconj / meas) ** (p - 1.0)


def hardy_best_constant(ts, v1, v2, w) -> float:
    """Discrete eqH2 sup on a shared grid: suffix ess sup of v1, trapezoid
    cumulative integral of w/sup, sup over grid r of v2 * integral."""
    K = len(ts)
    sup1 = [0.0] * K
    run = 0.0
    for i in range(K - 1, -1, -1):
        run = max(run, v1[i])
        sup1[i] = run
    integrand = [w[i] / sup1[i] if sup1[i] > 0 else (0.0 if w[i] == 0 else math.inf)
                 for i in range(K)]
    best = 0.0
    for i in range(K):
        acc = 0.0
        for j in range(i, K - 1):
            acc += 0.5 * (integrand[j] + integrand[j + 1]) * (ts[j + 1] - ts[j])
        best = max(best, v2[i] * acc)
    return best


def condition_213_powerlaw_constant(lam: float, n: int, p: float) -> float:
    """Closed-form fitted constant for w == 1 and phi = r^{(lam-n)/p}."""
    return p / (n - lam)


def lemma22_sides(nodes, dists, h_n, green_deriv, f, g, Mf, Mg):
    """Double sums over D = {(i,j): |x_i - y_j| > d(x_i)} for Lemma 2.2."""
    lhs = 0.0
    rhs1 = 0.0
    rhs2 = 0.0
    m = len(nodes)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if dist(nodes[i], nodes[j]) > dists[i]:
                lhs += abs(green_deriv(nodes[i], nodes[j]) * f[j] * g[i]) * h_n * h_n
                rhs1 += Mf[j] * abs(g[i]) * h_n * h_n
                rhs2 += Mg[i] * abs(f[j]) * h_n * h_n
    return lhs, rhs1 + rhs2


def pair_lattice(domain, positions, fans, seps, floor, budget):
    """The configuration lattice of sample_pairs, one candidate pair at a
    time: separations outermost, then base positions, then each position's
    direction fan; a pair is kept when y = b + sep * v lies at least `floor`
    inside the domain."""
    xs, ys = [], []
    for sep in seps:
        for b, fan in zip(positions, fans):
            for v in fan:
                y = b + sep * v
                if domain.boundary_distance(y) >= floor:
                    xs.append(b)
                    ys.append(y)
    return xs[:budget], ys[:budget]


def harmonic_completion(center, radius, nodes, boundary_data):
    """H = Re F on the disk and its first derivatives, F(zeta) = c0 + sum
    2 g_k zeta^k from the boundary values at the midpoint angles; Horner
    for F and F' out of place, each step a fresh array."""
    import numpy as np

    M = len(boundary_data)
    ghat = np.fft.rfft(boundary_data) / M
    ghat *= np.exp(-1j * np.arange(len(ghat)) * np.pi / M)
    coeff = 2.0 * ghat
    coeff[0] = ghat[0].real
    keep = np.nonzero(np.abs(coeff) > 1e-15 * np.abs(coeff).max())[0]
    coeff = coeff[: int(keep[-1]) + 1 if len(keep) else 1]
    zeta = ((nodes[:, 0] - center[0]) + 1j * (nodes[:, 1] - center[1])) / radius
    F = np.zeros_like(zeta)
    Fp = np.zeros_like(zeta)
    for c in coeff[::-1]:
        Fp = Fp * zeta + F
        F = F * zeta + c
    return F.real, Fp.real / radius, -Fp.imag / radius


def ball_measure_polar(w, x, r, quad=96):
    """Full-space w(B(x, r)) of a 2D point x by midpoint quadrature: quad
    radii by 2 * quad angles, the nodes built by meshgrid and stacked as an
    (quad * 2 * quad, 2) array."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    rho = (np.arange(quad) + 0.5) * (r / quad)
    th = (np.arange(2 * quad) + 0.5) * (2 * np.pi / (2 * quad))
    rr, tt = np.meshgrid(rho, th, indexing="ij")
    pts = np.column_stack([
        (x[0] + rr * np.cos(tt)).ravel(),
        (x[1] + rr * np.sin(tt)).ravel(),
    ])
    vals = w(pts).reshape(quad, 2 * quad)
    return float((vals * rho[:, None]).sum() * (r / quad) * (2 * np.pi / (2 * quad)))


def condition_rows(phi1, phi2, measure, p, r_grid, upper_limit, points):
    """(r, LHS(r) / phi2(r)) of condition (2.13) at a point x, by plain loops.

    The t grid is the r grid and `points` log-spaced nodes from the least r
    to upper_limit, sorted without repeats.  measure(t) gives w(B(x, t)),
    and phi1, phi2 are callables (t, w(B(x, t))).  LHS(r) is the trapezoid
    in log t, from r to upper_limit, of the min over s >= t of
    phi1(s) w(B(x, s))^{1/p}, divided by w(B(x, t))^{1/p}."""
    import numpy as np

    fill = np.geomspace(min(r_grid), upper_limit, points).tolist()
    ts = sorted({float(r) for r in r_grid} | set(fill))
    meas = [measure(t) for t in ts]
    K = len(ts)
    integrand = []
    for i in range(K):
        low = math.inf
        for j in range(i, K):
            low = min(low, phi1(ts[j], meas[j]) * meas[j] ** (1.0 / p))
        integrand.append(low / meas[i] ** (1.0 / p))
    rows = []
    for r in r_grid:
        i = ts.index(float(r))
        acc = 0.0
        for j in range(i, K - 1):
            acc += (0.5 * (integrand[j] + integrand[j + 1])
                    * (math.log(ts[j + 1]) - math.log(ts[j])))
        rows.append((float(r), acc / phi2(ts[i], meas[i])))
    return rows

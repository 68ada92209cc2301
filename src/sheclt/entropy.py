"""Covering and packing numbers, chaining bounds, and function-class entropy.

Covering numbers use open balls centered at points of the space; packing
numbers use strict separation.  The two quantities sandwich each other,

    N(2r) <= P(r) <= N(r/2),

which holds exactly and is brute-force checkable on small spaces.  The
greedy evaluators (farthest-point covering, index-scan packing) are cheap
certified bounds: greedy covering >= true minimum, greedy packing is a
valid packing.  Brute force takes over up to ``EXACT_LIMIT`` points: one
pass over all subsets gives the smallest covering radius and the largest
separation of each subset size, hence the exact N(r) and P(r) at every
radius a caller needs.  The farthest-point centers do not depend on the
radius either, so one traversal gives the greedy covering count at every
radius.

Every space, dense or sampled, gives its rows through one exact in-place
method, ``lower(i, running, reach)``: it sets ``running[j] =
min(running[j], d(i, j))`` for every point j.  The covering and packing
scans keep their running distances that way, and a sampled class may skip
the points whose cheap lower bound on d(i, j) already reaches
``running[j]``.  ``reach`` is at least max(running): no point at distance
``reach`` or more from i can be lowered, so the sampled classes sweep only
the window of their parameter grid within reach of point i (the scale
class always, the box class in d = 1, the shift class for n <= pi/2).  The
farthest-point covering passes its covering radius, which is exactly
max(running); the packing scan passes infinity and sweeps the whole cloud.

The chaining machinery bounds the expected maximal increment of a process
X over pairs at distance <= delta by

    32 * int_0^{delta/4} tau(N(r)^2) dr,

with tau(lambda) = int_0^inf (lambda Psi(u) ^ 1) du built from the Gaussian
tail Psi(u) = 2(1 - Phi(u)) of the normalized increments.  The explicit
chain of nested nets behind the bound is built separately and checked by
its telescoping identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, CovarianceNotPSD

EXACT_LIMIT = 12
# elements of the (n, k, n) triangle-inequality temporary per block of middle points
_TRIANGLE_BLOCK = 1 << 20
# points of the scale class's reach window swept per block in ``lower``
_SCALE_BLOCK = 8192


@dataclass
class FiniteMetricSpace:
    """A validated distance matrix; points are its row indices.

    ``symmetric`` records whether the matrix equals its transpose exactly;
    validation accepts one symmetric only to rounding.
    """

    dist: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.dist, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("metric space: distance matrix must be square")
        mt = m.T
        # m == m.T entry for entry, not only to rounding; the test below ORs in m == mt
        self.symmetric = bool(np.array_equal(m, mt))
        if not self.symmetric:
            with np.errstate(invalid="ignore"):  # inf - inf; equal infinities pass by ==
                # np.allclose(m, m.T, rtol=1e-5, atol=1e-12) elementwise; NaN fails
                close = (np.abs(m - mt) <= 1e-12 + 1e-5 * np.abs(mt)) & np.isfinite(mt) | (m == mt)
            if not close.all():
                raise ConfigError("metric space: distance matrix must be symmetric")
        if (np.diag(m) != 0.0).any():
            raise ConfigError("metric space: diagonal must vanish")
        if (m < 0.0).any():
            raise ConfigError("metric space: distances must be nonnegative")
        n = m.shape[0]
        # triangle inequality m[i, j] <= m[i, k] + m[k, j] + 1e-9 (1 + m[i, j]),
        # broadcast over (i, k, j) for a block of middle points k at a time
        bound = (1e-9 * (1.0 + m))[:, None, :]
        step = max(1, _TRIANGLE_BLOCK // max(1, n * n))
        for k in range(0, n, step):
            via = m[:, k:k + step, None] + m[None, k:k + step, :]
            if (m[:, None, :] > via + bound).any():
                raise ConfigError("metric space: triangle inequality violated")
        self.dist = m

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    def lower(self, i: int, running: np.ndarray, reach: float) -> None:
        np.minimum(running, self.dist[i], out=running)

    def diameter(self) -> float:
        return float(self.dist.max())

    @classmethod
    def from_points(cls, points: np.ndarray) -> "FiniteMetricSpace":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points[:, None, :] - points[None, :, :]
        return cls(dist=np.sqrt(np.sum(diff * diff, axis=-1)))


def _radii(r, who: str) -> np.ndarray:
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1 or radii.size == 0 or not np.all((radii > 0.0) & (radii < np.inf)):
        raise ConfigError(f"{who}: radii must be finite and positive")
    return radii


def _as_given(r, counts):
    """An int for a scalar radius, a list in input order for a sequence."""
    counts = np.ravel(counts)
    return int(counts[0]) if np.ndim(r) == 0 else counts.tolist()


def covering_number(space, r):
    """Greedy farthest-point covering count with open balls of radius r.

    An upper bound on the true minimum; exact when r exceeds the diameter or
    sits below the smallest positive distance.  The next center is always
    the uncovered point farthest from the chosen centers, lowest index on
    ties (the empty center set leaves every point at infinite distance, so
    the first center is point 0).

    That center is the global farthest point (while any point is uncovered,
    the largest distance to the centers is >= r), so the centers do not
    depend on r and N(r) is the first k whose covering radius is below r.  A
    scalar r gives an int; a 1-d sequence gives the counts in input order
    from one traversal, run down to the smallest radius.  Each center costs
    one ``space.lower`` call, handed the covering radius max(min_dist) as
    its reach, and the next center's distance is the new covering radius.
    """
    radii = _radii(r, "covering_number")
    min_dist = np.full(space.n_points, np.inf)
    reach = [np.max(min_dist, initial=-np.inf)]  # covering radius after k centers
    center = 0
    while reach[-1] >= radii.min():
        space.lower(center, min_dist, reach=float(reach[-1]))
        center = int(min_dist.argmax())  # argmax takes the lowest index on ties
        reach.append(min_dist[center])
    return _as_given(r, np.searchsorted(-np.asarray(reach), -radii, side="right"))


def _greedy_packing(space, r: float) -> list[int]:
    """Index scan keeping each point farther than r from all kept points."""
    chosen: list[int] = []
    sep = np.full(space.n_points, np.inf)
    for i in range(space.n_points):
        if sep[i] > r:
            chosen.append(i)
            space.lower(i, sep, math.inf)
    return chosen


def packing_number(space, r):
    """Greedy index-scan packing count: pairwise distances strictly above r.

    A valid (inclusion-maximal) packing, hence a lower bound on the maximum.
    Takes a scalar or a 1-d sequence of radii, as ``covering_number`` does.
    """
    radii = _radii(r, "packing_number")
    return _as_given(r, [len(_greedy_packing(space, x)) for x in radii.ravel()])


@functools.cache
def _size_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The subsets of n points ordered by size (stably), and where each size starts."""
    size = np.bitwise_count(np.arange(1 << n))
    starts = np.concatenate([[0], np.cumsum(np.bincount(size, minlength=n + 1))[:-1]])
    order = np.argsort(size, kind="stable")
    order.flags.writeable = starts.flags.writeable = False  # shared by every caller
    return order, starts


def _subset_extremes(space: FiniteMetricSpace, who: str) -> tuple[np.ndarray, np.ndarray]:
    """Smallest covering radius and largest separation over k-subsets, k = 0..n.

    One pass over all 2^n subsets S (bit i of S is point i), built from
    S' = S minus its highest point i:

        near[S, j] = min_{c in S} d(c, j)        (and d(j, c) in the second half)
        rho(S) = max_j near[S, j]                (covering radius; -inf for no points)
        mu(S) = min(mu(S'), near[S', i], near[S', n + i])   (min pairwise distance)

    The separation takes each stored distance in both orders, as a pairwise
    test does, so it stays exact on matrices symmetric only to rounding.  An
    exactly symmetric matrix has no second half: there d(j, c) = d(c, j) and
    min(x, x) = x.
    """
    n = space.n_points
    if n > EXACT_LIMIT:
        raise ConfigError(f"{who}: limited to {EXACT_LIMIT} points")
    rows = space.dist if space.symmetric else np.hstack([space.dist, space.dist.T])
    near = np.full((1 << n, rows.shape[1]), np.inf)
    mu = np.full(1 << n, np.inf)
    for i in range(n):
        lo, hi = slice(0, 1 << i), slice(1 << i, 2 << i)
        np.minimum(near[lo], rows[i], out=near[hi])
        to_i = near[lo, i] if space.symmetric else np.minimum(near[lo, i], near[lo, n + i])
        np.minimum(mu[lo], to_i, out=mu[hi])
    rho = np.max(near[:, :n], axis=1, initial=-np.inf)
    order, starts = _size_order(n)
    return np.minimum.reduceat(rho[order], starts), np.maximum.reduceat(mu[order], starts)


def covering_number_exact(space: FiniteMetricSpace, r):
    """Minimum open-ball covering count by exhaustive subset search (small spaces).

    N(r) is the least k whose best k-subset covering radius is below r; the
    best radius only falls as k grows, so one subset pass answers every
    radius (scalar or 1-d sequence, as in ``covering_number``).
    """
    radii = _radii(r, "covering_number_exact")
    best_rho, _ = _subset_extremes(space, "covering_number_exact")
    return _as_given(r, _exact_covering(best_rho, radii))


def _exact_covering(best_rho: np.ndarray, radii: np.ndarray) -> np.ndarray:
    return np.searchsorted(-best_rho, -radii, side="right")


def _exact_packing(best_mu: np.ndarray, radii: np.ndarray) -> np.ndarray:
    return np.maximum(np.searchsorted(-best_mu[1:], -radii, side="left"), 1)


def packing_number_exact(space: FiniteMetricSpace, r):
    """Maximum strictly-r-separated subset size by exhaustive search (small spaces).

    P(r) is the largest k, and at least 1, whose best k-subset separation
    exceeds r; one subset pass answers every radius.
    """
    radii = _radii(r, "packing_number_exact")
    _, best_mu = _subset_extremes(space, "packing_number_exact")
    return _as_given(r, _exact_packing(best_mu, radii))


@dataclass
class SandwichResult:
    n_2r: int
    p_r: int
    n_half_r: int
    holds: bool
    exact: bool


def sandwich_check(space: FiniteMetricSpace, r: float) -> SandwichResult:
    """Evaluate N(2r) <= P(r) <= N(r/2); exact values on small spaces.

    On small spaces one subset pass gives all three values.  On larger
    spaces the greedy values are reported and flagged as bounds (greedy
    covering overestimates, greedy packing underestimates, so a greedy
    'holds' is not a certificate there).
    """
    exact = space.n_points <= EXACT_LIMIT
    if exact:
        radii = _radii([2 * r, r / 2, r], "sandwich_check")
        best_rho, best_mu = _subset_extremes(space, "sandwich_check")
        n2, nh = _exact_covering(best_rho, radii[:2]).tolist()
        p = int(_exact_packing(best_mu, radii[2]))
    else:
        (n2, nh), p = covering_number(space, [2 * r, r / 2]), packing_number(space, r)
    return SandwichResult(n_2r=n2, p_r=p, n_half_r=nh, holds=n2 <= p <= nh, exact=exact)


# -- the chaining bound --


def gaussian_tau(lam: float) -> float:
    """tau(lambda) = int_0^inf (lambda Psi(u) ^ 1) du for the Gaussian tail
    Psi(u) = 2(1 - Phi(u)): lambda sqrt(2/pi) up to lambda = 1, and above it
    2 lambda phi(u*) with u* = Phi^{-1}(1 - 1/(2 lambda))."""
    if lam < 0.0:
        raise ConfigError("tau: lambda must be nonnegative")
    if lam <= 1.0:
        return lam * math.sqrt(2.0 / math.pi)
    u_star = ndtri(1.0 - 1.0 / (2.0 * lam))
    return 2.0 * lam * math.exp(-0.5 * u_star * u_star) / math.sqrt(2.0 * math.pi)


def chaining_bound(space: FiniteMetricSpace, delta: float) -> float:
    """32 * int_0^{delta/4} tau(N(r)^2) dr, exact for the piecewise-constant N.

    N is constant between sorted pairwise distances, so the integral is a
    finite sum given the covering evaluator (exact N on small spaces, greedy
    above, which only enlarges it, with every breakpoint from one traversal).
    """
    if not 0.0 < delta <= space.diameter():
        raise ConfigError("chaining_bound: need 0 < delta <= diameter")
    upper = delta / 4.0
    dists = np.unique(space.dist)
    edges = np.concatenate([[0.0], dists[(dists > 0.0) & (dists < upper)], [upper]])
    count = covering_number_exact if space.n_points <= EXACT_LIMIT else covering_number
    total = 0.0
    for a, b, nb in zip(edges[:-1], edges[1:], count(space, edges[1:])):
        total += (b - a) * gaussian_tau(float(nb) ** 2)
    return 32.0 * total


@dataclass
class Chain:
    """Nested nets, their scales ``eps``, and each net's nearest-point projection."""

    nets: list[list[int]]
    projections: list[np.ndarray]
    eps: list[float]

    def chain_of(self, t: int) -> list[int]:
        """Indices t_0, ..., t_M = t walking the projections down to the root."""
        path = [t]
        for level in range(len(self.nets) - 1, 0, -1):
            path.append(int(self.projections[level - 1][path[-1]]))
        return list(reversed(path))


def chain_construct(space: FiniteMetricSpace) -> Chain:
    """Nets at scales 2^{-n} diameter with separation, covering, and
    eventual-equality properties.

    Each net is an inclusion-maximal greedy packing, so its covering radius
    is at most its separation scale; once the scale drops below the smallest
    positive distance the net is the whole space and the chain stabilizes.
    """
    n = space.n_points
    diam = space.diameter()
    if diam == 0.0 or n == 1:
        return Chain(nets=[[0]], projections=[], eps=[0.0])
    # no packing separates two points at distance 0, so no net reaches all n
    same = np.argwhere(np.triu(space.dist == 0.0, k=1))
    if same.size:
        pairs = ", ".join(f"{i} = {j}" for i, j in same)
        raise ConfigError(f"chain_construct: coincident points (distance 0): {pairs}")
    nets = []
    eps_list = []
    level = 0
    while True:
        eps = 2.0**-level * diam
        chosen = _greedy_packing(space, eps)
        nets.append(chosen)
        eps_list.append(eps)
        if len(chosen) == n:
            break
        level += 1
        if level > 200:
            raise ConfigError("chain_construct: scale ladder failed to exhaust the space")
    projections = []
    for net in nets:
        sub = space.dist[:, net]
        projections.append(np.asarray(net)[np.argmin(sub, axis=1)])  # lowest index wins ties
    return Chain(nets=nets, projections=projections, eps=eps_list)


# -- function classes with parameter-space samplers --


class PointCloud:
    """Sampled class with closed-form rows (no dense matrix).

    ``lower(i, running, reach)`` is the space method of the module
    docstring: it lowers ``running`` in place to the distances from point i
    wherever they are smaller, exactly.  ``reach`` must be at least
    max(running).
    """

    def __init__(self, lower, n_points):
        self.lower = lower
        self.n_points = n_points


def _reach_window(i: int, cells: float, size: int) -> slice:
    """The points within ``cells`` grid steps of point i on a 1-d grid of
    ``size`` points (``cells`` may be infinite), padded by 2 steps against
    rounding and clipped to the grid."""
    w = math.floor(min(cells, size)) + 2
    return slice(max(i - w, 0), min(i + w + 1, size))


class BoxClass:
    """Indicators 1_{[0, y]} for y in [0, m]^d under the L2 metric.

    Distances are square roots of symmetric-difference volumes; the covering
    number grows like r^{-2d}.  In d = 1 the distance is sqrt|y - y'|, so
    only the points with |y - y_i| < reach^2 can be lowered and ``lower``
    sweeps that window of the grid; in d >= 2 it sweeps the whole cloud.
    """

    expected_exponent = -2.0  # per dimension count: -2d with the default d=1

    def __init__(self, m: float, d: int = 1):
        if m <= 0.0 or d < 1:
            raise ConfigError("box class: m must be positive, d at least 1")
        self.m, self.d = float(m), int(d)
        self.expected_exponent = -2.0 * d

    def sample(self, metric_resolution: float) -> PointCloud:
        # metric step between adjacent corners ~ sqrt(d m^{d-1} delta)
        delta = metric_resolution**2 / (self.d * max(self.m, 1.0) ** (self.d - 1))
        axis = np.arange(0.0, self.m + delta / 2.0, delta)
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vol = np.prod(pts, axis=1)

        def lower(i, running, reach):
            win = slice(None)
            if self.d == 1:
                win = _reach_window(i, reach * reach / delta, axis.size)
            mins = np.minimum(pts[win], pts[i])
            row = np.sqrt(np.maximum(vol[win] + vol[i] - 2.0 * np.prod(mins, axis=1), 0.0))
            np.minimum(running[win], row, out=running[win])

        return PointCloud(lower, pts.shape[0])


class ShiftClass:
    """Shifts u -> sin(u - a) for a in [-n, n] under the Lipschitz norm.

    |g_a - g_b|_Lip = |sin a - sin b| + 2 |sin((a-b)/2)| in closed form;
    covering numbers grow like 1/r.  For n <= pi/2 every |a - b| <= pi, where
    the distance is at least (2/pi)|a - b|, so only the points with
    |a - a_i| < (pi/2) reach can be lowered and ``lower`` sweeps that window
    of the grid; for larger n it sweeps the whole cloud.
    """

    expected_exponent = -1.0

    def __init__(self, n: float = 1.0):
        if n <= 0.0:
            raise ConfigError("shift class: n must be positive")
        self.n = float(n)

    def sample(self, metric_resolution: float) -> PointCloud:
        delta = metric_resolution / 4.0  # metric <= 2 |a - b|
        a = np.arange(-self.n, self.n + delta / 2.0, delta)
        sin_a = np.sin(a)

        def lower(i, running, reach):
            win = slice(None)
            if self.n <= 0.5 * math.pi:
                win = _reach_window(i, 0.5 * math.pi * reach / delta, a.size)
            row = np.abs(sin_a[win] - sin_a[i]) + 2.0 * np.abs(np.sin(0.5 * (a[win] - a[i])))
            np.minimum(running[win], row, out=running[win])

        return PointCloud(lower, a.size)


class ScaleClass:
    """Dilations u -> b g(u/a), g = sqrt(1+u^2), a in [1/m, m], b in [b_lo, n].

    The Lipschitz metric |b g(./a) - B g(./A)|_Lip = |b - B| +
    sup_u |(b/a) g'(u/a) - (B/A) g'(u/A)| is evaluated on a saturating
    logarithmic u-grid (g' tends to +-1, so the sup is attained at finite u
    or in the limit, included as an extra column).  g' is odd, so the
    difference at -u is the exact negation of the one at u and the grid
    keeps u > 0 only.  Sampling is uniform in (1/a, b), where the metric
    has bounded anisotropy.  The exponent window keeps b away from 0, where
    every member collapses to the zero function and the pinched geometry
    contaminates finite-radius counts.

    The limit column plus the b term, |bq - BQ| + |b - B| with q = 1/a, is
    an exact lower bound on every distance.  ``lower`` takes the full sup
    only where that bound is below the running distance: elsewhere the true
    distance cannot lower it.  Such a point is within the reach (at least
    max(running)) of the center in both terms, so ``lower`` looks only at the
    window of the q-major (q, b) grid spanning the b-columns within reach
    of B and, over those columns, the q-rows with |bq - BQ| < reach.  The
    window is padded by 2 cells against rounding and clipped at the grid's
    edges (an infinite reach gives the whole cloud); it is swept in blocks
    of at most ``_SCALE_BLOCK`` points through buffers allocated once per
    sample.  The only cloud-sized arrays are the slope table (each u-row is
    b q times a factor of q alone, written straight into it; a last row
    holds b) and the grid of flat point indices: sampling and ``lower``
    make no cloud-sized temporary.
    """

    expected_exponent = -2.0
    m, n, b_lo, n_u = 2.0, 3.0, 1.0, 10  # n_u: points of the logarithmic u-grid

    def sample(self, metric_resolution: float) -> PointCloud:
        # metric is <= 1.2 n Lipschitz in q = 1/a and <= (1 + m) in b
        lip = max(1.2 * self.n, 1.0 + self.m)
        delta = metric_resolution / lip
        q = np.arange(1.0 / self.m, self.m + delta / 2.0, delta)
        b = np.arange(self.b_lo, self.n + delta / 2.0, delta)
        nq, nb = q.size, b.size
        u = np.geomspace(0.08, 8.0 * self.m, self.n_u)
        # rows over the q-major (q, b) grid: the limit column b q (the
        # u -> infinity slope), one row per u-column, then b for the b term
        slopes = np.empty((self.n_u + 2, nq, nb))
        bq = np.multiply(q[:, None], b, out=slopes[0])
        v = u[:, None] * q
        np.multiply(bq, (v / np.sqrt(1.0 + v * v))[:, :, None], out=slopes[1:-1])
        slopes[-1] = b
        slopes = slopes.reshape(self.n_u + 2, nq * nb)
        index = np.arange(nq * nb).reshape(nq, nb)
        block = max(_SCALE_BLOCK, nb)  # at least one q-row per block
        bound, below = np.empty(block), np.empty(block, dtype=bool)
        table = np.empty((self.n_u + 2) * block)
        q0, b0 = float(q[0]), float(b[0])

        def cell(x, origin, size):
            """Grid cell holding x, clipped to [-1, size] (x may be infinite)."""
            return math.floor(min(max((x - origin) / delta, -1.0), size))

        def lower(i, running, reach):
            iq, ib = divmod(i, nb)
            bi, bqi = float(b[ib]), float(bq[iq, ib])
            c0 = max(cell(bi - reach, b0, nb) - 2, 0)
            c1 = min(cell(bi + reach, b0, nb) + 3, nb)
            r0 = max(cell((bqi - reach) / b[c1 - 1], q0, nq) - 2, 0)
            r1 = min(cell((bqi + reach) / b[c0], q0, nq) + 3, nq)
            width = c1 - c0
            db = np.abs(b[c0:c1] - bi)  # the b term along the window's columns
            running_qb = running.reshape(nq, nb)
            step = block // width
            for s in range(r0, r1, step):
                e = min(s + step, r1)
                size = (e - s) * width
                bnd = bound[:size].reshape(e - s, width)
                np.subtract(bq[s:e, c0:c1], bqi, out=bnd)
                np.abs(bnd, out=bnd)
                bnd += db
                mask = below[:size].reshape(e - s, width)
                np.less(bnd, running_qb[s:e, c0:c1], out=mask)
                near = index[s:e, c0:c1][mask]
                diff = table[:(self.n_u + 2) * near.size].reshape(self.n_u + 2, near.size)
                # mode="clip" writes straight into out; every index is in range
                slopes.take(near, axis=1, out=diff, mode="clip")
                diff -= slopes[:, i, None]
                np.abs(diff, out=diff)
                # the max over the slope rows is exact in any order; the last row is the b term
                d = diff[:-1].max(axis=0)
                d += diff[-1]
                running[near] = np.minimum(running[near], d, out=d)

        return PointCloud(lower, nq * nb)


@dataclass
class ExponentFit:
    slope: float
    radii: np.ndarray
    counts: np.ndarray


def covering_exponent(cls, r_grid) -> ExponentFit:
    """Log-log least-squares slope of greedy covering numbers over r_grid,
    on the class sampled at metric resolution min(r)/4."""
    r_grid = np.sort(_radii(r_grid, "covering_exponent"))
    if np.unique(r_grid).size < 2:
        raise ConfigError("covering_exponent: need at least two distinct radii for a slope")
    cloud = cls.sample(float(r_grid[0]) / 4.0)
    counts = np.array(covering_number(cloud, r_grid), dtype=float)
    slope, _ = np.polyfit(np.log(r_grid), np.log(counts), 1)
    return ExponentFit(slope=float(slope), radii=r_grid, counts=counts)


# -- empirical check of the chaining bound --


@dataclass
class ChainingCheckResult:
    empirical: float
    bound: float
    violated: bool
    psd_corrected: bool
    n_replicas: int


def chaining_empirical_check(
    space: FiniteMetricSpace, delta: float, n_replicas: int, seed: int = 0
) -> ChainingCheckResult:
    """Simulate the Gaussian process with |X_s - X_t|_2 = d(s,t) and compare
    the empirical expected maximal increment at scale delta with the bound.

    The covariance comes from the basepoint (Gromov) form; metrics that do
    not embed in L2 get their spectrum clipped at zero and are flagged.
    """
    if n_replicas < 2:
        raise ConfigError("chaining_empirical_check: need at least 2 replicas")
    n = space.n_points
    d0 = space.dist[0]
    cov = 0.5 * (d0[:, None] ** 2 + d0[None, :] ** 2 - space.dist**2)
    vals, vecs = np.linalg.eigh(cov)
    psd_corrected = bool(vals.min() < -1e-10 * max(vals.max(), 1.0))
    if psd_corrected:
        import warnings

        warnings.warn("metric does not embed in L2; clipping spectrum", CovarianceNotPSD, stacklevel=2)
    vals = np.clip(vals, 0.0, None)
    transform = vecs * np.sqrt(vals)[np.newaxis, :]
    pairs = np.argwhere((space.dist <= delta) & (space.dist > 0.0))
    rng = np.random.default_rng(seed)
    if pairs.size == 0:
        empirical = 0.0
    else:
        z = rng.standard_normal((n_replicas, n))
        x = z @ transform.T
        empirical = float(np.mean(np.max(np.abs(x[:, pairs[:, 0]] - x[:, pairs[:, 1]]), axis=1)))
    bound = chaining_bound(space, delta)
    return ChainingCheckResult(
        empirical=empirical, bound=bound, violated=empirical > bound,
        psd_corrected=psd_corrected, n_replicas=n_replicas,
    )

"""Entropy machinery: covering/packing, sandwich, chains, exponents, bounds."""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate

from sheclt import entropy
from sheclt.cli import dispatch
from sheclt.entropy import (
    EXACT_LIMIT,
    BoxClass,
    FiniteMetricSpace,
    ScaleClass,
    ShiftClass,
    chain_construct,
    chaining_bound,
    chaining_empirical_check,
    covering_exponent,
    covering_number,
    covering_number_exact,
    gaussian_tau,
    packing_number,
    packing_number_exact,
    sandwich_check,
)
from sheclt.errors import ConfigError


def line_space(n, spacing=1.0):
    pts = spacing * np.arange(n, dtype=float)[:, None]
    return FiniteMetricSpace.from_points(pts)


def random_space(rng, n, dim=3):
    return FiniteMetricSpace.from_points(rng.normal(size=(n, dim)))


def exact_row(space, i):
    """Row i of any space, read through ``lower`` on an all-inf array."""
    row = np.full(space.n_points, np.inf)
    space.lower(i, row, math.inf)
    return row


def covering_number_reference(space, r):
    """The per-radius greedy loop: a fresh farthest-point covering for r."""
    min_dist = np.full(space.n_points, np.inf)
    count = 0
    while True:
        uncovered = min_dist >= r
        if not np.any(uncovered):
            return count
        masked = np.where(uncovered, min_dist, -np.inf)
        count += 1
        min_dist = np.minimum(min_dist, exact_row(space, int(np.argmax(masked))))


def step_integral_reference(space, upper, power):
    """int_0^upper tau(N(r)^power) dr with one greedy covering per breakpoint."""
    dists = np.unique(space.dist)
    edges = np.concatenate([[0.0], dists[(dists > 0.0) & (dists < upper)], [upper]])
    return sum((b - a) * gaussian_tau(float(covering_number_reference(space, b)) ** power)
               for a, b in zip(edges[:-1], edges[1:]))


def covering_number_exact_reference(space, r):
    """Exhaustive search over center sets of growing size, with ball bitmasks."""
    n = space.n_points
    balls = [int(sum(1 << j for j in range(n) if space.dist[i, j] < r)) for i in range(n)]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for centers in combinations(range(n), k):
            mask = 0
            for c in centers:
                mask |= balls[c]
            if mask == full:
                return k
    return n


def packing_number_exact_reference(space, r):
    """Exhaustive search over all subsets with pairwise-separation bitmasks."""
    n = space.n_points
    adj = [int(sum(1 << j for j in range(n) if j != i and space.dist[i, j] > r)) for i in range(n)]
    best = 1
    for mask in range(1, 1 << n):
        bits = [i for i in range(n) if mask >> i & 1]
        if len(bits) <= best:
            continue
        if all(all(adj[i] >> j & 1 for j in bits if j != i) for i in bits):
            best = len(bits)
    return best


def metric_space_reference(dist):
    """The per-middle-point validator: None where ``FiniteMetricSpace``
    accepts ``dist``, else the message it raises."""
    m = np.asarray(dist, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return "metric space: distance matrix must be square"
    if not np.allclose(m, m.T, atol=1e-12):
        return "metric space: distance matrix must be symmetric"
    if np.any(np.diag(m) != 0.0):
        return "metric space: diagonal must vanish"
    if np.any(m < 0.0):
        return "metric space: distances must be nonnegative"
    for k in range(m.shape[0]):
        if np.any(m > m[:, [k]] + m[[k], :] + 1e-9 * (1.0 + m)):
            return "metric space: triangle inequality violated"
    return None


def metric_space_verdict(dist):
    try:
        FiniteMetricSpace(dist=np.array(dist, dtype=float))
    except ConfigError as exc:
        return str(exc)
    return None


def validation_cases(rng):
    """Distance matrices at and around every rule the validator applies."""
    cases = [np.zeros((0, 0)), np.zeros((1, 1)), np.zeros(3), np.zeros((2, 3)),
             np.array([[0.0, 1.0], [2.0, 0.0]]),
             np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])]
    for n in (3, 7, 10, 31, 200):
        cases.append(FiniteMetricSpace.from_points(rng.integers(0, 3, (n, 3)).astype(float)).dist)
        i, j = (int(v) for v in rng.choice(n - 1, 2, replace=False))
        pts = rng.normal(size=(n, 3))
        pts[-1] = 0.5 * (pts[i] + pts[j])  # the tightest middle point of (i, j) is the last
        base = FiniteMetricSpace.from_points(pts).dist
        cases.append(base)
        # raise the pair (i, j) to where m[i, j] > via + 1e-9 (1 + m[i, j]) starts to hold
        via = np.min(np.delete(base[i] + base[:, j], [i, j]))
        flip = (via + 1e-9) / (1.0 - 1e-9)
        while flip > via + 1e-9 * (1.0 + flip):
            flip = np.nextafter(flip, 0.0)
        while not flip > via + 1e-9 * (1.0 + flip):
            flip = np.nextafter(flip, np.inf)
        for value in (via, np.nextafter(flip, 0.0), flip, 1.5 * via):
            m = base.copy()
            m[i, j] = m[j, i] = value
            cases.append(m)
        # asymmetric by rounding (rtol 1e-5 of the transposed entry, atol 1e-12) and beyond
        edge = (1e-5 + 1e-12 / base[i, j]) * (1.0 + 5e-6)
        for rel in (1e-15, 1e-7, 9e-6, edge, 2e-5, 1e-3):
            m = base.copy()
            m[i, j] *= 1.0 + rel
            cases.append(m)
        for shift in (5e-13, 1e-12, 3e-12):
            m = np.zeros((n, n))
            m[i, j] = shift
            cases.append(m)
        for bad in (np.nan, np.inf, -np.inf, -1e-300):
            m = base.copy()
            m[i, j] = bad
            cases.append(m)
            m = m.copy()
            m[j, i] = bad
            cases.append(m)
        m = base.copy()
        m[i, j], m[j, i] = np.inf, -np.inf
        cases.append(m)
        m = base.copy()
        m[i, i] = np.inf
        cases.append(m)
    # two clusters at infinite distance
    m = np.full((4, 4), np.inf)
    m[:2, :2] = m[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]]
    cases.append(m)
    return cases


def tied_space(rng, n):
    """Integer points in a small cube: duplicate points and many tied distances."""
    return FiniteMetricSpace.from_points(rng.integers(0, 3, size=(n, 3)).astype(float))


class CountingCloud:
    """Delegates to a sampled cloud and counts ``lower`` calls; a reach
    handed to ``lower`` must be the covering radius max(running)."""

    def __init__(self, cloud):
        self.cloud, self.n_points, self.calls = cloud, cloud.n_points, 0

    def lower(self, i, running, reach):
        assert reach == running.max()
        self.calls += 1
        self.cloud.lower(i, running, reach=reach)


class CountingClass:
    def __init__(self, cls):
        self.cls, self.cloud = cls, None

    def sample(self, metric_resolution):
        self.cloud = CountingCloud(self.cls.sample(metric_resolution))
        return self.cloud


class TestMetricSpace:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FiniteMetricSpace(dist=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ConfigError):
            FiniteMetricSpace(dist=np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))

    def test_diameter(self):
        assert line_space(5).diameter() == 4.0

    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    def test_validation_matches_reference(self, monkeypatch, block):
        # the blocked broadcast check accepts and rejects exactly what the
        # per-middle-point loop and np.allclose did, with the same message;
        # n = 200 takes several blocks at the default size
        from sheclt import entropy

        if block is not None:
            monkeypatch.setattr(entropy, "_TRIANGLE_BLOCK", block)
        verdicts = []
        for m in validation_cases(np.random.default_rng(17)):
            verdicts.append(metric_space_verdict(m))
            assert verdicts[-1] == metric_space_reference(m)
        assert None in verdicts and "metric space: triangle inequality violated" in verdicts
        assert "metric space: distance matrix must be symmetric" in verdicts


class TestCoveringPacking:
    def test_trivial_radii(self):
        sp = random_space(np.random.default_rng(0), 7)
        assert covering_number(sp, sp.diameter() * 1.01) == 1
        min_pos = np.min(sp.dist[sp.dist > 0])
        assert covering_number(sp, min_pos * 0.99) == 7
        assert packing_number(sp, sp.diameter()) == 1

    def test_singleton(self):
        sp = FiniteMetricSpace(dist=np.zeros((1, 1)))
        assert packing_number(sp, 0.5) == 1
        assert covering_number(sp, 0.5) == 1

    def test_five_point_line_greedy_value(self):
        # farthest-point traversal with lowest-index ties gives 3 at r = 1.1
        # (the exhaustive minimum is 2: greedy is an upper bound)
        sp = line_space(5)
        assert covering_number(sp, 1.1) == 3
        assert covering_number_exact(sp, 1.1) == 2

    def test_five_point_line_packing(self):
        sp = line_space(5)
        exact = packing_number_exact(sp, 1.0)
        assert exact == 3  # {0, 2, 4}: pairwise distance 2 > 1
        assert packing_number(sp, 1.0) == exact

    def test_greedy_envelopes_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            sp = random_space(rng, rng.integers(2, 11))
            r = rng.uniform(0.1, 1.2) * sp.diameter()
            assert covering_number(sp, r) >= covering_number_exact(sp, r)
            assert packing_number(sp, r) <= packing_number_exact(sp, r)

    def test_one_traversal_matches_per_radius_loop(self):
        rng = np.random.default_rng(11)
        for k in range(60):
            n = int(rng.integers(1, 40))
            sp = tied_space(rng, n) if k % 2 else random_space(rng, n)
            pos = sp.dist[sp.dist > 0.0]
            diam = max(sp.diameter(), 1.0)
            radii = list(rng.uniform(0.02, 1.3, 5) * diam)
            radii += [1.5 * diam, sp.diameter() + 1e-9, 0.5 * (pos.min() if pos.size else 1.0)]
            radii += list(pos[:3]) + [radii[0], radii[2]]  # ties with a distance, repeats
            rng.shuffle(radii)
            ref = [covering_number_reference(sp, r) for r in radii]
            assert covering_number(sp, radii) == ref
            assert [covering_number(sp, r) for r in radii] == ref
            assert all(type(c) is int for c in covering_number(sp, radii))

    def test_radii_must_be_finite_and_positive(self):
        sp = line_space(4)
        for bad in (0.0, -1.0, math.nan, math.inf, [0.5, math.nan], [1.0, -0.5], [], [[1.0]]):
            with pytest.raises(ConfigError):
                covering_number(sp, bad)

    def test_exact_matches_exhaustive_reference(self):
        # every pairwise distance as a radius (ties with a ball edge), plus
        # radii between and beyond them, on 1-12 points with duplicates
        rng = np.random.default_rng(14)
        for n in [*range(1, EXACT_LIMIT + 1), 3, 5, 7, 8, 9]:
            for sp in (tied_space(rng, n), random_space(rng, n)):
                dists = np.unique(sp.dist)
                radii = [*dists[dists > 0.0], sp.diameter() + 1.0]
                if n <= 10:
                    radii += list(0.5 * (dists[1:] + dists[:-1]))
                cov = [covering_number_exact_reference(sp, r) for r in radii]
                pack = [packing_number_exact_reference(sp, r) for r in radii]
                assert covering_number_exact(sp, radii) == cov
                assert packing_number_exact(sp, radii) == pack
                assert [covering_number_exact(sp, r) for r in radii] == cov
                assert [packing_number_exact(sp, r) for r in radii] == pack
                assert all(type(c) is int for c in covering_number_exact(sp, radii))
                assert type(packing_number_exact(sp, radii[0])) is int

    def test_exact_matches_reference_on_rounding_asymmetric_matrix(self):
        # accepted matrices need only be symmetric to rounding; separation
        # must hold in both stored orders, as the pairwise test demands
        d = np.array([[0.0, 1.0, 2.0], [1.0 + 1e-9, 0.0, 1.0], [2.0, 1.0 - 1e-9, 0.0]])
        sp = FiniteMetricSpace(dist=d)
        radii = sorted({*d.ravel()[d.ravel() > 0.0], 0.5, 1.5, 3.0})
        assert covering_number_exact(sp, radii) == [covering_number_exact_reference(sp, r) for r in radii]
        assert packing_number_exact(sp, radii) == [packing_number_exact_reference(sp, r) for r in radii]

    def test_exact_size_limit(self):
        sp = line_space(EXACT_LIMIT + 1)
        for fn in (covering_number_exact, packing_number_exact):
            with pytest.raises(ConfigError, match="limited to"):
                fn(sp, 1.0)

    @pytest.mark.parametrize("fn", [covering_number_exact, packing_number_exact, packing_number])
    def test_other_evaluators_reject_bad_radii(self, fn):
        sp = line_space(4)
        for bad in (0.0, -1.0, math.nan, math.inf, [0.5, math.nan], [1.0, -0.5], [], [[1.0]]):
            with pytest.raises(ConfigError):
                fn(sp, bad)

    def test_greedy_packing_sequence_matches_scalars(self):
        sp = tied_space(np.random.default_rng(15), 25)
        radii = [2.0, 0.5, 1.0, 1.5, 1.0]
        assert packing_number(sp, radii) == [packing_number(sp, r) for r in radii]

    def test_exact_counts_non_increasing_in_r(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            sp = random_space(rng, 8)
            radii = np.linspace(0.05, 1.1, 9) * sp.diameter()
            ns = [covering_number_exact(sp, r) for r in radii]
            ps = [packing_number_exact(sp, r) for r in radii]
            assert all(a >= b for a, b in zip(ns, ns[1:]))
            assert all(a >= b for a, b in zip(ps, ps[1:]))


def subset_extremes_reference(dist):
    """Per-subset loop: best covering radius and separation of each size."""
    n = dist.shape[0]
    best_rho, best_mu = np.full(n + 1, np.inf), np.full(n + 1, -np.inf)
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            rho = np.max(np.min(dist[list(subset)], axis=0, initial=np.inf), initial=-np.inf)
            mu = min((min(dist[a, b], dist[b, a]) for a, b in combinations(subset, 2)),
                     default=np.inf)
            best_rho[k], best_mu[k] = min(best_rho[k], rho), max(best_mu[k], mu)
    return best_rho, best_mu


class TestSubsetExtremes:
    @pytest.mark.parametrize("n", range(1, EXACT_LIMIT + 1))
    def test_both_paths_match_subset_loop(self, n):
        # an exactly symmetric matrix takes the n-column pass, the same
        # matrix symmetric only to rounding (still accepted) the 2n-column one
        rng = np.random.default_rng(40 + n)
        exact = (tied_space if n % 2 else random_space)(rng, n).dist
        rounded = exact.copy()
        i, j = np.triu_indices(n, k=1)
        rel = rng.choice([-1e-12, 0.0, 1e-12], i.size)
        rel[:1] = 1e-12
        rounded[i, j] *= 1.0 + rel
        spaces = [FiniteMetricSpace(dist=exact), FiniteMetricSpace(dist=rounded)]
        assert spaces[0].symmetric and spaces[1].symmetric == (n == 1)
        for sp in spaces:
            best_rho, best_mu = entropy._subset_extremes(sp, "test")
            ref_rho, ref_mu = subset_extremes_reference(sp.dist)
            assert np.array_equal(best_rho, ref_rho) and np.array_equal(best_mu, ref_mu)


class TestSandwich:
    def test_trivial_radius(self):
        sp = random_space(np.random.default_rng(3), 6)
        res = sandwich_check(sp, sp.diameter() * 1.5)
        assert (res.n_2r, res.p_r, res.n_half_r) == (1, 1, 1)
        assert res.holds and res.exact

    def test_equally_spaced_line_triple(self):
        sp = line_space(5)
        res = sandwich_check(sp, 1.0)
        assert res.exact
        assert res.n_2r <= res.p_r <= res.n_half_r
        assert res.p_r == 3

    def test_random_small_spaces(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            sp = random_space(rng, int(rng.integers(2, 11)))
            r = float(rng.uniform(0.05, 1.2) * sp.diameter())
            assert sandwich_check(sp, r).holds

    def test_one_pass_matches_exact_counts(self):
        # one subset pass gives the three values the two exact counters give,
        # also where r, 2r or r/2 equals a distance
        rng = np.random.default_rng(25)
        for k in range(80):
            n = int(rng.integers(2, EXACT_LIMIT + 1))
            sp = tied_space(rng, n) if k % 2 else random_space(rng, n)
            pos = np.unique(sp.dist[sp.dist > 0.0])
            d = float(rng.choice(pos)) if pos.size else 1.0
            r = [float(rng.uniform(0.05, 1.2) * max(sp.diameter(), 1.0)), d, d / 2.0, 2.0 * d][k % 4]
            res = sandwich_check(sp, r)
            assert res.exact
            assert (res.n_2r, res.p_r, res.n_half_r) == (
                covering_number_exact(sp, 2 * r), packing_number_exact(sp, r),
                covering_number_exact(sp, r / 2))

    def test_greedy_branch_matches_per_radius_loop(self):
        rng = np.random.default_rng(12)
        for k in range(20):
            n = int(rng.integers(EXACT_LIMIT + 1, 40))
            sp = tied_space(rng, n) if k % 2 else random_space(rng, n)
            r = float(rng.uniform(0.05, 1.2) * sp.diameter())
            res = sandwich_check(sp, r)
            assert not res.exact
            assert (res.n_2r, res.p_r, res.n_half_r) == (
                covering_number_reference(sp, 2 * r), packing_number(sp, r),
                covering_number_reference(sp, r / 2))


class TestTailFunctional:
    def test_gaussian_closed_form_matches_quadrature(self):
        # tau(lambda) = int_0^inf min(lambda Psi(u), 1) du for Psi(u) = 2(1 - Phi(u)),
        # split at the kink lambda Psi(u) = 1 so that quad sees smooth pieces
        from scipy.optimize import brentq
        from scipy.special import ndtr

        for lam in (0.3, 1.0, 4.0, 100.0):
            excess = lambda u: lam * 2.0 * (1.0 - ndtr(u)) - 1.0
            kink = brentq(excess, 0.0, 40.0) if lam > 1.0 else 0.0
            ref = sum(integrate.quad(lambda u: min(excess(u) + 1.0, 1.0), lo, hi, limit=200)[0]
                      for lo, hi in ((0.0, kink), (kink, np.inf)))
            assert gaussian_tau(lam) == pytest.approx(ref, rel=1e-9)

    def test_monotone_and_zero(self):
        assert gaussian_tau(0.0) == 0.0
        lams = [0.1, 0.5, 1.0, 2.0, 10.0, 1e4]
        taus = [gaussian_tau(l) for l in lams]
        assert all(a < b for a, b in zip(taus, taus[1:]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_tau(-0.5)


class TestChainingBound:
    def test_vanishes_with_delta(self):
        sp = line_space(6)
        bounds = [chaining_bound(sp, d) for d in (2.0, 1.0, 0.5, 0.1)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] < 0.2 * bounds[0]

    def test_singleton_zero(self):
        sp = FiniteMetricSpace(dist=np.zeros((1, 1)))
        assert chain_construct(sp).nets == [[0]]

    def test_step_integration_matches_adaptive_quadrature(self):
        # same covering function, independent integrators of tau(N^2)
        sp = line_space(8)
        delta = sp.diameter()
        ref, _ = integrate.quad(
            lambda r: gaussian_tau(float(covering_number_exact(sp, r)) ** 2),
            0.0,
            delta / 4.0,
            points=list(np.unique(sp.dist)[1:]),
            limit=400,
        )
        assert chaining_bound(sp, delta) == pytest.approx(32.0 * ref, rel=1e-8)

    def test_greedy_step_integral_matches_per_breakpoint_loop(self):
        rng = np.random.default_rng(13)
        for k in range(10):
            sp = random_space(rng, int(rng.integers(EXACT_LIMIT + 1, 30)))
            for frac in (1.0, 0.4):
                delta = frac * sp.diameter()
                ref = 32.0 * step_integral_reference(sp, delta / 4.0, 2)
                assert chaining_bound(sp, delta) == ref


class TestChainConstruct:
    def test_two_point_space(self):
        sp = line_space(2)
        chain = chain_construct(sp)
        assert chain.nets[0] == [0]
        assert chain.nets[-1] == [0, 1]
        assert chain.chain_of(1)[0] == 0 and chain.chain_of(1)[-1] == 1

    def test_coincident_points_rejected_by_index(self):
        sp = FiniteMetricSpace.from_points([[0, 0, 0], [1, 0, 0], [1, 0, 0]])
        with pytest.raises(ConfigError, match=r"coincident points .*: 1 = 2$"):
            chain_construct(sp)
        # the covering functions keep accepting duplicates
        assert covering_number(sp, [0.5, 2.0]) == [2, 1]

    def test_net_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            sp = random_space(rng, 20)
            chain = chain_construct(sp)
            for eps, net in zip(chain.eps, chain.nets):
                sub = sp.dist[np.ix_(net, net)]
                off = sub[~np.eye(len(net), dtype=bool)]
                if off.size:
                    assert np.all(off > eps)  # separation
                assert np.all(np.min(sp.dist[:, net], axis=1) <= eps)  # covering
            assert sorted(chain.nets[-1]) == list(range(20))

    def test_telescoping_identity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sp = random_space(rng, 20)
            chain = chain_construct(sp)
            values = rng.integers(-1000, 1000, size=20).astype(float)
            root = chain.nets[0][0]
            for t in range(20):
                path = chain.chain_of(t)
                increments = sum(values[b] - values[a] for a, b in zip(path, path[1:]))
                assert increments == values[t] - values[root]  # integer-exact


class TestCoveringExponents:
    @pytest.mark.slow
    def test_box_class_slope(self):
        fit = covering_exponent(BoxClass(m=1.0, d=1), np.geomspace(0.09, 0.42, 7))
        assert abs(fit.slope - (-2.0)) < 0.3

    @pytest.mark.slow
    def test_shift_class_slope(self):
        fit = covering_exponent(ShiftClass(n=1.0), np.geomspace(0.02, 0.3, 7))
        assert abs(fit.slope - (-1.0)) < 0.3

    @pytest.mark.slow
    def test_scale_class_slope(self):
        fit = covering_exponent(ScaleClass(), np.geomspace(0.15, 0.75, 7))
        assert abs(fit.slope - (-2.0)) < 0.3

    @pytest.mark.parametrize("r_grid", [[math.nan, 0.1, 0.2], [0.1, math.inf], [0.1], [0.2, 0.2],
                                        [0.0, 0.1], [-0.1, 0.2], []])
    def test_radius_grid_contract(self, r_grid):
        with pytest.raises(ConfigError):
            covering_exponent(ShiftClass(n=1.0), r_grid)

    def test_one_row_per_center(self):
        # the traversal for the smallest radius serves every larger one,
        # with one ``lower`` call per center, each handed the covering radius
        for sampled, radii in ((ShiftClass(n=1.0), np.geomspace(0.05, 0.3, 7)),
                               (ShiftClass(n=0.5 * math.pi), np.geomspace(0.05, 0.3, 5)),
                               (BoxClass(m=1.0, d=1), np.geomspace(0.1, 0.4, 5)),
                               (ScaleClass(), np.geomspace(0.3, 0.6, 4))):
            cls = CountingClass(sampled)
            fit = covering_exponent(cls, radii)
            assert cls.cloud.calls == int(fit.counts.max())
            assert list(fit.counts) == [covering_number_reference(cls.cloud.cloud, r) for r in fit.radii]

    def test_scale_row_matches_broadcast_formula(self):
        cls = ScaleClass()
        cloud = cls.sample(0.1)
        scale_row = scale_reference(cls, 0.1)
        for i in (0, 1, cloud.n_points // 3, cloud.n_points - 1):
            assert np.array_equal(exact_row(cloud, i), scale_row(i))


def scale_reference(cls, resolution):
    """Exact scale-class rows: the sampler's parameter grid (row-major) and
    the full slope table over +-u and the limit column, maxed per row."""
    lip = max(1.2 * cls.n, 1.0 + cls.m)
    delta = resolution / lip
    q = np.arange(1.0 / cls.m, cls.m + delta / 2.0, delta)
    b = np.arange(cls.b_lo, cls.n + delta / 2.0, delta)
    Q, B = (a.ravel() for a in np.meshgrid(q, b, indexing="ij"))
    u = np.geomspace(0.08, 8.0 * cls.m, cls.n_u)
    u = np.concatenate([-u[::-1], u])
    v = u[None, :] * Q[:, None]
    table = np.concatenate([(B * Q)[:, None] * (v / np.sqrt(1.0 + v * v)), (B * Q)[:, None]], axis=1)
    return lambda i: np.abs(B - B[i]) + np.max(np.abs(table - table[i]), axis=1)


def box_reference(cls, resolution):
    """Exact box-class rows: square roots of symmetric-difference volumes."""
    delta = resolution**2 / (cls.d * max(cls.m, 1.0) ** (cls.d - 1))
    axis = np.arange(0.0, cls.m + delta / 2.0, delta)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * cls.d), indexing="ij")], axis=1)
    vol = np.prod(pts, axis=1)
    return lambda i: np.sqrt(np.maximum(vol + vol[i] - 2.0 * np.prod(np.minimum(pts, pts[i]), axis=1), 0.0))


def shift_reference(cls, resolution):
    """Exact shift-class rows: |sin a - sin a_i| + 2 |sin((a - a_i)/2)|."""
    delta = resolution / 4.0
    a = np.arange(-cls.n, cls.n + delta / 2.0, delta)
    return lambda i: np.abs(np.sin(a) - np.sin(a)[i]) + 2.0 * np.abs(np.sin(0.5 * (a - a[i])))


# (class, metric resolution, exact rows) of the sampled classes: the box
# class in d = 1 and the shift class for n <= pi/2 sweep a reach window, in
# d = 2 and for n = 3 the whole cloud
SAMPLED = {
    "box": (BoxClass(m=1.0, d=2), 0.3, box_reference),
    "box-1d": (BoxClass(m=1.0, d=1), 0.05, box_reference),
    "shift": (ShiftClass(n=3.0), 0.1, shift_reference),
    "shift-narrow": (ShiftClass(n=1.0), 0.02, shift_reference),
    "shift-edge": (ShiftClass(n=0.5 * math.pi), 0.02, shift_reference),  # the widest windowed n
    "shift-wide": (ShiftClass(n=2.0), 0.05, shift_reference),
    "scale": (ScaleClass(), 0.1, scale_reference),
}


def lower_case(kind):
    """(space, exact row of i) for a dense space and the sampled classes."""
    if kind == "dense":
        sp = tied_space(np.random.default_rng(23), 40)
        return sp, lambda i: sp.dist[i]
    cls, resolution, reference = SAMPLED[kind]
    return cls.sample(resolution), reference(cls, resolution)


def traverse_against_reference(cloud, row_of, centers):
    """A farthest-first traversal over ``cloud``; after every center its
    running distances equal the same traversal over exact rows, bit for bit.
    Each ``lower`` call is handed the covering radius max(running), as
    ``covering_number`` does.  Returns the final running array."""
    running, expected = np.full(cloud.n_points, np.inf), np.full(cloud.n_points, np.inf)
    center = 0
    for _ in range(centers):
        cloud.lower(center, running, reach=float(running.max()))
        np.minimum(expected, row_of(center), out=expected)
        assert np.array_equal(running, expected)
        center = int(np.argmax(running))
    return running


class TestLower:
    @pytest.mark.parametrize("start", ["random", "inf", "ties", "tight", "flat", "far"])
    @pytest.mark.parametrize("kind", ["dense", "box", "shift", "scale", "box-1d", "shift-narrow",
                                      "shift-edge"])
    def test_lower_is_exact_minimum(self, kind, start):
        # lower(i, running, reach=max(running)) leaves running ==
        # min(running0, exact row i), wherever a sampled class
        # prunes and whatever running0 holds; a "tight" start keeps
        # max(running0), the reach, within a few steps of the cloud, so a
        # window is narrow and clipped at the grid's edges for the corner
        # points 0, 1 and n - 1; a "flat" start puts every point at the
        # reach, so points at the window's rim drop, and a "far" start does
        # so 40 steps out, where the padding no longer covers a window that
        # the distance bound makes too narrow
        space, row_of = lower_case(kind)
        rng = np.random.default_rng(24)
        n = space.n_points
        for i in (0, 1, n // 3, n - 1):
            exact = row_of(i)
            assert exact.shape == (n,)
            step = np.min(exact[exact > 0.0])
            running0 = {
                "random": lambda: rng.uniform(0.0, 2.0 * np.median(exact), n),
                "inf": lambda: np.full(n, np.inf),
                "ties": lambda: np.where(rng.random(n) < 0.5, exact, rng.uniform(0.0, 2.0, n)),
                "tight": lambda: rng.uniform(0.0, 3.0 * step, n),
                "flat": lambda: np.full(n, 1.5 * step),
                "far": lambda: np.full(n, 40.0 * step),
            }[start]()
            running = running0.copy()
            space.lower(i, running, reach=float(running0.max()))
            assert np.array_equal(running, np.minimum(running0, exact))
            if start == "random" and i:
                assert 0 < np.sum(exact < running0) < n  # both sides of the minimum occur

    @pytest.mark.parametrize("block", [None, 1])
    def test_scale_traversal_matches_reference_rows(self, block, monkeypatch):
        # a farthest-first traversal narrows the reach window center by
        # center, also when every block of the sweep is a single q-row
        if block is not None:
            monkeypatch.setattr(entropy, "_SCALE_BLOCK", block)
        cls = ScaleClass()
        running = traverse_against_reference(cls.sample(0.1), scale_reference(cls, 0.1), 250)
        # the last windows hold about a quarter of the b-columns (b spans [1, 3])
        assert 0.0 < running.max() < 0.25

    @pytest.mark.parametrize("kind", ["box-1d", "shift-narrow", "shift-edge", "box", "shift-wide"])
    def test_traversal_matches_reference_rows(self, kind):
        # the box class in d = 1 and the shift class with n = 1 and pi/2
        # narrow their windows center by center; in d = 2 and with n = 2 >
        # pi/2 the whole cloud is swept
        cls, resolution, reference = SAMPLED[kind]
        cloud, row_of = cls.sample(resolution), reference(cls, resolution)
        reach = traverse_against_reference(cloud, row_of, 250).max()
        # the grid steps the last windows span either side: a few of the cloud's
        steps = {"box-1d": reach * reach / resolution**2,
                 "shift-narrow": 2.0 * math.pi * reach / resolution,
                 "shift-edge": 2.0 * math.pi * reach / resolution}
        if kind in steps:
            assert 0.0 < steps[kind] < 5.0 and cloud.n_points >= 401

    @pytest.mark.parametrize("kind, resolution", [("box-1d", 0.1), ("shift-narrow", 0.1),
                                                  ("scale", 0.5)])
    def test_packing_matches_dense_rows(self, kind, resolution):
        # the packing scan hands lower an infinite reach, so a sampled class
        # sweeps its whole cloud and packs as the matrix of its exact rows does
        cls, _, reference = SAMPLED[kind]
        cloud, row_of = cls.sample(resolution), reference(cls, resolution)
        dense = FiniteMetricSpace(dist=np.array([row_of(i) for i in range(cloud.n_points)]))
        radii = np.quantile(dense.dist[dense.dist > 0.0], [0.02, 0.1, 0.3])
        counts = packing_number(cloud, radii)
        assert counts == packing_number(dense, radii)
        assert counts[0] > counts[-1] > 1


class TestEntropyCommandContract:
    @pytest.mark.parametrize("flags", [
        ["--check", "exponent", "--r-grid", "nan,0.1,0.2"],
        ["--check", "exponent", "--r-grid", "0.1,inf"],
        ["--check", "exponent", "--r-grid", "0.1"],
        ["--check", "exponent", "--class", "shift", "--r-grid", "0.2,-0.3"],
        ["--check", "sandwich", "--points", "1"],
        ["--check", "sandwich", "--points", "0"],
        ["--check", "sandwich", "--spaces", "0"],
        ["--check", "sandwich", "--spaces", "-1"],
        ["--check", "chain", "--spaces", "0"],
        ["--check", "chain", "--points", "0"],
    ])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flags):
        assert dispatch(["--out-dir", str(tmp_path), "entropy", *flags]) == 2
        assert "config error" in capsys.readouterr().err


class TestChainingEmpirical:
    def test_two_point_folded_normal(self):
        sp = line_space(2)
        res = chaining_empirical_check(sp, delta=1.0, n_replicas=4000, seed=11)
        assert res.empirical == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.05)
        assert not res.violated
        assert not res.psd_corrected

    def test_small_delta_no_pairs(self):
        sp = line_space(4)
        res = chaining_empirical_check(sp, delta=0.5, n_replicas=100, seed=1)
        assert res.empirical == 0.0 and not res.violated

    @pytest.mark.slow
    def test_brownian_grid_no_violation(self):
        s = np.linspace(0.0, 1.0, 16)
        dist = np.sqrt(np.abs(s[:, None] - s[None, :]))
        sp = FiniteMetricSpace(dist=dist)
        res = chaining_empirical_check(sp, delta=sp.diameter(), n_replicas=1000, seed=12)
        assert not res.violated

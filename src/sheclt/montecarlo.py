"""Replicated experiments and the statistics confronting the limit theorems.

An experiment solves the field once per (scale N, replica) and evaluates
every requested (test function, observable) pair on that realization, so
joint statistics across test functions are measured on coupled samples.
Replicas are independent tasks keyed by counter-based streams; chunking and
process count never change the output bits, and per-N seed domains keep the
ladder runs independent.  Work goes to processes through one job map,
``map_jobs``: an ordered list of ``(function, args)`` jobs run serially or on
one process pool, forked at the first map that needs it and reused by every
later one until the interpreter exits (``_pool``).  Every replicated solve
(experiment, Monte Carlo baseline, B_t fields, marginal variance) is the
replica-chunk case, ``_map_chunks``, with one job per ``DEFAULT_CHUNK``
replicas; ``sheclt independence`` maps its per-(N, pair) ECF reports and
bounds as one list on the same pool.  At each N one baseline solve serves
every observable other than the identity.

Statistics: one-sample Kolmogorov-Smirnov distance against a reference
normal, empirical characteristic-function gaps with a permutation null
(replica pairing shuffled) calibrating the independence threshold, the
quadrature evaluation of the asymptotic-independence bound, Brownian
finite-dimensional covariance comparisons, and Wilson-interval tail checks
against the analytic tail bound.

The ECF gaps of all z vectors come from one kernel: each column gets a
table exp(i v x_j) over the distinct values v its z entries take, the joint
term of every z is a row mean of a product of table rows, and the product
of the marginal ECFs, which shuffling a column leaves unchanged, is
computed once rather than once per permutation.  Since gap(-z) is gap(z)
bit for bit, each pair z, -z is computed once.
"""

from __future__ import annotations

import atexit
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .errors import ConfigError, DegenerateVariance
from .noise import HALO_FACTOR, Grid, spectral_weights
from .occupation import PreparedTestFunction, TestFunction, occupation_values
from .solver import SigmaFunction, solve_batch
from .spectral import CovarianceMeasure, DalangProfile, tail_bound

BASELINE_DOMAIN_OFFSET = 10_000
# the seed domain of the reference B_t field run of the experiment commands
BT_REFERENCE_DOMAIN = 20_000
DEFAULT_CHUNK = 64
# the fewest samples ks_normal accepts
MIN_KS_SAMPLES = 50


@dataclass
class ExperimentConfig:
    """Full description of a replicated occupation-field experiment."""

    covariance: CovarianceMeasure
    sigma: SigmaFunction
    g_list: list
    psi_list: list
    t: float
    n_ladder: list
    dx: float
    replicas: int
    seed: int
    baseline_replicas: int = 400
    workers: int = 1

    def __post_init__(self):
        if not self.n_ladder or any(
            b <= a for a, b in zip(self.n_ladder, self.n_ladder[1:])
        ):
            raise ConfigError("config.n_ladder: must be a strictly increasing list")
        if self.replicas < 1:
            raise ConfigError("config.replicas: must be positive")
        if self.workers < 1:
            raise ConfigError("config.workers: must be positive")
        if not all(0.0 < N < math.inf for N in self.n_ladder):
            raise ConfigError("config.n_ladder: every N must be positive and finite")
        if not (0.0 <= self.t < math.inf and 0.0 < self.dx < math.inf):
            raise ConfigError("config: t must be finite and nonnegative, dx finite and positive")
        if not self.psi_list or not self.g_list:
            raise ConfigError("config: psi_list and g_list must be nonempty")
        # results, prepared weights and summary flags are keyed by label
        for what, items in (("psi", self.psi_list), ("g", self.g_list)):
            labels = [item.label for item in items]
            if len(set(labels)) != len(labels):
                raise ConfigError(f"config.{what}: labels must be distinct, got {labels}")
        for N in self.n_ladder:
            self.grid_for(N)  # support pre-check before any replica runs

    def grid_for(self, N: float) -> Grid:
        """Grid whose torus exceeds the span of the scaled supports' union plus the halo."""
        d = self.covariance.dimension
        union_lo = np.full(d, np.inf)
        union_hi = np.full(d, -np.inf)
        for psi in self.psi_list:
            lo, hi = psi.scaled(N).support_bbox()
            union_lo = np.minimum(union_lo, lo)
            union_hi = np.maximum(union_hi, hi)
        span = float(np.max(union_hi - union_lo))
        return Grid.for_support(span=span, t=self.t, dx=self.dx, d=d)


@dataclass
class SampleEnsemble:
    """Replica-paired values of the normalized samples for one (N, psi, g)."""

    values: np.ndarray
    baseline: float


@dataclass
class ExperimentResult:
    ensembles: dict
    config: ExperimentConfig
    grids: dict

    def get(self, N, psi, g) -> SampleEnsemble:
        psi_label = psi if isinstance(psi, str) else psi.label
        g_label = g if isinstance(g, str) else g.label
        return self.ensembles[(N, psi_label, g_label)]

    def joint(self, N, pairs) -> np.ndarray:
        """Column-stacked paired samples for (psi, g) pairs at one N."""
        cols = [self.get(N, p, g).values for p, g in pairs]
        return np.stack(cols, axis=1)


# the process pool every pooled map reuses, as (executor, processes, pid of
# the process that forked it), or None until a map needs one; maps run from
# one thread, so the slot takes no lock
_POOL = None


def _pool(workers: int, jobs: int):
    """This process's pool, with between min(workers, jobs) and workers
    processes.  A pool outside that range is shut down, its threads joined,
    before one of min(workers, jobs) processes is forked in its place; a
    forked child leaves the pool it inherited to its parent."""
    global _POOL
    need = min(workers, jobs)
    if _POOL is not None and _POOL[2] == os.getpid():
        if need <= _POOL[1] <= workers:
            return _POOL[0]
        _drop_pool()
    _POOL = (ProcessPoolExecutor(max_workers=need), need, os.getpid())
    return _POOL[0]


@atexit.register
def _drop_pool() -> None:
    """Shut this process's pool down and forget it."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None and pool[2] == os.getpid():
        pool[0].shutdown(wait=True)


def _run_job(job):
    fn, args = job
    return fn(*args)


def map_jobs(jobs: list, workers: int) -> list:
    """``fn(*args)`` for each ``(fn, args)`` in ``jobs``, in order: in this
    process, or, when ``workers`` and the job count both exceed one, on the
    pool ``_pool`` keeps.  A worker that dies takes the pool with it, and the
    next map forks a new one; an exception raised by a job leaves the pool in
    place."""
    if workers > 1 and len(jobs) > 1:
        try:
            return list(_pool(workers, len(jobs)).map(_run_job, jobs))
        except BrokenProcessPool:
            _drop_pool()
            raise
    return [fn(*args) for fn, args in jobs]


def _map_chunks(task, n_replicas: int, workers: int, *args) -> list:
    """``task(*args, replicas)`` for each ``DEFAULT_CHUNK`` block of
    ``range(n_replicas)`` in order, as one ``map_jobs``."""
    if n_replicas < 1:
        raise ConfigError("replicas: need at least one replica")
    starts = range(0, n_replicas, DEFAULT_CHUNK)
    return map_jobs(
        [(task, (*args, range(s, min(s + DEFAULT_CHUNK, n_replicas)))) for s in starts], workers
    )


def _solve_chunk(grid, sigma, f, t, seed, domain, observables, replicas):
    """One chunk's fields or, given ``observables``, each replica's grid
    mean of each observable, shape (len(observables), len(replicas))."""
    fields, _ = solve_batch(grid, sigma, f, t, seed, replicas, domain=domain,
                            weights=spectral_weights(grid, f))
    if observables is None:
        return fields
    axes = tuple(range(1, fields.ndim))
    return np.stack([np.asarray(obs(fields)).mean(axis=axes) for obs in observables])


def estimate_baseline(grid, sigma, f, t, g_list, n_replicas, seed, domain, workers=1):
    """Frozen Monte Carlo baselines E g(u(t,0)), one for each g in ``g_list``,
    from one solve of a dedicated, disjoint replica set: the mean of the
    replicas' grid means of g(u)."""
    parts = _map_chunks(
        _solve_chunk, n_replicas, workers, grid, sigma, f, t, seed, domain, tuple(g_list)
    )
    return [float(np.mean(means)) for means in np.concatenate(parts, axis=1)]


def _resolve_baselines(config: ExperimentConfig, grid: Grid, domain: int) -> dict:
    """Each observable's baseline E g(u(t,0)), by label.  The stochastic
    integral has mean zero, so E u = 1 for every diffusion coefficient and
    the identity's baseline is 1.0; the other observables share one Monte
    Carlo solve."""
    mc = [g for g in config.g_list if g.kind != "identity"]
    estimates = iter(estimate_baseline(
        grid, config.sigma, config.covariance, config.t, mc,
        config.baseline_replicas, config.seed, domain, workers=config.workers,
    ) if mc else ())
    return {g.label: 1.0 if g.kind == "identity" else next(estimates) for g in config.g_list}


def _chunk_task(config, N, domain, grid, baselines, replicas):
    fields = _solve_chunk(grid, config.sigma, config.covariance, config.t, config.seed,
                          domain, None, replicas)
    halo = HALO_FACTOR * math.sqrt(max(config.t, 0.0))
    prepared = {
        psi.label: PreparedTestFunction(grid, psi.scaled(N), halo=halo)
        for psi in config.psi_list
    }
    out = {}
    for g in config.g_list:
        gu = np.asarray(g(fields))
        for psi in config.psi_list:
            out[(psi.label, g.label)] = occupation_values(
                prepared[psi.label], gu, baselines[g.label], N
            )
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Solve all replicas over the N ladder and collect paired ensembles.

    Output is a pure function of (config, seed): chunking and the worker
    count only change the execution schedule.
    """
    ensembles = {}
    grids = {}
    for domain, N in enumerate(config.n_ladder):
        grid = config.grid_for(N)
        grids[N] = grid
        baselines = _resolve_baselines(config, grid, BASELINE_DOMAIN_OFFSET + domain)
        results = _map_chunks(
            _chunk_task, config.replicas, config.workers, config, N, domain, grid, baselines
        )
        for g in config.g_list:
            for psi in config.psi_list:
                parts = [chunk_out[(psi.label, g.label)] for chunk_out in results]
                ensembles[(N, psi.label, g.label)] = SampleEnsemble(
                    values=np.concatenate(parts), baseline=baselines[g.label]
                )
    return ExperimentResult(ensembles=ensembles, config=config, grids=grids)


@dataclass
class MarginalVarianceResult:
    variance: float
    se: float
    mean: float
    mean_se: float
    n_replicas: int


def marginal_variance_run(
    covariance, sigma, t, dx, length, replicas, seed, workers=1
) -> MarginalVarianceResult:
    """Pooled per-cell variance of the field over replicas and cells, on the
    torus [0, length)^d with cells of width dx and the stable time step;
    length must be a whole number of cells (``Grid.for_length``)."""
    grid = Grid.for_length(length, dx, covariance.dimension)
    moments = (np.asarray, np.square)  # each replica's grid means of u and u^2
    parts = _map_chunks(
        _solve_chunk, replicas, workers, grid, sigma, covariance, t, seed, 0, moments
    )
    s1, s2 = np.concatenate(parts, axis=1)
    mu = float(np.mean(s1))
    per_rep_var = s2 - 2.0 * mu * s1 + mu * mu
    return MarginalVarianceResult(
        variance=float(np.mean(per_rep_var)),
        se=float(np.std(per_rep_var)) / math.sqrt(replicas),
        mean=mu,
        mean_se=float(np.std(s1)) / math.sqrt(replicas),
        n_replicas=replicas,
    )


def field_run(covariance, sigma, t, grid, replicas, seed, domain=0, workers=1) -> np.ndarray:
    """Stacked replica fields for covariance estimation at moderate R."""
    return np.concatenate(
        _map_chunks(_solve_chunk, replicas, workers, grid, sigma, covariance, t, seed, domain, None)
    )


# -- statistics --


def ks_normal(samples, mu: float, sigma2: float) -> float:
    """One-sample Kolmogorov-Smirnov distance to Normal(mu, sigma2)."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if sigma2 <= 0.0:
        raise DegenerateVariance("ks_normal: reference variance must be positive")
    if n < MIN_KS_SAMPLES:
        raise ConfigError(f"ks_normal: need at least {MIN_KS_SAMPLES} samples")
    cdf = ndtr((samples - mu) / math.sqrt(sigma2))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_critical(n: int) -> float:
    """Asymptotic two-sided 1% critical value 1.63/sqrt(n)."""
    return 1.63 / math.sqrt(n)


class _EcfKernel:
    """ECF gaps of paired columns for every z in ``z_list`` at once.

    The joint term factors, exp(i sum_j z_j x_j) = prod_j exp(i z_j x_j), so
    each column j gets one table exp(i v x_j) over the distinct values v of
    z_j, and the joint ECF of every z is a row mean of a product of table
    rows.  A shuffled column keeps its marginal ECF, so the product of the
    marginals is computed once here and reused for every permutation.

    Every operation maps -z to the complex conjugate of its value at z, so
    gap(-z) equals gap(z) bit for bit.  The kernel therefore computes each
    pair z, -z (and each repeated z) once, on the representative whose first
    nonzero entry is positive, and maps the gaps back to every input z.
    """

    def __init__(self, columns, z_list):
        columns = np.asarray(columns, dtype=float)
        zs = [np.asarray(z, dtype=float).ravel() for z in z_list]
        m = columns.shape[1] if columns.ndim == 2 else 0
        if m < 2 or any(z.size != m for z in zs):
            raise ConfigError("ecf: need paired columns matching z, at least 2")
        if not zs:
            raise ConfigError("ecf: z_list must be nonempty")
        # each z as its representative: z or -z, whichever leads with a positive entry
        keys = [tuple(-z if z[z != 0.0][:1].sum() < 0.0 else z) for z in zs]
        rows = {}  # representative -> its row; as tuple keys, -0.0 == 0.0
        self.fold = np.array([rows.setdefault(key, len(rows)) for key in keys])
        Z = np.array(list(rows))
        self.n, self.m = columns.shape
        self.tables, self.index = [], []
        self.marginal = np.ones(len(Z), dtype=complex)
        for j in range(m):
            vals, idx = np.unique(Z[:, j], return_inverse=True)
            table = np.exp(1j * vals[:, None] * columns[:, j])  # (values, n)
            self.marginal *= table.mean(axis=1)[idx]
            self.tables.append(table)
            self.index.append(idx)
        self.lead = self.tables[0][self.index[0]]  # column 0 is never shuffled
        self._joint = np.empty_like(self.lead)
        self._row = np.empty_like(self.lead)

    def gaps(self, perms=None) -> np.ndarray:
        """|joint ECF - product of marginal ECFs| for each z.

        ``perms`` holds one replica permutation for each column 1..m-1.
        """
        joint, row = self._joint, self._row
        for j in range(1, self.m):
            table = self.tables[j] if perms is None else self.tables[j][:, perms[j - 1]]
            # mode="clip" writes straight into out; np.unique's indices are in range
            np.take(table, self.index[j], axis=0, out=row, mode="clip")
            np.multiply(self.lead if j == 1 else joint, row, out=joint)
        return np.abs(joint.mean(axis=1) - self.marginal)[self.fold]


def ecf_gap(columns: np.ndarray, z) -> float:
    """|E exp(i sum z_j X_j) - prod_j E exp(i z_j X_j)| from paired samples."""
    return float(_EcfKernel(columns, [z]).gaps()[0])


def ecf_permutation_null(
    columns: np.ndarray, z_list, n_perm: int, seed: int, kernel=None
) -> np.ndarray:
    """Null distribution of the max ECF gap under shuffled replica pairing.

    Column 0 stays in place; each permutation draws ``rng.permutation(n)``
    for columns 1..m-1 in order from ``default_rng(seed)``.  ``kernel``, when
    given, is the ``_EcfKernel`` of ``columns`` and ``z_list``, already built.
    """
    if not isinstance(n_perm, (int, np.integer)) or n_perm < 1:
        raise ConfigError("ecf_permutation_null: n_perm must be a positive integer")
    if kernel is None:
        kernel = _EcfKernel(columns, z_list)
    rng = np.random.default_rng(seed)
    out = np.empty(n_perm)
    for p in range(n_perm):
        perms = [rng.permutation(kernel.n) for _ in range(1, kernel.m)]
        out[p] = kernel.gaps(perms).max()
    return out


@dataclass
class IndependenceReport:
    observed: float
    null_q99: float
    null_se: float
    gaps: dict
    passed: bool


def independence_report(columns, z_list, n_perm=200, seed=0) -> IndependenceReport:
    kernel = _EcfKernel(columns, z_list)
    gaps = kernel.gaps()
    observed = float(gaps.max())
    null = ecf_permutation_null(columns, z_list, n_perm, seed, kernel=kernel)
    q99 = float(np.quantile(null, 0.99))
    return IndependenceReport(
        observed=observed,
        null_q99=q99,
        null_se=float(np.std(null)),
        gaps={tuple(z): float(g) for z, g in zip(z_list, gaps)},
        passed=observed < q99,
    )


def default_z_tuples(m: int) -> list:
    """All z vectors with entries in {-2, -1, 1, 2} for m coupled samples."""
    from itertools import product

    return [np.array(z, dtype=float) for z in product((-2.0, -1.0, 1.0, 2.0), repeat=m)]


def check_disjoint_boxes(psi: TestFunction) -> None:
    """ConfigError unless the boxes of ``psi`` are pairwise essentially
    disjoint, so that |psi| = sum |a_i| 1_box_i, as ``independence_rhs`` needs."""
    for _, b1 in psi.terms:
        for _, b2 in psi.terms:
            if b1 is not b2 and b1.overlap_volume(b2) > 1e-12:
                raise ConfigError(
                    "independence_rhs: boxes within each test function must be disjoint"
                )


def independence_rhs(
    f: CovarianceMeasure, t: float, psi: TestFunction, phi: TestFunction, N: float
) -> float:
    """int_0^t ds int (p_{2s} * f)(eta) (|phi| cross |psi|)(eta / N) d eta.

    Both sides factor per axis.  On one axis the cross-correlation of a phi
    box [p, q] with a psi box [r, w] is the trapezoid ov(u) = (u - k1)^+ -
    (u - k2)^+ - (u - k3)^+ + (u - k4)^+ with knots p - w, p - r, q - w,
    q - r, so against the kernel (p_{2s} * f) it integrates to
    (1/N) sum of +-R(N k) by the ramp identity, R = ``ramp_axis(2s, .)``.
    With R(a) = (-a)^+ + R(|a|) the linear parts add up to N ov(0), so an
    axis contributes ov(0) + (1/N) sum of +-R(N |k|): only nonnegative tails,
    nothing cancels when the boxes are far apart, and the roundoff left is
    clipped at the true floor 0.  One adaptive quadrature in w = sqrt(s)
    remains, relative tolerance 1e-10 with no absolute floor.
    """
    if t <= 0.0:
        return 0.0
    d = f.dimension
    check_disjoint_boxes(psi)
    check_disjoint_boxes(phi)
    weights, knots, overlaps = [], [], []
    for a_phi, box_phi in phi.terms:
        p, q = np.asarray(box_phi.lo[:d]), np.asarray(box_phi.hi[:d])
        for a_psi, box_psi in psi.terms:
            r, w = np.asarray(box_psi.lo[:d]), np.asarray(box_psi.hi[:d])
            weights.append(abs(a_phi) * abs(a_psi))
            knots.append(np.stack([p - w, p - r, q - w, q - r], axis=-1))
            overlaps.append(np.maximum(0.0, np.minimum(q, w) - np.maximum(p, r)))
    weights, overlaps = np.array(weights), np.array(overlaps)
    knots = N * np.abs(np.array(knots))  # (pairs, d, 4)
    signs = np.array([1.0, -1.0, -1.0, 1.0]) / N

    def integrand(wv: float) -> float:
        axes = np.maximum(overlaps + f.ramp_axis(2.0 * wv * wv, knots).dot(signs), 0.0)
        return 2.0 * wv * f.mass * float(weights.dot(axes.prod(axis=1)))

    val, _ = integrate.quad(
        integrand, 0.0, math.sqrt(t), epsabs=0.0, epsrel=1e-10, limit=200
    )
    return val


@dataclass
class CltReport:
    mean: float
    variance: float
    predicted_variance: float
    ks_distance: float
    ks_critical: float

    @property
    def gaussian(self) -> bool:
        return self.ks_distance < self.ks_critical


def clt_report(values: np.ndarray, psi_norm_sq: float, b_t: float) -> CltReport:
    """Mean, variance against psi_norm_sq * b_t, and KS normality of one ensemble."""
    values = np.asarray(values, dtype=float)
    var = float(np.var(values))
    if var <= 0.0:
        raise DegenerateVariance("clt_report: sample variance must be positive")
    return CltReport(
        mean=float(np.mean(values)),
        variance=var,
        predicted_variance=psi_norm_sq * b_t,
        ks_distance=ks_normal(values, 0.0, var),
        ks_critical=ks_critical(values.size),
    )


# -- Brownian finite-dimensional check --


@dataclass
class FddReport:
    r_grid: list
    cov_emp: np.ndarray
    cov_pred: np.ndarray
    max_rel_dev: float
    increments: IndependenceReport


def fdd_brownian_check(
    samples_by_r: dict,
    increment_columns: np.ndarray,
    b_t: float,
    base_volume: float,
    n_perm: int = 200,
    seed: int = 0,
) -> FddReport:
    """Compare Cov[X(r), X(r')] with b_t min(r, r') vol and test increments.

    ``samples_by_r`` maps r to replica-paired sample vectors;
    ``increment_columns`` holds paired samples of disjoint increments, tested
    over every z in ``default_z_tuples``.
    """
    rs = sorted(samples_by_r)
    cols = np.stack([samples_by_r[r] for r in rs], axis=1)
    cov_emp = np.cov(cols.T)
    cov_pred = np.array([[b_t * min(a, b) * base_volume for b in rs] for a in rs])
    rel = np.abs(cov_emp - cov_pred) / np.abs(cov_pred)
    inc = independence_report(
        increment_columns, default_z_tuples(increment_columns.shape[1]), n_perm=n_perm, seed=seed
    )
    return FddReport(
        r_grid=rs, cov_emp=cov_emp, cov_pred=cov_pred,
        max_rel_dev=float(np.max(rel)), increments=inc,
    )


# -- tail checks --


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    z = 2.576  # the two-sided 99% normal quantile
    if n <= 0:
        raise ConfigError("wilson_interval: n must be positive")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass
class TailCheckRow:
    ell: float
    empirical: float
    ci_low: float
    ci_high: float
    bound: float
    violated: bool


def tail_check(
    values: np.ndarray,
    ell_grid,
    profile: DalangProfile,
    eps: float,
    delta: float,
    T: float,
    B: float,
    sigma_scale: float = 1.0,
) -> list[TailCheckRow]:
    """Empirical tails with Wilson intervals against the analytic bound, for
    B = A(eps) Lip(g) ||psi||_2 sqrt(T) with A(eps) from ``moment_constants``.

    A violation is flagged only when the interval's lower end exceeds a
    non-vacuous bound.
    """
    values = np.abs(np.asarray(values, dtype=float))
    n = values.size
    rows = []
    for ell in ell_grid:
        k = int(np.sum(values > ell))
        lo, hi = wilson_interval(k, n)
        bound = tail_bound(ell, eps, delta, T, B, profile, sigma_scale=sigma_scale)
        rows.append(
            TailCheckRow(
                ell=float(ell), empirical=k / n, ci_low=lo, ci_high=hi,
                bound=bound, violated=bool(lo > bound and bound < 1.0),
            )
        )
    return rows


def default_workers() -> int:
    """``SHECLT_WORKERS`` if set, else the CPUs this process may run on, at most 4."""
    env = os.environ.get("SHECLT_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError as exc:
            raise ConfigError("SHECLT_WORKERS: must be an integer") from exc
        if workers < 1:
            raise ConfigError("SHECLT_WORKERS: must be positive")
        return workers
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))

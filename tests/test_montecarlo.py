"""Experiment orchestration and limit-theorem statistics."""

import math
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtri

from oracles import smoothed_axis
from sheclt import montecarlo
from sheclt.errors import ConfigError, DegenerateVariance, SolverBlowup
from sheclt.montecarlo import (
    DEFAULT_CHUNK,
    ExperimentConfig,
    _map_chunks,
    clt_report,
    default_workers,
    default_z_tuples,
    ecf_gap,
    ecf_permutation_null,
    estimate_baseline,
    fdd_brownian_check,
    field_run,
    independence_report,
    independence_rhs,
    ks_critical,
    ks_normal,
    marginal_variance_run,
    run_experiment,
    tail_check,
    wilson_interval,
)
from sheclt.occupation import HALO_FACTOR, LipFunction, PreparedTestFunction, TestFunction
from sheclt.noise import Grid
from sheclt.solver import SigmaFunction, solve_batch
from sheclt.spectral import CovarianceMeasure, DalangProfile

WHITE = CovarianceMeasure("dirac", 1, 1.0)


def tiny_config(**kw):
    args = dict(
        covariance=WHITE,
        sigma=SigmaFunction.constant(1.0),
        g_list=[LipFunction.identity()],
        psi_list=[TestFunction.box(0.0, 1.0)],
        t=0.25,
        n_ladder=[4.0],
        dx=0.25,
        replicas=24,
        seed=99,
    )
    args.update(kw)
    return ExperimentConfig(**args)


class TestExperiment:
    def test_ladder_must_increase(self):
        with pytest.raises(ConfigError):
            tiny_config(n_ladder=[8.0, 4.0])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            tiny_config(workers=workers)

    def test_deterministic_across_runs_and_workers(self):
        a = run_experiment(tiny_config(replicas=70))
        b = run_experiment(tiny_config(replicas=70))
        c = run_experiment(tiny_config(replicas=70, workers=2))
        key = (4.0, a.config.psi_list[0].label, "identity")
        assert np.array_equal(a.ensembles[key].values, b.ensembles[key].values)
        assert np.array_equal(a.ensembles[key].values, c.ensembles[key].values)

    def test_single_replica_flagged_by_length(self):
        res = run_experiment(tiny_config(replicas=1))
        key = (4.0, res.config.psi_list[0].label, "identity")
        assert res.ensembles[key].values.shape == (1,)

    def test_replica_pairing_consistent(self):
        # two psi's on one solve: recompute one replica by hand and match both
        psi1 = TestFunction.box(0.0, 1.0)
        psi2 = TestFunction.box(0.5, 2.0)
        cfg = tiny_config(psi_list=[psi1, psi2], replicas=6)
        res = run_experiment(cfg)
        from sheclt.occupation import (
            PreparedTestFunction,
            exact_baseline,
            occupation_values,
        )
        from sheclt.solver import solve_batch

        grid = res.grids[4.0]
        fields, _ = solve_batch(grid, cfg.sigma, WHITE, cfg.t, cfg.seed, [3], domain=0)
        base = exact_baseline(LipFunction.identity())
        for psi in (psi1, psi2):
            prep = PreparedTestFunction(grid, psi.scaled(4.0), halo=8 * math.sqrt(cfg.t))
            val = occupation_values(prep, fields, base.value, 4.0)[0]
            assert res.get(4.0, psi, "identity").values[3] == val

    def test_mean_zero_with_exact_baseline(self):
        res = run_experiment(tiny_config(replicas=300))
        vals = res.get(4.0, res.config.psi_list[0], "identity").values
        se = np.std(vals) / math.sqrt(vals.size)
        assert abs(np.mean(vals)) < 4 * se


def five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@st.composite
def signed_layouts(draw):
    """1-3 test functions of 1-3 signed boxes each in d = 1-3, with N, t and dx."""
    d = draw(st.integers(1, 3))
    quarter = st.integers(-8, 8).map(lambda k: k / 4.0)

    def term():
        lo = tuple(draw(quarter) for _ in range(d))
        hi = tuple(v + draw(st.integers(1, 8)) / 4.0 for v in lo)
        return draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])), lo, hi

    # labelled apart: a config rejects two test functions labelled alike
    psis = [TestFunction([term() for _ in range(draw(st.integers(1, 3)))], label=f"psi{i}")
            for i in range(draw(st.integers(1, 3)))]
    N, t, dx = (draw(st.floats(lo, hi)) for lo, hi in ((0.25, 4.0), (0.0, 1.0), (0.25, 1.0)))
    return d, psis, N, t, dx


class TestGridFor:
    @settings(max_examples=150, deadline=None)
    @given(signed_layouts())
    def test_smallest_torus_past_span_and_halo(self, layout):
        d, psis, N, t, dx = layout
        cov = WHITE if d == 1 else CovarianceMeasure("gaussian", d, 1.0, 1.0)
        cfg = tiny_config(covariance=cov, psi_list=psis, t=t, n_ladder=[N], dx=dx)
        grid = cfg.grid_for(N)
        boxes = [box for psi in psis for _, box in psi.scaled(N).terms]
        lo = np.min([box.lo for box in boxes], axis=0)
        hi = np.max([box.hi for box in boxes], axis=0)
        span, widest = float(np.max(hi - lo)), max(max(psi.scaled(N).support_widths()) for psi in psis)
        needed = span + 8.0 * math.sqrt(t)
        assert grid.length > needed
        smaller = [k for k in range(2, grid.n) if five_smooth(k)]
        assert not smaller or smaller[-1] * dx <= needed
        for psi in psis:
            PreparedTestFunction(grid, psi.scaled(N), halo=HALO_FACTOR * math.sqrt(t))
        # the rule this one replaces: L > 2 max(widest support, span / 2) + 8 sqrt(t)
        old_needed = 2.0 * max(widest, span / 2.0) + 8.0 * math.sqrt(t)
        old_n = next(k for k in range(2, 10**6) if five_smooth(k) and k * dx > old_needed)
        assert grid.n == old_n if span >= 2.0 * widest else grid.n <= old_n

    def test_independence_layout_unchanged(self):
        # three unit boxes at 0, 2, 4: span = 5 N is already twice the old extent
        cfg = tiny_config(psi_list=[TestFunction.box(lo, lo + 1.0) for lo in (0.0, 2.0, 4.0)],
                          t=1.0, n_ladder=[16.0, 32.0], dx=0.25)
        assert [cfg.grid_for(N).n for N in cfg.n_ladder] == [360, 675]


class TestMarginalVarianceRun:
    @pytest.mark.slow
    def test_matches_direct_solver_statistics(self):
        out = marginal_variance_run(
            WHITE, SigmaFunction.constant(1.0), 0.5, 1.0 / 8.0, 8.0, 400, seed=5
        )
        par = marginal_variance_run(
            WHITE, SigmaFunction.constant(1.0), 0.5, 1.0 / 8.0, 8.0, 400, seed=5, workers=2
        )
        assert out.variance == par.variance  # bit-identical under workers
        assert abs(out.mean - 1.0) < 4 * out.mean_se


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty pool slot for one test; the pool the test forks is shut down after it."""
    monkeypatch.setattr(montecarlo, "_POOL", None)
    yield
    montecarlo._drop_pool()


# chunk tasks for the pool tests; module level, so that workers can unpickle them
def _worker_pid(replicas):
    return os.getpid()


def _chunk_length(replicas):
    return len(replicas)


def _blow_up(replicas):
    raise SolverBlowup("planted")


def _exit_worker(replicas):
    os._exit(1)


class TestChunkedSolves:
    """Every replicated solve goes through ``_map_chunks``: blocks of
    DEFAULT_CHUNK replicas, serial or pooled, with the same output bits."""

    AFFINE = SigmaFunction.affine(1.0, 0.5)
    REPLICAS = 2 * DEFAULT_CHUNK + 3  # three chunks, the last one short
    CASES = {
        "white-1d": (WHITE, Grid(d=1, length=8.0, n=32, dt=1.0 / 128.0)),
        "gaussian-2d": (CovarianceMeasure("gaussian", 2, 1.0, 1.0),
                        Grid(d=2, length=8.0, n=16, dt=1.0 / 16.0)),
        "gaussian-3d": (CovarianceMeasure("gaussian", 3, 1.0, 1.0),
                        Grid(d=3, length=6.0, n=12, dt=1.0 / 24.0)),
    }

    def test_chunks_in_order_and_empty_rejected(self):
        out = _map_chunks(lambda *a: (a[0], list(a[1])), 130, 1, "x")
        assert [o[0] for o in out] == ["x"] * 3
        assert [r for o in out for r in o[1]] == list(range(130))
        assert [len(o[1]) for o in out] == [DEFAULT_CHUNK, DEFAULT_CHUNK, 2]
        with pytest.raises(ConfigError):
            _map_chunks(lambda *a: None, 0, 1)

    def test_pool_never_larger_than_the_chunk_count(self, fresh_pool, monkeypatch):
        sizes, shut = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                self.size = max_workers
                sizes.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, wait=True):
                assert wait
                shut.append(self.size)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        for workers, n in ((8, 130), (2, 130), (8, 64)):
            lengths = _map_chunks(lambda replicas: len(replicas), n, workers)
            assert sum(lengths) == n
        assert sizes == [3, 2]  # one chunk runs in this process, no pool
        assert shut == [3]  # the 3-process pool went before the 2-process one came

    def test_consecutive_experiments_share_one_pool(self, fresh_pool, monkeypatch):
        created = []
        real = montecarlo.ProcessPoolExecutor

        def counting(max_workers):
            created.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", counting)
        configs = [tiny_config(sigma=self.AFFINE, g_list=[LipFunction.sin()], replicas=70,
                               baseline_replicas=self.REPLICAS, workers=w) for w in (2, 2, 1)]
        runs = [run_experiment(cfg) for cfg in configs]
        assert created == [2]  # two baselines and two experiments, one pool
        key = (4.0, runs[0].config.psi_list[0].label, "sin")
        for run in runs[:2]:
            assert run.ensembles[key].baseline.value == runs[2].ensembles[key].baseline.value
            assert np.array_equal(run.ensembles[key].values, runs[2].ensembles[key].values)

    def test_pool_grows_and_is_replaced_for_fewer_workers(self, fresh_pool):
        seen = []
        for chunks, workers in ((2, 8), (3, 8), (3, 2), (2, 8)):
            pids = _map_chunks(_worker_pid, chunks * DEFAULT_CHUNK, workers)
            assert len(pids) == chunks and os.getpid() not in pids
            seen.append(montecarlo._POOL)
        assert [size for _, size, _ in seen] == [2, 3, 2, 2]
        assert all(owner == os.getpid() for _, _, owner in seen)
        pools = [pool for pool, _, _ in seen]
        assert pools[1] is not pools[0]  # grown for three chunks
        assert pools[2] is not pools[1]  # replaced: three processes exceed workers = 2
        assert pools[3] is pools[2]  # two processes lie within [min(8, 2), 8]: reused

    def test_dead_worker_drops_the_pool_task_error_keeps_it(self, fresh_pool):
        assert _map_chunks(_chunk_length, 2 * DEFAULT_CHUNK, 2) == [DEFAULT_CHUNK] * 2
        pool = montecarlo._POOL[0]
        with pytest.raises(SolverBlowup):
            _map_chunks(_blow_up, 2 * DEFAULT_CHUNK, 2)
        assert montecarlo._POOL[0] is pool
        with pytest.raises(BrokenProcessPool):
            _map_chunks(_exit_worker, 2 * DEFAULT_CHUNK, 2)
        assert montecarlo._POOL is None
        assert _map_chunks(_chunk_length, 2 * DEFAULT_CHUNK, 2) == [DEFAULT_CHUNK] * 2
        assert montecarlo._POOL[0] is not pool

    def test_inherited_pool_left_to_the_parent(self, fresh_pool):
        # a forked child finds its parent's pool in the slot, owned by another pid
        class ParentPool:
            def map(self, fn, items):
                raise AssertionError("a child used its parent's pool")

            def shutdown(self, wait=True):
                raise AssertionError("a child shut its parent's pool down")

        montecarlo._POOL = (ParentPool(), 2, os.getpid() + 1)
        assert _map_chunks(_chunk_length, 2 * DEFAULT_CHUNK, 2) == [DEFAULT_CHUNK] * 2
        assert montecarlo._POOL[2] == os.getpid()
        montecarlo._drop_pool()
        montecarlo._POOL = (ParentPool(), 2, os.getpid() + 1)
        montecarlo._drop_pool()
        assert montecarlo._POOL is None

    def test_no_worker_outlives_the_process(self):
        script = (
            "import multiprocessing\n"
            "from test_montecarlo import tiny_config\n"
            "from sheclt.montecarlo import run_experiment\n"
            "run_experiment(tiny_config(replicas=70, workers=2))\n"
            "print(' '.join(str(p.pid) for p in multiprocessing.active_children()))\n"
        )
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == 2  # the pool outlived the experiment, inside the process
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_field_run_matches_one_solve_batch(self, case):
        f, grid = self.CASES[case]
        whole, _ = solve_batch(grid, self.AFFINE, f, 0.25, 7, range(self.REPLICAS), domain=20_000)
        for workers in (1, 2):
            fields = field_run(f, self.AFFINE, 0.25, grid, self.REPLICAS, 7, domain=20_000,
                               workers=workers)
            assert fields.shape == whole.shape and np.array_equal(fields, whole)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_baseline_worker_invariant(self, case):
        f, grid = self.CASES[case]
        (serial,), (pooled,) = (
            estimate_baseline(grid, self.AFFINE, f, 0.25, [LipFunction.sin()], self.REPLICAS,
                              5, 10_000, workers=workers)
            for workers in (1, 2)
        )
        assert serial.value == pooled.value
        assert serial.provenance == "mc" and serial.n_replicas == self.REPLICAS
        # the mean of the replicas' grid means of g(u) on the same fields
        fields, _ = solve_batch(grid, self.AFFINE, f, 0.25, 5, range(self.REPLICAS), domain=10_000)
        axes = tuple(range(1, fields.ndim))
        assert serial.value == float(np.mean(np.sin(fields).mean(axis=axes)))

    def test_one_baseline_solve_serves_every_observable(self, monkeypatch):
        calls = []

        def counting(grid, sigma, f, t, seed, replicas, **kw):
            calls.append((kw.get("domain"), list(replicas)))
            return solve_batch(grid, sigma, f, t, seed, replicas, **kw)

        monkeypatch.setattr(montecarlo, "solve_batch", counting)
        g_list = [LipFunction.sin(), LipFunction.tabulated([-1.0, 0.0, 2.0], [0.5, 0.0, 1.0]),
                  LipFunction.identity()]
        result = run_experiment(tiny_config(sigma=self.AFFINE, g_list=g_list, replicas=70,
                                            baseline_replicas=self.REPLICAS))
        baseline = [r for domain, r in calls if domain == montecarlo.BASELINE_DOMAIN_OFFSET]
        assert [len(r) for r in baseline] == [DEFAULT_CHUNK, DEFAULT_CHUNK, 3]
        assert [i for r in baseline for i in r] == list(range(self.REPLICAS))
        psi = result.config.psi_list[0]
        provenance = [result.get(4.0, psi, g).baseline.provenance for g in g_list]
        assert provenance == ["mc", "mc", "exact-mean-one"]

    def test_experiment_with_mc_baseline_worker_invariant(self):
        runs = [
            run_experiment(tiny_config(sigma=self.AFFINE, g_list=[LipFunction.sin()],
                                       replicas=70, baseline_replicas=self.REPLICAS,
                                       workers=workers))
            for workers in (1, 2)
        ]
        key = (4.0, runs[0].config.psi_list[0].label, "sin")
        a, b = (r.ensembles[key] for r in runs)
        assert a.baseline.provenance == "mc" and a.baseline.value == b.baseline.value
        assert np.array_equal(a.values, b.values)


class TestKs:
    def test_exact_quantile_samples(self):
        n = 2000
        q = ndtri((np.arange(1, n + 1) - 0.5) / n)
        assert ks_normal(q, 0.0, 1.0) <= 0.5 / n + 1e-6

    def test_point_mass_far_from_normal(self):
        assert ks_normal(np.zeros(100), 0.0, 1.0) >= 0.5

    def test_reference_normal_draws(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        assert ks_normal(x, 0.0, 1.0) < ks_critical(4000)
        assert ks_critical(4000) == pytest.approx(1.63 / math.sqrt(4000))

    def test_guards(self):
        with pytest.raises(DegenerateVariance):
            ks_normal(np.random.default_rng(1).normal(size=100), 0.0, 0.0)
        with pytest.raises(ConfigError):
            ks_normal(np.zeros(10), 0.0, 1.0)


class TestEcf:
    def test_perfect_dependence_gap_positive(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3000)
        cols = np.stack([x, x], axis=1)
        assert ecf_gap(cols, np.array([1.0, 1.0])) > 0.1

    def test_independent_columns_small_gap(self):
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((4000, 2))
        gap = ecf_gap(cols, np.array([1.0, -1.0]))
        assert gap < 5.0 / math.sqrt(4000)

    def test_permutation_null_scale(self):
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((2000, 2))
        z_list = [np.array([1.0, -1.0]), np.array([2.0, 1.0])]
        null = ecf_permutation_null(cols, z_list, n_perm=60, seed=7)
        assert np.all(null < 0.2)
        rep = independence_report(cols, z_list, n_perm=60, seed=7)
        assert rep.passed

    def test_dependent_columns_fail_null(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2000)
        cols = np.stack([x, 0.9 * x + 0.1 * rng.standard_normal(2000)], axis=1)
        rep = independence_report(cols, [np.array([1.0, -1.0])], n_perm=60, seed=8)
        assert not rep.passed

    @staticmethod
    def cos_sin_gap(columns, z):
        # |joint - product of marginals| through real cos/sin means
        phase = columns @ z
        joint = complex(np.cos(phase).mean(), np.sin(phase).mean())
        prod = 1.0 + 0.0j
        for j in range(z.size):
            prod *= complex(np.cos(z[j] * columns[:, j]).mean(), np.sin(z[j] * columns[:, j]).mean())
        return abs(joint - prod)

    @staticmethod
    def loop_null(columns, z_list, n_perm, seed):
        # reference: shuffle columns 1..m-1, then the max over z of the direct ECF gap
        def gap(cols, z):
            joint = np.mean(np.exp(1j * cols @ z))
            marg = np.prod([np.mean(np.exp(1j * z[j] * cols[:, j])) for j in range(z.size)])
            return float(abs(joint - marg))

        rng = np.random.default_rng(seed)
        out = np.empty(n_perm)
        shuffled = columns.copy()
        for p in range(n_perm):
            for j in range(1, columns.shape[1]):
                shuffled[:, j] = columns[rng.permutation(columns.shape[0]), j]
            out[p] = max(gap(shuffled, z) for z in z_list)
        return out

    @staticmethod
    def coupled_columns(n, m, seed):
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((n, m))
        cols[:, 1] += 0.5 * cols[:, 0]
        return cols

    def test_gaps_match_cos_sin_reference(self):
        irregular = [np.array(z) for z in
                     ([0.5, -1.25, 0.0], [0.5, -1.25, 0.0], [0.0, 0.0, 0.0],
                      [3.0, 0.5, -0.75], [-0.1, 0.5, 3.0])]
        cases = [(m, default_z_tuples(m)) for m in (2, 3, 4)] + [(3, irregular)]
        for m, z_list in cases:
            cols = self.coupled_columns(300, m, seed=10 + m)
            ref = [self.cos_sin_gap(cols, z) for z in z_list]
            for z, r in zip(z_list, ref):
                assert abs(ecf_gap(cols, z) - r) <= 1e-12
            rep = independence_report(cols, z_list, n_perm=1, seed=0)
            assert all(abs(rep.gaps[tuple(z)] - r) <= 1e-12 for z, r in zip(z_list, ref))
            assert abs(rep.observed - max(ref)) <= 1e-12

    def test_permutation_null_matches_loop(self):
        irregular = [np.array([0.5, 0.0, -2.0]), np.array([0.5, 0.0, -2.0]), np.array([1.5, 1.0, 0.25])]
        for m, z_list in ((2, default_z_tuples(2)), (3, default_z_tuples(3)), (3, irregular)):
            cols = self.coupled_columns(200, m, seed=20 + m)
            null = ecf_permutation_null(cols, z_list, n_perm=25, seed=31)
            ref = self.loop_null(cols, z_list, n_perm=25, seed=31)
            assert null.shape == ref.shape
            assert np.max(np.abs(null - ref)) <= 1e-12

    def test_report_gaps_keyed_by_z(self):
        cols = self.coupled_columns(400, 3, seed=40)
        z_list = default_z_tuples(3)
        rep = independence_report(cols, z_list, n_perm=20, seed=3)
        assert list(rep.gaps) == [tuple(z) for z in z_list]
        for z in z_list:
            assert abs(rep.gaps[tuple(z)] - ecf_gap(cols, z)) <= 1e-12
        assert rep.observed == max(rep.gaps.values())

    def test_bad_n_perm_and_z_list_are_config_errors(self):
        cols = self.coupled_columns(100, 2, seed=50)
        z_list = default_z_tuples(2)
        for n_perm in (0, -3, 2.5, "abc"):
            with pytest.raises(ConfigError):
                ecf_permutation_null(cols, z_list, n_perm=n_perm, seed=0)
        with pytest.raises(ConfigError):
            independence_report(cols, z_list, n_perm=0, seed=0)
        with pytest.raises(ConfigError):
            independence_report(cols, [], n_perm=10, seed=0)
        with pytest.raises(ConfigError):
            ecf_permutation_null(cols, [], n_perm=10, seed=0)
        with pytest.raises(ConfigError):
            ecf_gap(cols, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ConfigError):
            independence_report(cols[:, :1], [np.array([1.0])], n_perm=10, seed=0)

    def test_default_z_tuples_cover_pm_1_2(self):
        zs = default_z_tuples(2)
        assert len(zs) == 16
        flat = {tuple(z) for z in zs}
        assert (1.0, -1.0) in flat and (-2.0, 2.0) in flat


def independence_rhs_nested(f, t, psi, phi, N):
    """The nested-quadrature route to independence_rhs: adaptive quadrature
    in eta of the smoothed covariance times the box cross-correlation, per
    axis, inside adaptive quadrature in w = sqrt(s).

    The eta pieces are cut at the trapezoid's knots and, inside them, at the
    kernel's centre and scale (0, +-sqrt(2s), +-8 sqrt(2s)), with tolerances
    1e-12 relative and no absolute floor: cut at the knots alone, with
    QUADPACK's default tolerances, the narrow kernel at N = 32 is missed by
    up to 4e-4 relative.
    """
    if t <= 0.0:
        return 0.0
    terms_psi = montecarlo._abs_disjoint_terms(psi)
    terms_phi = montecarlo._abs_disjoint_terms(phi)
    d = f.dimension

    def inner(s):
        scale = math.sqrt(2.0 * s)
        total = 0.0
        for a_phi, box_phi in terms_phi:
            for a_psi, box_psi in terms_psi:
                prod = a_phi * a_psi
                for ax in range(d):
                    p, q = box_phi.lo[ax], box_phi.hi[ax]
                    r, w = box_psi.lo[ax], box_psi.hi[ax]
                    lo, hi = N * (p - w), N * (q - r)
                    if hi <= lo:
                        prod = 0.0
                        break
                    knots = {lo, N * (p - r), N * (q - w), hi}
                    knots |= {c * scale for c in (0.0, -1.0, 1.0, -8.0, 8.0)
                              if lo < c * scale < hi}
                    knots = sorted(knots)

                    def integrand(eta):
                        ov = max(0.0, min(q, w + eta / N) - max(p, r + eta / N))
                        return float(smoothed_axis(f, 2.0 * s, np.array([eta]))[0]) * ov

                    prod *= sum(
                        integrate.quad(integrand, a0, b0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                        for a0, b0 in zip(knots[:-1], knots[1:])
                    )
                total += prod
        return f.mass * total

    with warnings.catch_warnings():
        # far-out eta pieces hold nothing and can report roundoff at 1e-12
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda wv: 2.0 * wv * inner(wv * wv), 0.0, math.sqrt(t),
            epsabs=0.0, epsrel=1e-12, limit=200,
        )
    return val


def _mp_ramp(f, v, a):
    """E[(X - a)^+] in mpmath for X ~ smoothed_axis(v, .), a >= 0."""
    import mpmath as mp

    def gauss(c, var, k=1):  # E[(G - c)^{+k}], G ~ N(0, var)
        sd = mp.sqrt(var)
        z = c / sd
        if k == 1:
            return sd * mp.npdf(z) - c * mp.ncdf(-z)
        return sd**3 * ((z * z + 2) * mp.npdf(z) - z * (z * z + 3) * mp.ncdf(-z))

    if f.kind == "dirac":
        return gauss(a, v)
    if f.kind == "gaussian":
        return gauss(a, v + mp.mpf(f.param) ** 2)
    if f.kind == "exponential":
        r = mp.mpf(f.param)

        def half(y):
            return mp.exp(r * r * v / 2 - r * y) * mp.ncdf((y - r * v) / mp.sqrt(v))

        return gauss(a, v) + (half(a) + half(-a)) / (2 * r)
    h = mp.mpf(f.param)
    return (gauss(a - h, v, 3) - 2 * gauss(a, v, 3) + gauss(a + h, v, 3)) / (6 * h * h)


def independence_rhs_mpmath(f, t, box_psi, box_phi, N):
    """d = 1, one box each: the ramp identity in 30-digit arithmetic, with the
    time integral a 20-point Gauss-Legendre rule on 60 pieces in w that halve
    towards w = sqrt(t), where a far pair's integrand lives."""
    import mpmath as mp

    with mp.workdps(30):
        p, q = mp.mpf(box_phi[0]), mp.mpf(box_phi[1])
        r, w = mp.mpf(box_psi[0]), mp.mpf(box_psi[1])
        N = mp.mpf(N)
        knots = [abs(N * k) for k in (p - w, p - r, q - w, q - r)]
        ov0 = max(mp.mpf(0), min(q, w) - max(p, r))

        def inner(s):
            ramps = [_mp_ramp(f, 2 * s, a) for a in knots]
            return ov0 + (ramps[0] - ramps[1] - ramps[2] + ramps[3]) / N

        nodes, weights = np.polynomial.legendre.leggauss(20)
        top = mp.sqrt(t)
        edges = [mp.mpf(0)] + [top * (1 - mp.mpf(2) ** -k) for k in range(1, 61)] + [top]
        total = mp.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            half, mid = (hi - lo) / 2, (hi + lo) / 2
            for x, wt in zip(nodes, weights):
                wv = mid + half * mp.mpf(float(x))
                total += half * mp.mpf(float(wt)) * 2 * wv * inner(wv * wv)
        return f.mass * total


RHS_KINDS = [
    CovarianceMeasure("dirac", 1, 1.0),
    CovarianceMeasure("gaussian", 1, 1.3, 0.7),
    CovarianceMeasure("uniform", 1, 0.8, 1.2),
    CovarianceMeasure("exponential", 1, 1.1, 2.0),
]
# (psi, phi) per layout as (amp, lo, hi) boxes on one axis, with the (N, t)
# pairs it is checked at: every N in {1, 4, 32} and t in {0.25, 1} per kind
RHS_LAYOUTS = {
    "overlapping": ([(1.0, 0.0, 1.0)], [(1.0, 0.5, 1.5)], ((1.0, 0.25), (4.0, 1.0), (32.0, 0.25))),
    "adjacent": ([(1.0, 0.0, 1.0)], [(1.0, 1.0, 2.0)], ((1.0, 1.0), (4.0, 0.25), (32.0, 1.0))),
    "disjoint": ([(1.0, 0.0, 1.0)], [(1.0, 2.0, 3.0)], ((1.0, 0.25), (4.0, 1.0), (32.0, 0.25))),
    "signed": ([(1.0, 0.0, 1.0), (-0.5, 1.5, 2.5)], [(1.0, 0.2, 0.9)],
               ((1.0, 1.0), (4.0, 0.25), (32.0, 1.0))),
}


def _tf(boxes, extra=()):
    """One-axis boxes, each extended by the fixed ``extra`` (lo, hi) axes."""
    return TestFunction([(a, (lo, *(e[0] for e in extra)), (hi, *(e[1] for e in extra)))
                         for a, lo, hi in boxes])


class TestIndependenceRhsClosedForm:
    """The ramp-identity ``independence_rhs`` against independent routes."""

    @pytest.mark.parametrize("layout", sorted(RHS_LAYOUTS))
    @pytest.mark.parametrize("f", RHS_KINDS, ids=lambda f: f.kind)
    def test_matches_nested_quadrature_d1(self, f, layout):
        psi_boxes, phi_boxes, cases = RHS_LAYOUTS[layout]
        psi, phi = _tf(psi_boxes), _tf(phi_boxes)
        for N, t in cases:
            got = independence_rhs(f, t, psi, phi, N)
            ref = independence_rhs_nested(f, t, psi, phi, N)
            assert math.isfinite(got) and got >= 0.0
            if ref >= 1e-12:
                assert got == pytest.approx(ref, rel=1e-9), (N, t)

    @pytest.mark.parametrize("f", RHS_KINDS, ids=lambda f: f.kind)
    def test_matches_nested_quadrature_d2(self, f):
        # axis 1 is overlapping for the first box pair, adjacent for the second
        f2 = CovarianceMeasure(f.kind, 2, f.mass, f.param)
        psi = TestFunction([(1.0, (0.0, 0.0), (1.0, 1.0)), (-0.5, (1.5, 1.0), (2.5, 2.0))])
        phi = _tf([(1.0, 0.5, 1.5)], extra=[(0.5, 1.0)])
        for N, t in ((1.0, 1.0), (4.0, 0.25)):
            got = independence_rhs(f2, t, psi, phi, N)
            ref = independence_rhs_nested(f2, t, psi, phi, N)
            assert ref >= 1e-12
            assert got == pytest.approx(ref, rel=1e-9), (N, t)

    @pytest.mark.parametrize(
        "f, psi_box, N, t",
        [
            (RHS_KINDS[0], (2.0, 3.0), 16.0, 1.0),  # the benchmark's box0~box2 at N = 16
            (RHS_KINDS[0], (4.0, 5.0), 16.0, 1.0),
            (RHS_KINDS[1], (-4.0, -3.0), 16.0, 1.0),
            (RHS_KINDS[2], (2.0, 3.0), 32.0, 1.0),
            (RHS_KINDS[3], (-4.0, -3.0), 16.0, 0.25),
        ],
        ids=["dirac-bench", "dirac", "gaussian", "uniform", "exponential"],
    )
    def test_far_pairs_match_mpmath(self, f, psi_box, N, t):
        # values down to 1e-258: no term of the closed form may cancel
        got = independence_rhs(f, t, TestFunction.box(*psi_box), TestFunction.box(0.0, 1.0), N)
        ref = float(independence_rhs_mpmath(f, t, psi_box, (0.0, 1.0), N))
        assert 0.0 < ref < 1e-12
        assert got >= 0.0
        assert got == pytest.approx(ref, rel=1e-11)

    def test_nonnegative_on_a_ladder(self):
        psi, phi = TestFunction.box(0.0, 1.0), TestFunction.box(1.0 + 1e-9, 2.0)
        for f in RHS_KINDS:
            for N in (1.0, 8.0, 64.0, 512.0):
                val = independence_rhs(f, 1.0, psi, phi, N)
                assert math.isfinite(val) and val >= 0.0


class TestIndependenceRhs:
    def test_unit_box_dirac_reference(self):
        # two-level quadrature oracle: int_0^1 (p_{2s} * triangle)(0) ds
        psi = TestFunction.box(0.0, 1.0)
        tri = CovarianceMeasure("uniform", 1, 1.0, 1.0)
        oracle, _ = integrate.quad(
            lambda w: 2.0 * w * float(smoothed_axis(tri, 2.0 * w * w, np.array([0.0]))[0]),
            0.0,
            1.0,
        )
        got = independence_rhs(WHITE, 1.0, psi, psi, 1.0)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_disjoint_supports_vanish_with_n(self):
        psi = TestFunction.box(0.0, 1.0)
        phi = TestFunction.box(2.0, 3.0)
        vals = [independence_rhs(WHITE, 1.0, psi, phi, N) for N in (1.0, 2.0, 4.0, 8.0, 32.0)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6 * vals[0] + 1e-12

    def test_t_zero(self):
        psi = TestFunction.box(0.0, 1.0)
        assert independence_rhs(WHITE, 0.0, psi, psi, 2.0) == 0.0

    def test_rejects_overlapping_boxes(self):
        psi = TestFunction([(1.0, (0.0,), (2.0,)), (1.0, (1.0,), (3.0,))])
        with pytest.raises(ConfigError):
            independence_rhs(WHITE, 1.0, psi, psi, 1.0)


class TestCltReport:
    def test_report_fields(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(scale=1.0, size=4000)
        rep = clt_report(vals, psi_norm_sq=1.0, b_t=1.0)
        assert rep.gaussian
        assert rep.predicted_variance == 1.0
        assert abs(rep.variance - 1.0) < 0.1


class TestWilsonAndTails:
    def test_wilson_basic(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.08
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_tail_check_no_violation_on_normal_samples(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(4000)
        prof = DalangProfile(WHITE)
        rows = tail_check(
            vals, np.geomspace(0.1, 500.0, 20), prof,
            eps=0.5, delta=0.5, T=1.0, lip_g=1.0, psi_norm=1.0,
        )
        assert len(rows) == 20
        assert not any(r.violated for r in rows)
        # clamped region reports the vacuous bound
        assert rows[0].bound == 1.0

    def test_tail_check_flags_genuine_violation(self):
        # giant constant samples exceed any sub-unit bound
        vals = np.full(5000, 1e9)
        prof = DalangProfile(WHITE)
        rows = tail_check(
            vals, [1e8], prof, eps=0.5, delta=0.5, T=1.0, lip_g=1.0, psi_norm=1.0
        )
        assert rows[0].violated


class TestFdd:
    def test_exact_brownian_inputs(self):
        rng = np.random.default_rng(9)
        n = 4000
        w1 = rng.standard_normal(n) * math.sqrt(0.25)
        w2 = w1 + rng.standard_normal(n) * math.sqrt(0.25)
        w4 = w2 + rng.standard_normal(n) * math.sqrt(0.5)
        samples = {0.25: w1, 0.5: w2, 1.0: w4}
        inc = np.stack([w1, w2 - w1, w4 - w2], axis=1)
        rep = fdd_brownian_check(samples, inc, b_t=1.0, base_volume=1.0, n_perm=60, seed=10)
        assert rep.max_rel_dev < 0.15
        assert rep.increments.passed


class TestDefaultWorkers:
    @pytest.mark.parametrize("cpus, expected", [({0}, 1), ({0, 1}, 2), (set(range(8)), 4)])
    def test_cpu_affinity_capped_at_four(self, monkeypatch, cpus, expected):
        monkeypatch.delenv("SHECLT_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert default_workers() == expected

    @pytest.mark.parametrize("env", ["0", "-2", "two"])
    def test_env_must_be_a_positive_integer(self, monkeypatch, env):
        monkeypatch.setenv("SHECLT_WORKERS", env)
        with pytest.raises(ConfigError, match="SHECLT_WORKERS"):
            default_workers()

    def test_env_sets_the_count(self, monkeypatch):
        monkeypatch.setenv("SHECLT_WORKERS", "6")
        assert default_workers() == 6

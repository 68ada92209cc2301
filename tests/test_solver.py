"""Solver checks: exact invariants, variance oracles, scheme cross-validation."""

import math

import numpy as np
import pytest

from sheclt import solver as solver_module
from sheclt.errors import ConfigError, SolverBlowup
from sheclt.noise import Grid, RngStream, SpectralWeights, sample_noise_batch, spectral_weights
from oracles import keyed_generator, picard_solve, time_integrated_cov
from sheclt.solver import SigmaFunction, discrete_laplacian, solve_batch, step_euler
from sheclt.spectral import CovarianceMeasure

WHITE = CovarianceMeasure("dirac", 1, 1.0)


class ZeroSigma:
    """sigma == 0, which SigmaFunction rejects: the field stays flat at 1."""

    is_constant = False  # step_euler's general path, sigma(u) dW

    def __call__(self, u, out=None):
        out = np.empty(np.shape(u)) if out is None else out
        out.fill(0.0)
        return out


def grid_1d(dx=1.0 / 8.0, L=8.0):
    n = int(round(L / dx))
    return Grid(d=1, length=L, n=n, dt=dx * dx / 2.0)


def exact_discrete_variance_white(grid, n_steps, mass):
    """Fourier-exact per-cell variance of the explicit scheme, sigma == 1.

    The update filter has symbol 1 - (2 dt/dx^2) sin^2(pi k/n); summing the
    geometric propagation of independent white increments gives the scheme's
    own stationary-in-space variance, an exact reference that isolates Monte
    Carlo error from discretization error.
    """
    k = np.arange(grid.n)
    G = 1.0 - (2.0 * grid.dt / grid.dx**2) * np.sin(np.pi * k / grid.n) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (1.0 - G ** (2 * n_steps)) / (1.0 - G * G)
    terms[np.abs(G) == 1.0] = n_steps
    return grid.dt * mass / grid.dx * float(np.mean(terms))


def laplacian_reference(values, grid):
    """Out-of-place np.roll form of the periodic 2d+1-point Laplacian."""
    out = -2.0 * grid.d * values
    for ax in range(values.ndim - grid.d, values.ndim):
        out += np.roll(values, 1, axis=ax) + np.roll(values, -1, axis=ax)
    return out / (grid.dx * grid.dx)


def step_reference(values, grid, sigma, dW):
    return values + (grid.dt / 2.0) * laplacian_reference(values, grid) + sigma(values) * dW


SIGMAS = {
    "constant": SigmaFunction.constant(1.3),
    "affine": SigmaFunction.affine(1.0, 0.5),
    "tabulated": SigmaFunction.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 0.2]),
}


class TestSigmaFunction:
    def test_out_buffer_matches_formula(self):
        u = np.random.default_rng(1).normal(size=(2, 5))
        expected = {
            "constant": np.full(u.shape, 1.3),
            "affine": 1.0 + 0.5 * u,
            "tabulated": SIGMAS["tabulated"]._eval_tab(u),
        }
        for kind, sigma in SIGMAS.items():
            out = np.empty_like(u)
            assert sigma(u, out=out) is out
            assert np.array_equal(out, expected[kind]) and np.array_equal(sigma(u), out)
        assert np.array_equal(SigmaFunction.linear(3.0)(u, out=np.empty_like(u)), 3.0 * u)

    def test_constants(self):
        s = SigmaFunction.affine(2.0, -0.5)
        assert (s.sigma0, s.lip, s.sigma1) == (2.0, 0.5, 1.5)
        assert SigmaFunction.linear(3.0).lip == 3.0
        assert SigmaFunction.constant(2.0).lip == 0.0

    def test_sigma1_nonzero_enforced(self):
        with pytest.raises(ConfigError):
            SigmaFunction.constant(0.0)
        with pytest.raises(ConfigError):
            SigmaFunction.affine(1.0, -1.0)

    def test_tabulated_lipschitz(self):
        s = SigmaFunction.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 0.0])
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=200, scale=4), rng.normal(size=200, scale=4)
        lhs = np.abs(s(u) - s(v))
        assert np.all(lhs <= s.lip * np.abs(u - v) + 1e-12)
        assert s(np.array(0.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("d, kind", [(1, "dirac"), (2, "gaussian")])
    @pytest.mark.parametrize("c", [1.3, -0.7])
    def test_kinds_of_one_affine_family_solve_alike(self, d, kind, c):
        # constant(c) is affine(c, 0) and linear(c) is affine(0, c), bit for bit
        grid = Grid.for_length(4.0, 0.25, d)
        f = CovarianceMeasure(kind, d, 1.0, None if kind == "dirac" else 0.8)
        pairs = [(SigmaFunction.constant(c), SigmaFunction.affine(c, 0.0)),
                 (SigmaFunction.linear(c), SigmaFunction.affine(0.0, c))]
        for left, right in pairs:
            fields = [solve_batch(grid, s, f, 8 * grid.dt, 3, range(3))[0] for s in (left, right)]
            assert fields[0].tobytes() == fields[1].tobytes()


class TestEuler:
    def test_flat_state_exact_for_zero_sigma(self):
        g = grid_1d()
        u, _ = solve_batch(g, ZeroSigma(), WHITE, 1.0, seed=5, replicas=[0, 1])
        assert np.all(u == 1.0)

    def test_additive_single_step(self):
        g = grid_1d()
        from sheclt.noise import RngStream, sample_noise_batch, spectral_weights

        w = spectral_weights(g, WHITE)
        dW = sample_noise_batch(g, w, g.dt, [RngStream(seed=2)], 0)[0]
        out = step_euler(np.ones(g.shape), g, SigmaFunction.constant(1.0), dW)
        assert np.array_equal(out, 1.0 + dW)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_laplacian_matches_roll_reference(self, d, n):
        g = Grid(d=d, length=0.5 * n, n=n, dt=0.25 / (2 * d))
        v = np.random.default_rng(d * n).normal(size=(3,) + g.shape)
        ref = laplacian_reference(v, g)
        assert np.array_equal(discrete_laplacian(v, g), ref)
        out, work = np.empty_like(v), np.empty_like(v)
        assert discrete_laplacian(v, g, out=out, work=work) is out
        assert np.array_equal(out, ref)
        assert np.array_equal(discrete_laplacian(v[0], g), laplacian_reference(v[0], g))

    @pytest.mark.parametrize("arg", ["out", "work"])
    def test_laplacian_needs_contiguous_buffers(self, arg):
        g = Grid(d=2, length=4.0, n=8, dt=0.25 / 4)
        v = np.ones((3,) + g.shape)
        strided = np.empty((3, 8, 16))[..., ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            discrete_laplacian(v, g, **{arg: strided})

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("kind", sorted(SIGMAS))
    def test_step_matches_roll_reference(self, d, n, kind):
        g = Grid(d=d, length=0.5 * n, n=n, dt=0.25 / (2 * d))
        rng = np.random.default_rng(d * n)
        v = 1.0 + rng.normal(size=(3,) + g.shape)
        dW = rng.normal(size=v.shape)
        sigma = SIGMAS[kind]
        ref = step_reference(v, g, sigma, dW)
        assert np.array_equal(step_euler(v, g, sigma, dW), ref)
        out, lap = np.empty_like(v), np.empty_like(v)
        assert step_euler(v, g, sigma, dW, out=out, lap=lap) is out
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("kind", ["constant", "affine"])
    def test_flat_path_matches_reference_loop(self, kind):
        g = grid_1d(dx=0.25, L=4.0)
        sigma = SIGMAS[kind]
        seed, domain, replicas, t_final = 12, 3, [0, 5, 6], 1.0
        scale = math.sqrt(g.dt * g.n * spectral_weights(g, WHITE).flat_value)
        u = np.ones((len(replicas),) + g.shape)
        ref_snap = None
        for step in range(round(t_final / g.dt)):
            dW = np.stack([
                scale * keyed_generator(RngStream(seed, domain, r), step).standard_normal(g.shape)
                for r in replicas
            ])
            u = step_reference(u, g, sigma, dW)
            if (step + 1) * g.dt == 0.5:
                ref_snap = u.copy()
        fields, snaps = solve_batch(
            g, sigma, WHITE, t_final, seed, replicas, domain=domain, snapshot_times=(0.5,)
        )
        assert np.array_equal(fields, u)
        assert np.array_equal(snaps[0.5], ref_snap)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_guard_trips_on_nonfinite(self, bad):
        g = grid_1d()
        dW = np.zeros((2,) + g.shape)
        dW[1, 5] = bad
        with pytest.raises(SolverBlowup):
            step_euler(np.ones_like(dW), g, SigmaFunction.constant(1.0), dW)

    def test_time_zero_returns_initial_condition(self):
        g = grid_1d()
        u, _ = solve_batch(g, SigmaFunction.constant(1.0), WHITE, 0.0, seed=1, replicas=[0])
        assert np.all(u == 1.0)

    def test_blowup_raises_with_step(self):
        g = grid_1d(dx=0.25, L=4.0)
        sigma = SigmaFunction.linear(1e6)
        with pytest.raises(SolverBlowup) as err:
            solve_batch(g, sigma, WHITE, 1.0, seed=8, replicas=[0])
        assert err.value.step is not None

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ConfigError, match="replicas"):
            solve_batch(grid_1d(), SigmaFunction.constant(1.0), WHITE, 0.25, seed=1, replicas=[])

    def test_batch_matches_single(self):
        g = grid_1d()
        sigma = SigmaFunction.linear(1.0)
        batch, _ = solve_batch(g, sigma, WHITE, 0.25, seed=21, replicas=[3, 7])
        for i, r in enumerate([3, 7]):
            single, _ = solve_batch(g, sigma, WHITE, 0.25, seed=21, replicas=[r])
            assert np.array_equal(batch[i], single[0])

    def test_snapshots(self):
        g = grid_1d()
        sigma = SigmaFunction.constant(1.0)
        final, snaps = solve_batch(
            g, sigma, WHITE, 0.5, seed=4, replicas=[0], snapshot_times=[0.0, 0.25, 0.5]
        )
        assert np.all(snaps[0.0] == 1.0)
        assert np.array_equal(snaps[0.5], final)
        assert not np.array_equal(snaps[0.25], final)

    @pytest.mark.slow
    def test_variance_matches_scheme_exact_and_continuum(self):
        g = grid_1d(dx=1.0 / 8.0, L=16.0)
        sigma = SigmaFunction.constant(1.0)
        R = 600
        u, _ = solve_batch(g, sigma, WHITE, 1.0, seed=31, replicas=range(R))
        per_replica = np.var(u, axis=1) + (np.mean(u, axis=1) - 1.0) ** 2
        est = float(np.mean(per_replica))
        se = float(np.std(per_replica)) / math.sqrt(R)
        exact = exact_discrete_variance_white(g, round(1.0 / g.dt), 1.0)
        assert abs(est - exact) < 4 * se
        # continuum target 1/sqrt(pi), reached as dx -> 0; at dx=1/8 the
        # scheme sits within a few percent
        assert abs(est - 1.0 / math.sqrt(math.pi)) < 0.1 * 1.0 / math.sqrt(math.pi)

    def test_variance_matches_scheme_exact_on_odd_grid(self):
        # 75 = 3 * 5^2 cells: no Nyquist mode, mixed-radix noise draws
        g = grid_1d(dx=1.0 / 8.0, L=75.0 / 8.0)
        R = 600
        u, _ = solve_batch(g, SigmaFunction.constant(1.0), WHITE, 1.0, seed=33, replicas=range(R))
        per_replica = np.var(u, axis=1) + (np.mean(u, axis=1) - 1.0) ** 2
        se = float(np.std(per_replica)) / math.sqrt(R)
        exact = exact_discrete_variance_white(g, round(1.0 / g.dt), 1.0)
        assert abs(float(np.mean(per_replica)) - exact) < 4 * se

    @pytest.mark.slow
    def test_mean_one_and_stationarity(self):
        g = grid_1d(dx=1.0 / 8.0, L=16.0)
        sigma = SigmaFunction.linear(1.0)
        R = 800
        u, _ = solve_batch(g, sigma, WHITE, 0.5, seed=32, replicas=range(R))
        mean_per_rep = np.mean(u, axis=1)
        se = float(np.std(mean_per_rep)) / math.sqrt(R)
        assert abs(float(np.mean(mean_per_rep)) - 1.0) < 4 * se

    @pytest.mark.slow
    def test_variance_stationary_across_anchors(self):
        # pooled into cell blocks (one block spans two correlation lengths)
        # with per-replica block estimates supplying honest standard errors
        g = grid_1d(dx=1.0 / 8.0, L=16.0)
        R = 800
        u, _ = solve_batch(g, SigmaFunction.constant(1.0), WHITE, 0.5, seed=32, replicas=range(R))
        sq = (u - 1.0) ** 2
        blocks = sq.reshape(R, 8, g.n // 8).mean(axis=2)
        m = blocks.mean(axis=0)
        se_b = blocks.std(axis=0) / math.sqrt(R)
        dev = np.abs(m - m.mean())
        assert np.all(dev < 4.0 * se_b)


def noise_reference(grid, weights, seed, domain, replicas, step):
    """Keyed draws for each replica alone, filtered one replica at a time.

    Flat and real-FFT weights are applied here independently of the program;
    a per-axis circulant filter is drawn through sample_noise_batch one
    replica at a time, so the check is its invariance to blocking (its
    accuracy is checked against the complex FFT in test_noise).
    """
    if weights.circ is not None:
        return np.stack([
            sample_noise_batch(grid, weights, grid.dt, [RngStream(seed, domain, r)], step)[0]
            for r in replicas
        ])
    xi = [keyed_generator(RngStream(seed, domain, r), step).standard_normal(grid.shape)
          for r in replicas]
    if weights.flat:
        return np.stack([math.sqrt(grid.dt * grid.n**grid.d * weights.flat_value) * x for x in xi])
    half = weights.weights[..., : grid.n // 2 + 1]
    scale = np.sqrt(grid.dt * grid.n**grid.d * half)
    axes = tuple(range(grid.d))
    return np.stack([np.fft.irfftn(np.fft.rfftn(x) * scale, s=grid.shape, axes=axes) for x in xi])


def small_grid(d):
    dx = 0.5 if d > 1 else 0.25
    return Grid(d=d, length=4.0, n=int(4.0 / dx), dt=dx * dx / (2.0 * d))


BLOCK = 3


class TestBlockedStepping:
    """solve_batch in forced small blocks against the per-step reference loop."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        def use(grid):
            monkeypatch.setattr(solver_module, "_BLOCK_BYTES", 8 * grid.n**grid.d * BLOCK)
        return use

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("noise", ["flat", "filtered"])
    @pytest.mark.parametrize("kind", sorted(SIGMAS))
    def test_blocks_match_reference_loop(self, small_blocks, d, noise, kind):
        self.check_blocks(small_blocks, small_grid(d), noise, kind)

    @pytest.mark.parametrize("n, d", [(45, 1), (15, 2), (15, 3)])
    @pytest.mark.parametrize("noise", ["flat", "filtered"])
    def test_blocks_match_reference_loop_on_odd_grid(self, small_blocks, n, d, noise):
        dx = 0.25
        g = Grid(d=d, length=n * dx, n=n, dt=dx * dx / (2.0 * d))
        self.check_blocks(small_blocks, g, noise, "affine")

    @staticmethod
    def check_blocks(small_blocks, g, noise, kind):
        d = g.d
        small_blocks(g)
        if noise == "flat":
            # dirac noise violates Dalang's condition for d > 1; flat weights
            # still exercise the unfiltered path there
            w = SpectralWeights(weights=np.full(g.shape, 0.7), flat=True, clipped_mass=0.0)
        else:
            w = spectral_weights(g, CovarianceMeasure("gaussian", d, 1.0, 0.8))
        sigma, seed, domain, n_steps = SIGMAS[kind], 17, 4, 4
        for count in (1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1):
            replicas = [3 * i + 1 for i in range(count)]
            u = np.ones((count,) + g.shape)
            ref_snap = None
            for step in range(n_steps):
                u = step_reference(u, g, sigma, noise_reference(g, w, seed, domain, replicas, step))
                if step + 1 == 2:
                    ref_snap = u.copy()
            fields, snaps = solve_batch(
                g, sigma, None, n_steps * g.dt, seed, replicas, domain=domain,
                snapshot_times=(2 * g.dt,), weights=w,
            )
            assert np.array_equal(fields, u), count
            assert np.array_equal(snaps[2 * g.dt], ref_snap), count

    def test_blowup_in_later_block_reports_first_step(self, small_blocks, monkeypatch):
        g = grid_1d(dx=0.25, L=4.0)
        sigma, t_final, seed = SigmaFunction.linear(8.0), 40 * g.dt, 8

        def blowup(replicas):
            with pytest.raises(SolverBlowup) as err:
                solve_batch(g, sigma, WHITE, t_final, seed, replicas)
            return err.value.step, str(err.value)

        first = {r: blowup([r])[0] for r in range(3 * BLOCK)}
        # the replica that blows up first goes last, into the third block
        replicas = sorted(first, key=first.get, reverse=True)
        assert first[replicas[-1]] < min(first[r] for r in replicas[:-1])
        monkeypatch.setattr(solver_module, "_BLOCK_BYTES", 1 << 40)
        unblocked = blowup(replicas)
        small_blocks(g)
        assert blowup(replicas) == unblocked
        assert unblocked[0] == first[replicas[-1]]


class TestPicard:
    def test_zero_sigma_flat_after_one_iteration(self):
        g = grid_1d(dx=0.25, L=4.0)
        field = picard_solve(g, ZeroSigma(), WHITE, 0.25, seed=6, replica=0, n_iter=1)
        assert np.all(field == 1.0)

    def test_constant_sigma_fixed_after_first(self):
        g = grid_1d(dx=0.25, L=4.0)
        sigma = SigmaFunction.constant(1.0)
        f1 = picard_solve(g, sigma, WHITE, 0.25, seed=6, replica=0, n_iter=1)
        f2 = picard_solve(g, sigma, WHITE, 0.25, seed=6, replica=0, n_iter=2)
        assert np.array_equal(f1, f2)

    @pytest.mark.slow
    def test_agreement_with_euler_linear_sigma(self):
        # same mild equation, same noise: relative L2 below 5% at dx=1/16,
        # on 128 cells and on 60 = 2^2 * 3 * 5 cells
        sigma = SigmaFunction.linear(1.0)
        for L in (8.0, 3.75):
            g = grid_1d(dx=1.0 / 16.0, L=L)
            eu, _ = solve_batch(g, sigma, WHITE, 0.25, seed=3, replicas=[0])
            pi = picard_solve(g, sigma, WHITE, 0.25, seed=3, replica=0, n_iter=8)
            rel = np.linalg.norm(pi - eu[0]) / np.linalg.norm(eu[0])
            assert rel < 0.05, g.n

    @pytest.mark.slow
    def test_refinement_shrinks_disagreement(self):
        # smooth noise: at least halves per level; white noise: decreases
        # (top-octave handling differs between the propagators, giving an
        # O(sqrt(dx)) floor for spatially white increments)
        sigma = SigmaFunction.linear(1.0)
        for f, factor in [
            (CovarianceMeasure("gaussian", 1, 1.0, 0.5), 0.65),
            (WHITE, 1.0),
        ]:
            rels = []
            for dx in (1.0 / 16.0, 1.0 / 32.0):
                g = grid_1d(dx=dx, L=8.0)
                eu, _ = solve_batch(g, sigma, f, 0.25, seed=3, replicas=[0])
                pi = picard_solve(g, sigma, f, 0.25, seed=3, replica=0, n_iter=8)
                rels.append(np.linalg.norm(pi - eu[0]) / np.linalg.norm(eu[0]))
            assert rels[1] < factor * rels[0]


class TestMarginalStats:
    @pytest.mark.slow
    def test_identity_mean_and_lag_covariance(self):
        # moments pooled over replicas and cells, by spatial stationarity
        g = grid_1d(dx=1.0 / 8.0, L=16.0)
        R = 1500
        u, _ = solve_batch(g, SigmaFunction.constant(1.0), WHITE, 1.0, seed=10, replicas=range(R))
        mean = float(np.mean(u))
        assert abs(mean - 1.0) < 0.03
        centered = u - mean
        for x in (0.5, 1.0):
            target = time_integrated_cov(WHITE, 1.0, [x])
            lag = int(round(x / g.dx))
            got = float(np.mean(centered * np.roll(centered, -lag, axis=1)))
            assert abs(got - target) < 0.1 * target + 0.01


class TestTwoDimensional:
    def test_d2_solve_and_occupation_path(self):
        # structural smoke for d=2: synthesis, stepping, box integration
        from sheclt.occupation import (
            LipFunction,
            PreparedTestFunction,
            TestFunction,
            occupation_values,
        )

        f2 = CovarianceMeasure("gaussian", 2, 1.0, 0.6)
        g = Grid(d=2, length=8.0, n=32, dt=0.25**2 / 4.0)
        sigma = SigmaFunction.constant(1.0)
        fields, _ = solve_batch(g, sigma, f2, 0.125, seed=3, replicas=[0, 1])
        assert fields.shape == (2, 32, 32)
        assert np.all(np.isfinite(fields))
        psi = TestFunction.box((0.0, 0.0), (1.0, 1.5))
        prep = PreparedTestFunction(g, psi.scaled(2.0), halo=1.0)
        vals = occupation_values(prep, LipFunction.identity()(fields), 1.0, 2.0)
        assert vals.shape == (2,) and np.all(np.isfinite(vals))

    def test_d2_flat_weights_variance_target(self):
        # one-step noise variance for a 2-d product covariance
        from sheclt.noise import RngStream, periodized_covariance, sample_noise_batch, spectral_weights

        f2 = CovarianceMeasure("exponential", 2, 1.0, 1.0)
        g = Grid(d=2, length=8.0, n=32, dt=0.25**2 / 4.0)
        w = spectral_weights(g, f2)
        assert w.weights.shape == (32, 32)
        streams = [RngStream(seed=5, replica=r) for r in range(300)]
        batch = sample_noise_batch(g, w, g.dt, streams, step=0)
        target = g.dt * float(periodized_covariance(g, f2)[0, 0])
        est = float(np.var(batch))
        se = target * math.sqrt(2.0 / batch.size) * 3  # cells correlated: inflate
        assert abs(est - target) < 6 * se

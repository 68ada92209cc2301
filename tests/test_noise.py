"""Noise synthesis: weight construction, covariance targets, reproducibility."""

import math

import numpy as np
import pytest

from oracles import fourier_axis, keyed_generator
from sheclt.cli import _lag_covariances
from sheclt.errors import ConfigError
from sheclt.noise import (
    Grid,
    RngStream,
    periodized_covariance,
    sample_noise_batch,
    spectral_weights,
    stable_dt,
)
from sheclt.spectral import CovarianceMeasure

DENSITY_KINDS = [
    CovarianceMeasure("gaussian", 1, 1.0, 0.8),
    CovarianceMeasure("uniform", 1, 1.5, 1.2),
    CovarianceMeasure("exponential", 1, 1.0, 1.3),
]


def small_grid(n=64, L=16.0, d=1):
    dx = L / n
    return Grid(d=d, length=L, n=n, dt=dx * dx / (2 * d))


def five_smooth(n):
    """Trial division: n has no prime factor above 5."""
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


class TestGrid:
    def test_five_smooth_enforced(self):
        for n in (14, 49):
            with pytest.raises(ConfigError, match="2, 3 and 5"):
                Grid(d=1, length=10.0, n=n, dt=1e-4)
        for n in (45, 48):
            assert Grid(d=1, length=10.0, n=n, dt=1e-4).n == n

    def test_stability_enforced(self):
        with pytest.raises(ConfigError):
            Grid(d=1, length=16.0, n=64, dt=1.0)

    def test_for_support_halo_rule(self):
        g = Grid.for_support(span=64.0, t=1.0, dx=1.0 / 16.0, d=1)
        needed = 64.0 + 8.0
        assert g.length > needed
        assert g.n == 1200
        assert five_smooth(g.n)
        smaller = max(k for k in range(2, g.n) if five_smooth(k))
        assert smaller * g.dx <= needed
        assert g.dt == pytest.approx(g.dx**2 / 2.0)

    @pytest.mark.parametrize("dx", [0.25, 0.125, 0.0625, 0.5, 1.0, 0.07, 1.0 / 16.0, 1.0 / 3.0])
    def test_stable_dt(self, dx):
        # bit for bit the dx**2 / (2 d) the commands used to write, at the --dx
        # values of the command tests and defaults; a grid at the limit is accepted
        for d in (1, 2, 3):
            assert stable_dt(dx, d) == dx**2 / (2 * d) == dx * dx / (2.0 * d)
            assert Grid(d=d, length=60 * dx, n=60, dt=stable_dt(dx, d)).dt == stable_dt(dx, d)

    @pytest.mark.parametrize("span, t, dx, d", [
        (0.0, 0.0, 1.0, 1), (1.0, 0.25, 0.25, 1), (4.0, 0.25, 0.25, 1), (16.0, 0.5, 0.5, 2),
        (3.3, 0.1, 0.07, 3), (1024.0, 1.0, 1.0 / 16.0, 1), (2.0e4, 1.0, 1.0, 1),
    ])
    def test_for_support_is_smallest_five_smooth(self, span, t, dx, d):
        # reference: scan every cell count upward from 2
        needed = span + 8.0 * math.sqrt(t)
        n = 2
        while n * dx <= needed or not five_smooth(n):
            n += 1
        g = Grid.for_support(span=span, t=t, dx=dx, d=d)
        assert (g.n, g.length) == (n, n * dx)


class TestSpectralWeights:
    def test_dirac_flat_spectrum(self):
        g = small_grid()
        f = CovarianceMeasure("dirac", 1, 2.0)
        w = spectral_weights(g, f)
        assert w.flat
        assert np.allclose(w.weights, 2.0 / g.length)

    def test_mode_zero_is_mass_over_volume(self):
        g = small_grid()
        # gaussian aliases vanish to machine precision: exact identity
        f = CovarianceMeasure("gaussian", 1, 1.0, 0.8)
        w = spectral_weights(g, f)
        assert w.weights[0] == pytest.approx(f.mass / g.length, rel=1e-12)
        # heavy-tailed spectra fold a small positive alias mass onto mode 0
        for f in DENSITY_KINDS:
            w = spectral_weights(g, f)
            assert f.mass / g.length <= w.weights[0] < 1.02 * f.mass / g.length

    def test_weights_nonnegative_no_clipping(self):
        g = small_grid()
        for f in DENSITY_KINDS:
            w = spectral_weights(g, f)
            assert np.all(w.weights >= 0.0)
            assert w.clipped_mass <= 1e-12 * np.sum(w.weights)

    def test_inverse_fft_reproduces_periodization(self):
        # independent oracle: direct sum of translates of the density
        g = small_grid()
        x = g.axis_coordinates()
        for f in DENSITY_KINDS:
            w = spectral_weights(g, f)
            synth = np.fft.ifft(w.weights * g.n).real
            direct = np.zeros_like(x)
            for k in range(-40, 41):
                direct += f.density_axis(x + k * g.length)
            direct *= f.mass
            assert np.max(np.abs(synth - direct)) < 1e-10 * max(1.0, direct[0])

    def test_weights_match_alias_folded_spectrum(self):
        # brute-force alias sum of f_hat(2 pi (m + q n)/L) / L on a small grid
        g = small_grid(n=32, L=8.0)
        for f, q_max, tol in [
            (CovarianceMeasure("gaussian", 1, 1.0, 0.8), 4, 1e-12),
            (CovarianceMeasure("exponential", 1, 1.0, 1.3), 400000, 3e-8),
            (CovarianceMeasure("uniform", 1, 1.5, 1.2), 400000, 1e-6),
        ]:
            w = spectral_weights(g, f).weights
            m = np.arange(g.n, dtype=float)
            m[m > g.n // 2] -= g.n
            q = np.arange(-q_max, q_max + 1, dtype=float)
            z = 2.0 * math.pi * (m[:, None] + q[None, :] * g.n) / g.length
            folded = f.mass * np.sum(fourier_axis(f, z), axis=1) / g.length
            assert np.max(np.abs(w - folded)) < tol * folded[0]


class TestSampling:
    def test_zero_dt_gives_zero_slice(self):
        g = small_grid()
        f = CovarianceMeasure("gaussian", 1, 1.0, 0.8)
        w = spectral_weights(g, f)
        (s,) = sample_noise_batch(g, w, 0.0, [RngStream(seed=1)], 0)
        assert np.all(s == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reproducibility_across_batching(self, d):
        g = small_grid(n=16, L=4.0, d=d) if d > 1 else small_grid()
        f = CovarianceMeasure("gaussian", d, 1.0, 0.8)
        w = spectral_weights(g, f)
        streams = [RngStream(seed=9, replica=r) for r in range(5)]
        batch = sample_noise_batch(g, w, g.dt, streams, step=3)
        for r, stream in enumerate(streams):
            (single,) = sample_noise_batch(g, w, g.dt, [stream], 3)
            assert np.array_equal(batch[r], single)

    @pytest.mark.parametrize("n, d, products", [
        (45, 1, False), (180, 2, True), (192, 2, False), (32, 3, True),
    ])
    def test_filter_route_follows_grid(self, n, d, products):
        # circulant products where they beat the FFT: d >= 2 and small n
        g = small_grid(n=n, L=0.25 * n, d=d)
        w = spectral_weights(g, CovarianceMeasure("gaussian", d, 1.0, 0.8))
        assert (w.circ is not None) == products

    def test_out_must_be_c_contiguous(self):
        g = small_grid(n=16, L=4.0, d=2)
        w = spectral_weights(g, CovarianceMeasure("gaussian", 2, 1.0, 0.8))
        out = np.empty((1, 16, 32))[..., ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            sample_noise_batch(g, w, g.dt, [RngStream(seed=1)], 0, out=out)

    @pytest.mark.parametrize("d", [2, 3])
    def test_work_scratch_keeps_bits(self, d):
        # an odd d starts the circulant passes in the scratch, an even d ends there
        g = small_grid(n=16, L=4.0, d=d)
        w = spectral_weights(g, CovarianceMeasure("gaussian", d, 1.0, 0.8))
        streams = [RngStream(seed=2, replica=r) for r in range(3)]
        fresh = sample_noise_batch(g, w, g.dt, streams, 1)
        out, work = np.empty((2, 3) + g.shape)
        batch = sample_noise_batch(g, w, g.dt, streams, 1, out=out, work=work)
        assert batch is out and np.array_equal(batch, fresh)

    def test_work_must_match_out(self):
        g = small_grid(n=16, L=4.0, d=2)
        w = spectral_weights(g, CovarianceMeasure("gaussian", 2, 1.0, 0.8))
        for work in (np.empty((2, 16, 16)), np.empty((1, 16, 32))[..., ::2]):
            with pytest.raises(ValueError, match="work"):
                sample_noise_batch(g, w, g.dt, [RngStream(seed=1)], 0, work=work)

    def test_distinct_keys_differ(self):
        g = small_grid()
        f = CovarianceMeasure("dirac", 1, 1.0)
        w = spectral_weights(g, f)
        (a,) = sample_noise_batch(g, w, g.dt, [RngStream(seed=1, replica=0)], 0)
        (b,) = sample_noise_batch(g, w, g.dt, [RngStream(seed=1, replica=1)], 0)
        (c,) = sample_noise_batch(g, w, g.dt, [RngStream(seed=1, replica=0)], 1)
        (d,) = sample_noise_batch(g, w, g.dt, [RngStream(seed=2, replica=0)], 0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_hermitian_symmetry_real_output(self):
        g = small_grid()
        f = CovarianceMeasure("gaussian", 1, 1.0, 0.8)
        w = spectral_weights(g, f)
        xi = keyed_generator(RngStream(seed=4), 0).standard_normal(g.shape)
        scale = np.sqrt(g.dt * g.n * w.weights)
        full = np.fft.ifft(scale * np.fft.fft(xi))
        assert np.max(np.abs(full.imag)) < 1e-12 * max(np.max(np.abs(full.real)), 1e-30)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind, param", [("gaussian", 0.8), ("exponential", 1.3), ("uniform", 1.2)])
    def test_real_fft_filter_matches_complex_filter(self, kind, param, d):
        # reference: the full complex filter, real part of the inverse
        g = small_grid(n=16, L=4.0, d=d)
        w = spectral_weights(g, CovarianceMeasure(kind, d, 1.0, param))
        streams = [RngStream(seed=11, replica=r) for r in range(3)]
        batch = sample_noise_batch(g, w, g.dt, streams, step=2)
        xi = np.stack([keyed_generator(s, 2).standard_normal(g.shape) for s in streams])
        scale = np.sqrt(g.dt * g.n**g.d * w.weights)
        axes = tuple(range(1, d + 1))
        ref = np.fft.ifftn(scale * np.fft.fftn(xi, axes=axes), axes=axes).real
        assert np.max(np.abs(batch - ref)) <= 1e-14

    @pytest.mark.parametrize("n, d", [(45, 1), (15, 2), (45, 2), (192, 2), (15, 3), (32, 3)])
    @pytest.mark.parametrize("kind, param", [("gaussian", 0.8), ("exponential", 1.3), ("uniform", 1.2)])
    def test_real_fft_filter_on_mixed_radix_grid(self, kind, param, n, d):
        # odd n has no Nyquist mode: the half spectrum keeps n // 2 + 1 modes;
        # 45^2 is the grid of the 2-d benchmark workload, 192^2 the smallest
        # 2-d grid filtered by rfftn/irfftn rather than circulant products
        g = small_grid(n=n, L=0.25 * n, d=d)
        w = spectral_weights(g, CovarianceMeasure(kind, d, 1.0, param))
        streams = [RngStream(seed=21, replica=r) for r in range(3)]
        batch = sample_noise_batch(g, w, g.dt, streams, step=4)
        xi = np.stack([keyed_generator(s, 4).standard_normal(g.shape) for s in streams])
        scale = np.sqrt(g.dt * g.n**g.d * w.weights)
        axes = tuple(range(1, d + 1))
        ref = np.fft.ifftn(scale * np.fft.fftn(xi, axes=axes), axes=axes).real
        assert np.max(np.abs(batch - ref)) <= 1e-14

    @pytest.mark.parametrize("f", DENSITY_KINDS + [CovarianceMeasure("dirac", 1, 1.0)],
                             ids=lambda f: f.kind)
    def test_lag_covariance_on_odd_grid(self, f):
        g = small_grid(n=45, L=11.25)
        w = spectral_weights(g, f)
        R = 3000
        batch = sample_noise_batch(g, w, g.dt, [RngStream(seed=14, replica=r) for r in range(R)], 1)
        lags = range(5)
        targets = g.dt * periodized_covariance(g, f)[:5]
        for lag, target in zip(lags, targets):
            per_rep = np.mean(batch * np.roll(batch, -lag, axis=1), axis=1)
            se = float(np.std(per_rep)) / math.sqrt(R)
            assert abs(float(np.mean(per_rep)) - target) < 4.0 * se + 1e-15, lag

    def test_lag_covariance_on_15x15_grid(self):
        g = small_grid(n=15, L=7.5, d=2)
        f = CovarianceMeasure("gaussian", 2, 1.0, 0.6)
        w = spectral_weights(g, f)
        R = 3000
        batch = sample_noise_batch(g, w, g.dt, [RngStream(seed=15, replica=r) for r in range(R)], 1)
        full = g.dt * periodized_covariance(g, f)
        for lag in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (7, 8)]:
            per_rep = np.mean(batch * np.roll(batch, (-lag[0], -lag[1]), axis=(1, 2)), axis=(1, 2))
            se = float(np.std(per_rep)) / math.sqrt(R)
            assert abs(float(np.mean(per_rep)) - full[lag]) < 4.0 * se, lag

    def test_flat_path_is_scaled_draw(self):
        g = small_grid()
        w = spectral_weights(g, CovarianceMeasure("dirac", 1, 1.0))
        stream = RngStream(seed=3, replica=2)
        out = np.empty((1,) + g.shape)
        batch = sample_noise_batch(g, w, g.dt, [stream], step=5, out=out)
        scale = math.sqrt(g.dt * g.n * w.flat_value)
        ref = scale * keyed_generator(stream, 5).standard_normal(g.shape)
        assert batch is out and np.array_equal(batch[0], ref)

    @pytest.mark.slow
    def test_dirac_cell_variance(self):
        # white-noise cell variance dt * mass / dx over many draws
        g = small_grid(n=64, L=4.0)
        f = CovarianceMeasure("dirac", 1, 1.0)
        w = spectral_weights(g, f)
        streams = [RngStream(seed=11, replica=r) for r in range(1500)]
        batch = sample_noise_batch(g, w, g.dt, streams, step=0)
        target = g.dt * f.mass / g.dx
        est = float(np.var(batch))
        n_samp = batch.size
        se = target * math.sqrt(2.0 / n_samp)
        assert abs(est - target) < 3.0 * se

    @pytest.mark.slow
    def test_gaussian_lag_covariance(self):
        # empirical covariance at one-cell lag vs dt * F_grid(dx)
        g = small_grid(n=64, L=16.0)
        f = CovarianceMeasure("gaussian", 1, 1.0, 0.8)
        w = spectral_weights(g, f)
        streams = [RngStream(seed=12, replica=r) for r in range(4000)]
        batch = sample_noise_batch(g, w, g.dt, streams, step=0)
        target = g.dt * float(periodized_covariance(g, f)[1])
        prods = batch * np.roll(batch, -1, axis=1)
        est = float(np.mean(prods))
        se = float(np.std(np.mean(prods, axis=1))) / math.sqrt(len(streams))
        assert abs(est - target) < 3.0 * se + 1e-12

    @pytest.mark.slow
    def test_stationarity_across_anchors(self):
        g = small_grid(n=32, L=8.0)
        f = CovarianceMeasure("exponential", 1, 1.0, 1.3)
        w = spectral_weights(g, f)
        streams = [RngStream(seed=13, replica=r) for r in range(6000)]
        batch = sample_noise_batch(g, w, g.dt, streams, step=0)
        # per-anchor lag-1 covariance should not depend on the anchor
        prods = batch * np.roll(batch, -1, axis=1)
        per_anchor = prods.mean(axis=0)
        se = prods.std(axis=0) / math.sqrt(len(streams))
        dev = np.abs(per_anchor - per_anchor.mean())
        assert np.all(dev < 4.0 * se)


class TestEmpiricalCovariance:
    def test_degenerate_input_flagged(self):
        g = small_grid()
        values = keyed_generator(RngStream(seed=5), 0).standard_normal(g.shape)
        spatial, cross, degenerate = _lag_covariances(np.stack([values] * 4), 3)
        assert degenerate
        assert cross[0] == pytest.approx(spatial[0], rel=1e-10)

    @pytest.mark.slow
    def test_white_in_time_and_space(self):
        g = small_grid(n=256, L=16.0)
        f = CovarianceMeasure("dirac", 1, 1.0)
        w = spectral_weights(g, f)
        stream = [RngStream(seed=6)]
        fields = np.stack([sample_noise_batch(g, w, g.dt, stream, k)[0] for k in range(400)])
        spatial, cross, degenerate = _lag_covariances(fields, 3)
        assert not degenerate
        var_target = g.dt * f.mass / g.dx
        n_eff = 400 * g.n
        se = var_target * math.sqrt(2.0 / n_eff)
        assert abs(spatial[0] - var_target) < 4 * se
        # off-cell spatial correlation and across-time correlation are zero
        se_cov = var_target / math.sqrt(n_eff)
        assert np.all(np.abs(spatial[1:]) < 4 * se_cov)
        assert np.all(np.abs(cross) < 4 * se_cov)


class TestRegression:
    def test_slice_bytes_frozen(self, tmp_path):
        # golden bytes: any platform or version drift in the keyed stream or
        # the synthesis filter shows up here first
        import hashlib

        from sheclt.io import load_array, save_array

        g = small_grid(n=64, L=8.0)
        expected = {"dirac": "9324a342e09b297e", "gaussian": "541fb02401d1506c"}
        for kind, param in (("dirac", 1.0), ("gaussian", 0.8)):
            f = CovarianceMeasure(kind, 1, 1.0, param)
            w = spectral_weights(g, f)
            (s,) = sample_noise_batch(g, w, g.dt, [RngStream(seed=2026, replica=3)], 17)
            path = tmp_path / f"{kind}.bin"
            save_array(path, s, meta={"kind": kind, "step": 17})
            back, meta = load_array(path)
            assert np.array_equal(back, s) and meta["step"] == 17
            digest = hashlib.sha256(
                np.ascontiguousarray(s, dtype="<f8").tobytes()
            ).hexdigest()[:16]
            assert digest == expected[kind]

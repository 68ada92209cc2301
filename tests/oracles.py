"""Reference implementations that the tests compare the program against.

None of these runs in a command: each is an independent route to a quantity
the program computes another way (a freshly keyed Philox generator against
the noise layer's rekeyed one, the Picard scheme against the Euler path,
quadratures of the heat-smoothed covariance against its closed forms, the
spectral density against the physical-space weights, the one-batch B_t
estimator against the streamed one).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from sheclt.noise import RngStream, sample_noise_batch, spectral_weights
from sheclt.solver import _steps_for
from sheclt.spectral import (
    _PHI_ZERO,
    _SERIES_RHO,
    _SERIES_TERMS,
    _exp_gauss_halfline,
    _norm_pdf,
    _normal_ramp,
)


def keyed_generator(stream: RngStream, step: int) -> np.random.Generator:
    """A fresh Philox generator on ``stream``'s key at ``step``, which the
    noise layer's rekeyed generator must match bit for bit."""
    # uint64 explicitly: a list of Python ints above 2**63 becomes float64
    key = np.asarray(stream.philox_key(step), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def one_batch_Bt(fields, grid, g, G, cutoff: float) -> tuple[float, float, float]:
    """(value, se, boundary_cov) of ``estimate_Bt`` with the whole batch
    transformed at once, which the streamed estimator must match bit for bit."""
    n = fields.shape[0]
    c = max(int(round(cutoff / grid.dx)), 1)
    ax_sel = np.zeros(grid.n, dtype=bool)
    ax_sel[: c + 1] = True
    ax_sel[grid.n - c :] = True
    window = ax_sel
    for _ in range(grid.d - 1):
        window = np.multiply.outer(window, ax_sel)
    gu = np.asarray(g(fields))
    GU = gu if G is None or G is g else np.asarray(G(fields))
    axes = tuple(range(1, gu.ndim))
    spec = np.fft.rfftn(gu, axes=axes)
    spec *= np.conj(spec if GU is gu else np.fft.rfftn(GU, axes=axes))
    cross = np.fft.irfftn(spec, s=gu.shape[1:], axes=axes) / gu[0].size
    mean_g, mean_G = gu.mean(axis=axes), GU.mean(axis=axes)
    window_cells = int(np.sum(window))
    per_rep = (cross[:, window].sum(axis=1) - window_cells * mean_g * mean_G) * grid.cell_volume
    cov = cross.sum(axis=0) / n - (float(mean_g.sum()) / n) * (float(mean_G.sum()) / n)
    value = float(np.sum(cov[window])) * grid.cell_volume
    se = float(np.std(per_rep)) / math.sqrt(n)
    boundary = 0.0
    for lag in (c, grid.n - c):
        boundary += abs(float(cov[(lag,) + (0,) * (grid.d - 1)]))
    return value, se, boundary * grid.cell_volume


def _triangle_smoothed_density(b, h, v):
    """The N(0, v) density smoothed by the triangle density (1 - |x|/h)+ / h
    at b >= 0: (F(b - h) - 2 F(b) + F(b + h)) / h^2 for F(c) = E[(G - c)^+].

    Below h / sqrt(v) = 0.1 it is summed as the Taylor series
    phi(z) / sd sum_i 2 rho^{2i} He_{2i}(z) / (2i + 2)! (z = b / sd,
    rho = h / sd), as ``spectral._triangle_smooth`` sums its ramp.
    """
    b = np.asarray(b, dtype=float)
    sd = math.sqrt(v)
    rho = h / sd
    if rho >= _SERIES_RHO:
        lo, mid, hi = (_normal_ramp(c, v) for c in (b - h, b, b + h))
        return (lo - 2.0 * mid + hi) / (h * h)
    z = np.minimum(b / sd, _PHI_ZERO)
    he_prev, he = np.zeros_like(z), np.ones_like(z)  # He_{-1}, He_0
    total = np.zeros_like(z)
    coef = 1.0
    for i in range(_SERIES_TERMS):
        total += coef * he
        n = 2 * i
        he_prev, he = he, z * he - n * he_prev  # He_{2i+1}
        he_prev, he = he, z * he - (n + 1) * he_prev  # He_{2i+2}
        coef *= rho * rho / ((n + 3) * (n + 4))
    return sd ** -1 * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * total


def fourier_axis(f, z):
    """One-axis factor of f_hat(z) = int exp(i x.z) f(dx) at frequency z (unit mass)."""
    z = np.asarray(z, dtype=float)
    if f.kind == "dirac":
        return np.ones_like(z)
    if f.kind == "gaussian":
        return np.exp(-0.5 * (f.param * z) ** 2)
    if f.kind == "uniform":
        # sinc^2: transform of the triangle (1-|x|/h)+ / h
        u = 0.5 * f.param * z
        out = np.ones_like(z)
        nz = u != 0
        out[nz] = (np.sin(u[nz]) / u[nz]) ** 2
        return out
    r = f.param
    return r * r / (r * r + z * z)


def smoothed_axis(f, s, x):
    """One-axis factor of the heat-smoothed covariance (p_s * f)(x), s > 0.

    Unit-mass normalization; the product over axes times ``mass`` gives the
    d-dimensional value.  Closed form for every kind.
    """
    x = np.asarray(x, dtype=float)
    if f.kind == "dirac":
        return _norm_pdf(x, s)
    if f.kind == "gaussian":
        return _norm_pdf(x, s + f.param**2)
    if f.kind == "uniform":
        return _triangle_smoothed_density(np.abs(x), f.param, s)
    r = f.param
    return 0.5 * r * (_exp_gauss_halfline(r, s, x) + _exp_gauss_halfline(r, s, -x))


def smoothed_at(f, s, x=None):
    """(p_s * f)(x); x defaults to the origin."""
    if x is None:
        x = np.zeros(f.dimension)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return f.mass * float(np.prod(smoothed_axis(f, s, x)))


def heat_kernel(t: float, x, d: int | None = None) -> float:
    """Gaussian heat kernel p_t(x) = (2 pi t)^{-d/2} exp(-|x|^2 / 2t), t > 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if d is None:
        d = x.size
    sq = float(np.dot(x.ravel(), x.ravel()))
    return (2.0 * math.pi * t) ** (-d / 2.0) * math.exp(-sq / (2.0 * t))


def time_integrated_cov(f, t: float, x=None) -> float:
    """int_0^t (p_{2s} * f)(x) ds, the constant-sigma spatial covariance profile."""
    if t == 0.0:
        return 0.0
    val, _ = integrate.quad(
        lambda w: 2.0 * w * smoothed_at(f, 2.0 * w * w, x), 0.0, math.sqrt(t),
        epsabs=0.0, epsrel=1e-10, limit=200,
    )
    return val


def _heat_kernel_grid(grid, t: float) -> np.ndarray:
    """Continuum heat kernel periodized on the grid, unit discrete mass."""
    x = grid.axis_coordinates()
    k_max = int(math.ceil(8.0 * math.sqrt(t) / grid.length)) + 1
    axis = np.zeros(grid.n)
    for k in range(-k_max, k_max + 1):
        y = x + k * grid.length
        axis += np.exp(-y * y / (2.0 * t))
    axis /= math.sqrt(2.0 * math.pi * t)
    kern = axis
    for _ in range(grid.d - 1):
        kern = np.multiply.outer(kern, axis)
    return kern / (np.sum(kern) * grid.cell_volume)


def picard_solve(grid, sigma, f, t_final: float, seed: int, replica: int, n_iter: int) -> np.ndarray:
    """The field at t_final by fixed-point iteration of the mild equation on a
    frozen noise path.

    Every iterate convolves sigma(previous iterate) times the noise
    increments with the exact heat kernel (sampled on the grid and
    renormalized to unit discrete mass), using the same (replica, step)
    noise keys as the Euler scheme in domain 0.  The kernel lag follows the
    right endpoint of each step, so the newest increment enters unsmoothed,
    matching the propagation structure of the explicit scheme.  Fails when
    the sup distance between iterates stops decreasing over three iterations.
    """
    weights = spectral_weights(grid, f)
    stream = RngStream(seed=seed, replica=replica)
    n_steps = _steps_for(grid, t_final)

    slices = np.empty((n_steps,) + grid.shape)
    for step in range(n_steps):
        slices[step] = sample_noise_batch(grid, weights, grid.dt, [stream], step)[0]
    kern_hat = np.empty((max(n_steps - 1, 0),) + grid.shape, dtype=complex)
    for lag in range(1, n_steps):
        kern_hat[lag - 1] = np.fft.fftn(_heat_kernel_grid(grid, lag * grid.dt))

    u = np.ones((n_steps + 1,) + grid.shape)
    slices_hat = np.empty((n_steps,) + grid.shape, dtype=complex)
    history = []
    for _ in range(n_iter):
        q_new = np.empty_like(slices)
        for step in range(n_steps):
            q_new[step] = sigma(u[step]) * slices[step]
            slices_hat[step] = np.fft.fftn(q_new[step])
        u_next = np.ones_like(u)
        acc = np.zeros(grid.shape, dtype=complex)
        for k in range(1, n_steps + 1):
            acc[...] = 0.0
            for j in range(k - 1):
                acc += kern_hat[k - 2 - j] * slices_hat[j]
            u_next[k] = 1.0 + q_new[k - 1] + grid.cell_volume * np.fft.ifftn(acc).real
        diff = float(np.max(np.abs(u_next - u)))
        history.append(diff)
        u = u_next
        if diff <= 1e-13 * max(1.0, float(np.max(np.abs(u)))):
            break
        assert not (len(history) >= 3 and history[-1] >= history[-2] >= history[-3]), (
            f"picard iterates stopped contracting: last diffs {history[-3:]}")
    return u[n_steps]

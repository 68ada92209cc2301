"""Reference computations the benchmark checks the program against.

Nothing here imports ``sheclt``: each quantity is derived on its own route
(Fourier algebra of the explicit scheme, closed-form spectral integrals,
plain numpy characteristic functions) so that agreement with the program is
evidence, not an echo.  ``test_reference.py`` checks each one against a
brute-force or quadrature computation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx


def scheme_symbol(n: int, d: int, dx: float, dt: float) -> np.ndarray:
    """Per-mode multiplier G_m = 1 - (2 dt/dx^2) sum_i sin^2(pi m_i / n).

    One explicit Euler step u + (dt/2) Lap u acts diagonally in Fourier space
    with this symbol, on a grid of n cells per axis in d dimensions.
    """
    axis = np.sin(np.pi * np.arange(n) / n) ** 2
    total = np.zeros((n,) * d)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        total = total + axis.reshape(shape)
    return 1.0 - (2.0 * dt / (dx * dx)) * total


def mode_variances(
    n: int, d: int, dx: float, dt: float, steps: int, c: float, noise_spectrum: np.ndarray
) -> np.ndarray:
    """Variance of each Fourier mode of u_steps - 1 for sigma == c.

    ``noise_spectrum`` is the DFT of one noise slice's spatial covariance
    divided by dt (n^d w_m in the program's notation), so the mode variance
    is c^2 dt S_m (1 - G_m^{2 steps}) / (1 - G_m^2), with the geometric sum
    taken as ``steps`` where G_m^2 = 1.
    """
    G = scheme_symbol(n, d, dx, dt)
    g2 = G * G
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = (1.0 - g2**steps) / (1.0 - g2)
    geo = np.where(np.abs(1.0 - g2) < 1e-15, float(steps), geo)
    return c * c * dt * noise_spectrum * geo


def white_noise_spectrum(n: int, d: int, dx: float, mass: float) -> np.ndarray:
    """Noise spectrum of cell-averaged white noise: flat at mass / dx^d."""
    return np.full((n,) * d, mass / dx**d)


def box_cell_weights(n: int, dx: float, lo: float, hi: float, amp: float) -> np.ndarray:
    """Overlap of each cell [j dx, (j+1) dx) of a 1-d torus with [lo, hi], times amp.

    Requires 0 <= lo <= hi <= n dx (no wrap), which holds for the benchmark's
    supports.
    """
    left = np.arange(n) * dx
    overlap = np.clip(np.minimum(left + dx, hi) - np.maximum(left, lo), 0.0, None)
    return amp * overlap


def occupation_variance(weights: np.ndarray, mode_var: np.ndarray, N: float, d: int) -> float:
    """Var of N^{d/2} sum_j w_j (u_j - 1) for a circulant field covariance.

    The field covariance is F^H diag(mode_var) F / n^d, so w^T C w equals
    sum_m |w_hat_m|^2 mode_var_m / n^d.
    """
    w_hat = np.fft.fftn(weights)
    return float(N**d * np.sum(np.abs(w_hat) ** 2 * mode_var) / weights.size)


def exact_white_box_variance(
    n: int, dx: float, dt: float, steps: int, mass: float, c: float, N: float, lo: float, hi: float
) -> float:
    """Exact discrete variance of the d = 1 occupation sample of psi = 1_[lo, hi].

    White noise of total mass ``mass``, sigma == c, identity observable: the
    sample is N^{1/2} sum_j psi_N-weight_j (u_j - 1), psi_N = N^{-1} psi(x/N).
    """
    spectrum = white_noise_spectrum(n, 1, dx, mass)
    var_m = mode_variances(n, 1, dx, dt, steps, c, spectrum)
    weights = box_cell_weights(n, dx, N * lo, N * hi, 1.0 / N)
    return occupation_variance(weights, var_m, N, 1)


def upsilon_closed_1d(kind: str, mass: float, param: float, lam: float) -> float:
    """Closed forms of the d = 1 spectral integral, a = sqrt(2 lam).

    dirac M/a; exponential M r/(a (r + a)); gaussian M erfcx(a s/sqrt 2)/a;
    uniform (2M/(h^2 a^2)) (h - (1 - e^{-h a})/a).
    """
    a = math.sqrt(2.0 * lam)
    if kind == "dirac":
        return mass / a
    if kind == "exponential":
        return mass * param / (a * (param + a))
    if kind == "gaussian":
        return mass * float(erfcx(a * param / math.sqrt(2.0))) / a
    if kind == "uniform":
        h = param
        return (2.0 * mass / (h * h * a * a)) * (h + math.expm1(-h * a) / a)
    raise ValueError(f"unknown kind {kind!r}")


def lambda_closed_dirac(mass: float, a: float) -> float:
    """Inverse of the d = 1 dirac spectral integral: M/sqrt(2 lam) = a."""
    return mass * mass / (2.0 * a * a)


def ecf_gap_reference(columns: np.ndarray, z: np.ndarray) -> float:
    """|joint ECF - product of marginal ECFs| through real cos/sin sums."""
    columns = np.asarray(columns, dtype=float)
    z = np.asarray(z, dtype=float)
    phase = columns @ z
    joint_re, joint_im = np.cos(phase).mean(), np.sin(phase).mean()
    prod_re, prod_im = 1.0, 0.0
    for j in range(z.size):
        re, im = np.cos(z[j] * columns[:, j]).mean(), np.sin(z[j] * columns[:, j]).mean()
        prod_re, prod_im = prod_re * re - prod_im * im, prod_re * im + prod_im * re
    return math.hypot(joint_re - prod_re, joint_im - prod_im)

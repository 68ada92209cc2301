"""Tests of the benchmark's reference computations.

Run with ``python3 -m pytest bench/test_reference.py``.  Each reference is
compared with a brute-force or quadrature route that shares no code with it.
"""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

import reference as ref


def _laplacian_matrix(n: int, d: int, dx: float) -> np.ndarray:
    """Dense periodic 2d+1-point Laplacian on n^d cells (row-major order)."""
    size = n**d
    lap = np.zeros((size, size))
    for idx in np.ndindex(*(n,) * d):
        row = np.ravel_multi_index(idx, (n,) * d)
        lap[row, row] -= 2.0 * d
        for ax in range(d):
            for step in (-1, 1):
                nb = list(idx)
                nb[ax] = (nb[ax] + step) % n
                lap[row, np.ravel_multi_index(tuple(nb), (n,) * d)] += 1.0
    return lap / (dx * dx)


def _brute_force_variance(n, d, dx, dt, steps, c, spectrum, weights, N):
    """w^T (sum_k P^k Q P^k^T) w with P = I + (dt/2) Lap, Q circulant."""
    size = n**d
    P = np.eye(size) + 0.5 * dt * _laplacian_matrix(n, d, dx)
    kernel = np.fft.ifftn(spectrum).real  # covariance of one slice / dt, by lag
    Q = np.empty((size, size))
    for i, a in enumerate(np.ndindex(*(n,) * d)):
        for j, b in enumerate(np.ndindex(*(n,) * d)):
            lag = tuple((x - y) % n for x, y in zip(a, b))
            Q[i, j] = c * c * dt * kernel[lag]
    C = np.zeros((size, size))
    Pk = np.eye(size)
    for _ in range(steps):
        C += Pk @ Q @ Pk.T
        Pk = P @ Pk
    w = weights.ravel()
    return N**d * float(w @ C @ w)


@pytest.mark.parametrize("d,n", [(1, 8), (1, 16), (2, 4)])
def test_occupation_variance_matches_brute_force(d, n):
    dx = 0.5
    dt = dx * dx / (2 * d)
    steps = 7
    rng = np.random.default_rng(n + d)
    axis = rng.uniform(0.2, 1.0, n)
    axis = 0.5 * (axis + axis[(-np.arange(n)) % n])  # real symmetric spectrum
    spectrum = axis
    for _ in range(d - 1):
        spectrum = np.multiply.outer(spectrum, axis)
    weights = rng.normal(size=(n,) * d)
    N = 3.0
    exact = ref.occupation_variance(
        weights, ref.mode_variances(n, d, dx, dt, steps, 1.3, spectrum), N, d
    )
    brute = _brute_force_variance(n, d, dx, dt, steps, 1.3, spectrum, weights, N)
    assert exact == pytest.approx(brute, rel=1e-10)


def test_white_box_variance_matches_brute_force():
    n, dx = 16, 0.25
    dt = dx * dx / 2
    exact = ref.exact_white_box_variance(n, dx, dt, 9, 1.5, 0.8, 2.0, 0.1, 0.7)
    weights = ref.box_cell_weights(n, dx, 0.2, 1.4, 0.5)
    spectrum = ref.white_noise_spectrum(n, 1, dx, 1.5)
    brute = _brute_force_variance(n, 1, dx, dt, 9, 0.8, spectrum, weights, 2.0)
    assert exact == pytest.approx(brute, rel=1e-10)


def test_white_box_variance_on_benchmark_grid():
    # criterion-4 discretization: N = 64, dx = 1/16, 4096 cells, 512 steps
    var = ref.exact_white_box_variance(4096, 1 / 16, 1 / 512, 512, 1.0, 1.0, 64.0, 0.0, 1.0)
    assert 0.98 < var < 1.0


def _upsilon_quadrature(kind, mass, param, lam):
    def fhat(z):
        if kind == "dirac":
            return 1.0
        if kind == "gaussian":
            return math.exp(-0.5 * (param * z) ** 2)
        if kind == "exponential":
            return param * param / (param * param + z * z)
        u = 0.5 * param * z
        return 1.0 if u == 0.0 else (math.sin(u) / u) ** 2

    val, _ = integrate.quad(
        lambda z: fhat(z) / (2.0 * lam + z * z), 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=2000
    )
    return (2.0 / math.pi) * mass * val


@pytest.mark.parametrize("kind", ["dirac", "gaussian", "exponential", "uniform"])
@pytest.mark.parametrize("lam", [0.05, 0.7, 9.0])
def test_upsilon_closed_forms_match_quadrature(kind, lam):
    closed = ref.upsilon_closed_1d(kind, 1.3, 0.6, lam)
    assert closed == pytest.approx(_upsilon_quadrature(kind, 1.3, 0.6, lam), rel=1e-6)


def test_lambda_closed_dirac_inverts():
    lam = 0.37
    a = ref.upsilon_closed_1d("dirac", 2.0, 1.0, lam)
    assert ref.lambda_closed_dirac(2.0, a) == pytest.approx(lam, rel=1e-14)


def test_ecf_gap_reference_matches_python_loop():
    rng = np.random.default_rng(5)
    cols = rng.normal(size=(200, 3))
    z = np.array([1.0, -2.0, 0.5])
    n = cols.shape[0]
    joint = sum(cmath.exp(1j * sum(z[j] * row[j] for j in range(3))) for row in cols) / n
    prod = 1.0
    for j in range(3):
        prod *= sum(cmath.exp(1j * z[j] * row[j]) for row in cols) / n
    assert ref.ecf_gap_reference(cols, z) == pytest.approx(abs(joint - prod), abs=1e-13)

"""Discrete space-time Gaussian noise on a periodic grid.

Each time step draws, for every replica, a real Gaussian field over the
grid cells (``sample_noise_batch``) whose spatial covariance is dt times the
periodized covariance F_grid and whose draws at distinct steps are
independent (white in time).

Synthesis is circulant: the periodized covariance sampled on the grid has a
nonnegative discrete Fourier transform, so filtering i.i.d. cell noise by
the square root of that spectrum produces the exact target covariance.  The
per-mode weights equal the alias-folded spectral density f_hat(2 pi m / L)
summed over Brillouin copies, divided by L^d; the folding is evaluated in
physical space where every kind periodizes in closed form (Poisson
summation makes the two routes identical).  The Dirac kind is cell-averaged:
F_grid(0) = mass / dx^d with no off-cell correlation, i.e. a flat spectrum.

The weights are a product over axes of one axis factor, so the filter is a
Kronecker product of one real symmetric n x n circulant matrix per axis.
The route follows the grid: in d = 2 and 3 with n at most ``_MATMUL_MAX_N[d]``
the filter is one dense matrix product along each axis, which there beats
the multi-axis FFT; otherwise (d = 1, and larger n, where the FFT's log n
per cell wins over the products' n) it is a real FFT (``rfftn``/``irfftn``)
over half the modes, exact because the weights are symmetric under
m <-> -m.

Randomness is counter-based: every (seed, domain, replica, step) maps to an
independent Philox key, and each replica is filtered on its own: one real
FFT, or per axis matrix products of one fixed shape per replica.  So any
execution order, chunking, or process count reproduces bit-identical
fields; the solver draws and filters each step's replicas in cache-sized
blocks, which never changes output bits.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SynthesisWarning
from .spectral import CovarianceMeasure, dalang_check

_WEIGHT_CLIP_REPORT = 1e-8
# the diffusive halo is HALO_FACTOR sqrt(t): past it the field's covariance is below e^-16
HALO_FACTOR = 8.0
# largest n at which the per-axis circulant products beat rfftn/irfftn, by d
# (measured on one BLAS thread with 1 MiB blocks): in d = 2 the two tie from
# about n = 180 to 216 and the FFT leads from 240; in d = 3 the products still
# cost 40 against 63 ns per cell at n = 256, the largest n measured
_MATMUL_MAX_N = {2: 180, 3: 256}


def stable_dt(dx: float, d: int) -> float:
    """dx^2/(2d): the explicit scheme's stability limit and the default time step."""
    return dx * dx / (2.0 * d)


def _five_smooth_at_least(m: int) -> int:
    """Smallest integer >= max(m, 1) with no prime factor above 5.

    Tries each 3^b 5^c below the power of two >= m, doubled up to m.
    """
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < m:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class Grid:
    """Periodic grid on [0, L)^d with n cells per axis and time step dt.

    n is at least 2 and 5-smooth (no prime factor above 5), so every axis
    FFT runs in mixed radix 2, 3 and 5.
    """

    d: int
    length: float
    n: int
    dt: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ConfigError("grid.d: dimension must be 1, 2, or 3")
        if self.n < 2 or _five_smooth_at_least(self.n) != self.n:
            raise ConfigError(
                f"grid.n: cells per axis must be at least 2 with no prime factor "
                f"other than 2, 3 and 5, got {self.n}"
            )
        if self.length <= 0.0:
            raise ConfigError("grid.length: must be positive")
        if not self.dt > 0.0:
            raise ConfigError("grid.dt: must be positive")
        if self.dt > stable_dt(self.dx, self.d) * (1.0 + 1e-12):
            raise ConfigError("grid.dt: explicit-scheme stability needs dt <= dx^2/(2d)")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @classmethod
    def for_length(cls, length: float, dx: float, d: int, dt: float | None = None) -> "Grid":
        """Grid of cells of width dx on [0, length)^d, with dt defaulting to ``stable_dt``.

        length must be a whole number of cells; otherwise the message names
        the nearest length that is.
        """
        if not dx > 0.0:
            raise ConfigError(f"grid.dx: cell width must be positive, got {dx}")
        if not 0.0 < length < math.inf:
            raise ConfigError(f"grid.length: must be positive and finite, got {length}")
        cells = length / dx
        if not cells < math.inf:
            raise ConfigError(f"grid.dx: {dx} gives more cells than can be counted for length {length}")
        n = round(cells)
        if abs(cells - n) > 1e-9 * cells:
            raise ConfigError(f"grid.length: {length} is not a whole number of cells of width "
                              f"{dx}; the nearest whole-cell length is {max(n, 1) * dx:g}")
        return cls(d=d, length=n * dx, n=n, dt=stable_dt(dx, d) if dt is None else dt)

    @classmethod
    def for_support(cls, span: float, t: float, dx: float, d: int) -> "Grid":
        """Grid with the smallest 5-smooth n such that L = n dx > span + HALO_FACTOR sqrt(t).

        ``span`` is the largest per-axis width of the union of the scaled
        supports, so each support point lies more than the diffusive halo from
        every wrapped image of another.  Above 100 cells, consecutive 5-smooth
        counts differ by at most 1/9, so L exceeds what it needs by at most that.
        """
        if dx <= 0.0:
            raise ConfigError("grid.dx: must be positive")
        needed = max(span, 0.0) + HALO_FACTOR * math.sqrt(max(t, 0.0))
        n = _five_smooth_at_least(max(2, math.floor(needed / dx)))
        while n * dx <= needed:
            n = _five_smooth_at_least(n + 1)
        return cls(d=d, length=n * dx, n=n, dt=stable_dt(dx, d))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream id: (seed, domain, replica) keyed per step.

    ``domain`` separates independent uses (per-N solves, baseline replicas)
    without consuming replica indices.
    """

    seed: int
    domain: int = 0
    replica: int = 0

    @functools.cached_property
    def _k0(self) -> int:
        # the key word that depends on (seed, domain) only: once per stream
        return _splitmix64((self.seed & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(self.domain))

    def philox_key(self, step: int) -> list[int]:
        if not (0 <= self.replica < 2**32 and 0 <= step < 2**32):
            raise ConfigError("rng: replica and step indices must fit in 32 bits")
        return [self._k0, (self.replica << 32) | step]


@dataclass
class SpectralWeights:
    """Per-mode synthesis weights with diagnostics.

    ``weights`` has the grid shape; ``flat`` marks the white-noise fast
    path (all modes equal); ``clipped_mass`` is the total negative mass
    removed (round-off guard, expected zero for the implemented kinds).
    ``circ`` is set when the filter runs as per-axis matrix products: then
    ``weights`` is ``mass`` times the outer power of one axis's clipped
    unit-mass weights w_axis, and circ = circulant(ifft(sqrt(n w_axis)).real).
    """

    weights: np.ndarray
    flat: bool
    clipped_mass: float
    circ: np.ndarray | None = None
    mass: float = 1.0

    @property
    def flat_value(self) -> float:
        return float(self.weights.flat[0])


def _axis_circulant(axis_w: np.ndarray) -> np.ndarray:
    """Real symmetric C with C @ v = ifft(sqrt(n axis_w) fft(v)) along one axis.

    The grid filter sqrt(n^d w) is C on every axis times sqrt(mass).
    """
    n = axis_w.size
    c = np.fft.ifft(np.sqrt(n * axis_w)).real
    c = 0.5 * (c + c[-np.arange(n) % n])
    return c[np.subtract.outer(np.arange(n), np.arange(n)) % n]


def _outer_power(axis: np.ndarray, d: int) -> np.ndarray:
    """axis x axis x ... (d factors) as a d-dimensional array."""
    out = axis
    for _ in range(d - 1):
        out = np.multiply.outer(out, axis)
    return out


def periodized_axis_covariance(grid: Grid, f: CovarianceMeasure) -> np.ndarray:
    """One-axis factor of F_grid sampled at the cell coordinates (unit mass).

    Dirac uses the cell-averaged convention 1{x=0}/dx; the density kinds sum
    their translates over periods, exactly (finite support or geometric sum)
    or to machine precision (Gaussian).
    """
    x = grid.axis_coordinates()
    L = grid.length
    if f.kind == "dirac":
        out = np.zeros(grid.n)
        out[0] = 1.0 / grid.dx
        return out
    if f.kind == "exponential":
        r = f.param
        # closed-form two-sided geometric sum of (r/2) e^{-r|x + kL|}
        return 0.5 * r * (np.exp(-r * x) + np.exp(-r * (L - x))) / (1.0 - math.exp(-r * L))
    if f.kind == "uniform":
        k_max = int(math.ceil(f.param / L)) + 1
    else:
        k_max = int(math.ceil(10.0 * f.param / L)) + 1
    out = np.zeros(grid.n)
    for k in range(-k_max, k_max + 1):
        out += f.density_axis(x + k * L)
    return out


def periodized_covariance(grid: Grid, f: CovarianceMeasure) -> np.ndarray:
    """F_grid on the full grid, indexed by cell lag along each axis."""
    return f.mass * _outer_power(periodized_axis_covariance(grid, f), grid.d)


def spectral_weights(grid: Grid, f: CovarianceMeasure) -> SpectralWeights:
    """Nonnegative per-mode weights w_m with DFT(F_grid) = n^d * w.

    Computed per axis as the DFT of the sampled periodized covariance, which
    by Poisson summation equals the alias-folded f_hat(2 pi m / L) / L.
    Negative round-off is clipped; clipped mass above 1e-8 of the total is
    reported as a SynthesisWarning.
    """
    dalang_check(f)
    if f.kind == "dirac":
        w = np.full(grid.shape, f.mass / grid.length**grid.d)
        return SpectralWeights(weights=w, flat=True, clipped_mass=0.0)
    axis_cov = periodized_axis_covariance(grid, f)
    axis_w = np.fft.fft(axis_cov).real / grid.n  # real symmetric input
    # enforce exact m <-> -m symmetry; round-off asymmetry in modes that are
    # pure noise would otherwise leak imaginary parts through the sqrt filter
    axis_w = 0.5 * (axis_w + axis_w[(-np.arange(grid.n)) % grid.n])
    out = f.mass * _outer_power(axis_w, grid.d)
    neg = out < 0.0
    clipped = float(-np.sum(out[neg])) if np.any(neg) else 0.0
    if clipped > 0.0:
        # clip each axis, so every filter matrix has a real square root
        axis_w = np.where(axis_w < 0.0, 0.0, axis_w)
        out = f.mass * _outer_power(axis_w, grid.d)
    total = float(np.sum(out))
    if total > 0.0 and clipped > _WEIGHT_CLIP_REPORT * total:
        warnings.warn(
            f"clipped negative weight mass {clipped:.3e} ({clipped / total:.2e} of total)",
            SynthesisWarning,
            stacklevel=2,
        )
    circ = _axis_circulant(axis_w) if grid.n <= _MATMUL_MAX_N.get(grid.d, 0) else None
    return SpectralWeights(weights=out, flat=False, clipped_mass=clipped, circ=circ, mass=f.mass)


def _filter_scale(grid: Grid, weights: SpectralWeights, dt: float) -> np.ndarray:
    """sqrt(dt n^d w_m) on the real-FFT half spectrum (last axis m <= n/2)."""
    half = weights.weights[..., : grid.n // 2 + 1]
    return np.sqrt(dt * grid.n**grid.d * half)


class _KeyedPhilox:
    """One cached Philox generator rekeyed per call by direct state writes.

    Produces bit-identical output to constructing a fresh keyed generator,
    at a fraction of the setup cost; the module draws through one instance
    (``_KEYED``), so a process must not draw from two threads at once.
    """

    def __init__(self):
        self._bg = np.random.Philox(key=[0, 0])
        self.generator = np.random.Generator(self._bg)
        # one fresh-generator state, built once; rekey writes only its key
        # (the state setter copies the values, so the zero counter and
        # empty buffer stay as they are).  Python-int lists, not uint64
        # arrays: the setter reads them element by element, and list items
        # are the cheaper read.
        self._key = [0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, key) -> np.random.Generator:
        self._key[0], self._key[1] = key
        self._bg.state = self._state
        return self.generator


def sample_noise_batch(
    grid: Grid, weights: SpectralWeights, dt: float, streams: list[RngStream], step: int,
    out: np.ndarray | None = None, work: np.ndarray | None = None,
) -> np.ndarray:
    """Noise increments for several replicas at one step, shape (B, *grid).

    Each replica's white noise comes from its own (replica, step) key.  Flat
    weights scale the draws.  With ``weights.circ`` set the filter is that
    matrix applied along each axis, the last axis first, as one matrix
    product per replica slab; otherwise it is a real FFT per replica.  Every
    replica's slabs have one shape whatever the batch, so output bits do not
    depend on batching.  ``out``, a C-contiguous float64 array of that
    shape, receives the result; ``work``, another, is the scratch the
    circulant passes alternate with (a new one by default; the other routes
    leave it untouched).
    """
    xi = np.empty((len(streams),) + grid.shape) if out is None else out
    if not xi.flags.c_contiguous:
        raise ValueError("sample_noise_batch: out must be C-contiguous")
    if weights.circ is None:
        _draw(streams, step, xi)
        if weights.flat:
            xi *= math.sqrt(dt * grid.n**grid.d * weights.flat_value)
            return xi
        axes = tuple(range(1, grid.d + 1))
        spectrum = np.fft.rfftn(xi, axes=axes)
        spectrum *= _filter_scale(grid, weights, dt)
        return np.fft.irfftn(spectrum, s=grid.shape, axes=axes, out=xi)
    circ = weights.circ
    b, n = len(streams), grid.n
    if work is None:
        work = np.empty_like(xi)
    elif work.shape != xi.shape or not work.flags.c_contiguous:
        raise ValueError("sample_noise_batch: work must be C-contiguous and shaped like out")
    # d passes alternate between xi and the scratch and end in xi
    src, dst = (xi, work) if grid.d % 2 == 0 else (work, xi)
    _draw(streams, step, src)
    # reshapes of C-contiguous arrays are views, so every product writes in place
    np.matmul(src.reshape(b, -1, n), math.sqrt(dt * weights.mass) * circ,
              out=dst.reshape(b, -1, n))
    for ax in range(grid.d - 1, 0, -1):
        src, dst = dst, src
        shape = (b * n ** (ax - 1), n, -1)
        np.matmul(circ, src.reshape(shape), out=dst.reshape(shape))
    return xi


# one per process: rekey rewrites the whole state, so no draw depends on the last
_KEYED = _KeyedPhilox()


def _draw(streams: list[RngStream], step: int, out: np.ndarray) -> None:
    """Standard normals from each stream's (replica, step) key into out[i]."""
    for i, stream in enumerate(streams):
        _KEYED.rekey(stream.philox_key(step)).standard_normal(out=out[i])

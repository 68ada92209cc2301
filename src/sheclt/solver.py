"""Time stepping for the stochastic heat equation on the torus.

The field starts flat at 1 and evolves under

    du = (1/2) Lap u dt + sigma(u) dW

with the discrete Laplacian (periodic, 2d+1 points, dx^-2 scaling) and the
noise increments of :mod:`sheclt.noise`.  The multiplicative factor is
evaluated at the pre-step value (Ito reading, predictable integrand).  The
Picard scheme on the mild form that cross-validates this Euler path is a
test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, SolverBlowup
from .noise import Grid, RngStream, sample_noise_batch, spectral_weights
from .spectral import CovarianceMeasure

BLOWUP_GUARD = 1e12
# bytes per (block, *grid) float64 array in the replica blocks of solve_batch
# (noise, Laplacian-and-filter scratch, field in, field out) and of
# occupation.estimate_Bt (g(u), G(u), half spectra, cross-correlations); read
# at call time.  A block's arrays then fit a core's 2 MiB L2 cache.
_BLOCK_BYTES = 1 << 18


def _block_rows(n: int, cells: int) -> int:
    """Replicas per block: as many arrays of ``cells`` floats as fit
    ``_BLOCK_BYTES``, at least one and at most n."""
    return max(1, min(n, _BLOCK_BYTES // (8 * cells)))


class PiecewiseLinear:
    """Interpolant through strictly increasing knots, end-segment slopes
    extended, so the function is globally Lipschitz with constant ``lip``."""

    def __init__(self, xs, ys, what):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.ndim != 1 or self.ys.shape != self.xs.shape:
            raise ConfigError(f"{what}: xs and ys must be flat lists of one length")
        if self.xs.size < 2 or np.any(np.diff(self.xs) <= 0):
            raise ConfigError(f"{what}: knots must be strictly increasing")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ConfigError(f"{what}: knots and values must be finite")
        self.slopes = np.diff(self.ys) / np.diff(self.xs)
        self.lip = float(np.max(np.abs(self.slopes)))

    def __call__(self, u):
        idx = np.clip(np.searchsorted(self.xs, u) - 1, 0, self.xs.size - 2)
        return self.ys[idx] + self.slopes[idx] * (u - self.xs[idx])


class SigmaFunction:
    """Lipschitz diffusion coefficient with its structural constants.

    sigma is a + b*u or a table (:class:`PiecewiseLinear`).  The kinds
    constant c, linear c*u and affine a + b*u are that one family, held as
    (a, b) = (c, 0), (0, c) and (a, b); tabulated holds the table, with a and
    b None.  sigma(1) != 0 is required: at sigma(1) = 0 the flat state never
    moves and the equation is deterministic.
    """

    def __init__(self, kind, params):
        if kind not in _SIGMA_KINDS:
            raise ConfigError(f"sigma.kind: unknown kind {kind!r}")
        self.kind = kind
        to_ab = _SIGMA_KINDS[kind][2]
        if to_ab is None:
            self._eval_tab = PiecewiseLinear(*params, "sigma.tabulated")
            self.a = self.b = None
            self.lip = self._eval_tab.lip
            self.sigma0 = abs(float(self._eval_tab(np.array(0.0))))
            self.sigma1 = float(self._eval_tab(np.array(1.0)))
        else:
            if not all(map(math.isfinite, params)):
                raise ConfigError(f"sigma.params: {kind} parameters must be finite")
            self._eval_tab = None
            self.a, self.b = to_ab(*params)
            self.sigma0, self.lip, self.sigma1 = abs(self.a), abs(self.b), self.a + self.b
        if self.sigma1 == 0.0:
            raise ConfigError("sigma: sigma(1) must be nonzero")

    @classmethod
    def constant(cls, c):
        return cls("constant", (float(c),))

    @classmethod
    def linear(cls, c):
        return cls("linear", (float(c),))

    @classmethod
    def affine(cls, a, b):
        return cls("affine", (float(a), float(b)))

    @classmethod
    def tabulated(cls, xs, ys):
        return cls("tabulated", (xs, ys))

    @classmethod
    def from_config(cls, record) -> "SigmaFunction":
        """``{"kind": ..., "params": [...]}``; a bad record is a ConfigError."""
        try:
            kind = record["kind"]
            params = record.get("params", [])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"sigma: malformed record ({exc})") from exc
        if not isinstance(kind, str) or kind not in _SIGMA_KINDS:
            raise ConfigError(f"sigma.kind: unknown kind {kind!r}")
        arity, make, _ = _SIGMA_KINDS[kind]
        if not isinstance(params, (list, tuple)) or len(params) != arity:
            raise ConfigError(f"sigma.params: {kind} takes {arity} parameter(s), got {params!r}")
        try:
            return make(*params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sigma.params: invalid {kind} parameters ({exc})") from exc

    def __call__(self, u, out=None):
        """sigma(u) as a float array; ``out``, if given, receives it."""
        u = np.asarray(u)
        out = np.empty(u.shape) if out is None else out
        if self._eval_tab is not None:
            out[...] = self._eval_tab(u)
        elif self.b == 0.0:
            out.fill(self.a)
        else:
            np.multiply(u, self.b, out=out)
            if self.a != 0.0:
                out += self.a
        return out

    @property
    def is_constant(self) -> bool:
        return self._eval_tab is None and self.b == 0.0


# kind -> (parameter count, constructor, (a, b) of the parameters; None for a table)
_SIGMA_KINDS = {
    "constant": (1, SigmaFunction.constant, lambda c: (c, 0.0)),
    "linear": (1, SigmaFunction.linear, lambda c: (0.0, c)),
    "affine": (2, SigmaFunction.affine, lambda a, b: (a, b)),
    "tabulated": (2, SigmaFunction.tabulated, None),
}


def discrete_laplacian(
    values: np.ndarray, grid: Grid, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Periodic 2d+1-point Laplacian over the trailing grid axes.

    ``out`` receives the result and ``work`` holds each axis's neighbour
    pair; both must be C-contiguous float arrays of the shape of ``values``
    and default to new ones.  Per cell the arithmetic is -2d u, plus each
    axis's (left + right) pair in axis order, then / dx^2.  An axis with
    flat stride s pairs its interior cells as one add over the flattened
    block, u[k - s] + u[k + s]; its two edge planes, which that add fills
    with neighbours from across the axis, are then written from the
    periodic ones.
    """
    out = np.empty(values.shape) if out is None else out
    work = np.empty(values.shape) if work is None else work
    if not (out.flags.c_contiguous and work.flags.c_contiguous):
        raise ValueError("discrete_laplacian: out and work must be C-contiguous")
    np.multiply(values, -2.0 * grid.d, out=out)
    flat, pairs = np.ravel(values), work.reshape(-1)
    for ax in range(values.ndim - grid.d, values.ndim):
        s = math.prod(values.shape[ax + 1:])
        np.add(flat[:-2 * s], flat[2 * s:], out=pairs[s:-s])
        lead = (slice(None),) * ax
        first, second = lead + (slice(0, 1),), lead + (slice(1, 2),)
        last, before_last = lead + (slice(-1, None),), lead + (slice(-2, -1),)
        np.add(values[last], values[second], out=work[first])
        np.add(values[before_last], values[first], out=work[last])
        out += work
    out /= grid.dx * grid.dx
    return out


def step_euler(
    values: np.ndarray,
    grid: Grid,
    sigma: SigmaFunction,
    slice_values: np.ndarray,
    out: np.ndarray | None = None,
    lap: np.ndarray | None = None,
) -> np.ndarray:
    """One explicit Euler step; raises SolverBlowup past the 1e12 guard.

    ``out`` receives the new field and ``lap`` is scratch for the Laplacian;
    both default to new arrays, and neither may alias ``values``.  Per cell:
    (u + (dt/2) Lap u) + sigma(u) dW.
    """
    out = np.empty(values.shape) if out is None else out
    lap = discrete_laplacian(values, grid, out=lap, work=out)
    lap *= grid.dt / 2.0
    lap += values
    if sigma.is_constant:
        np.multiply(slice_values, sigma.a, out=out)
    else:
        sigma(values, out=out)
        out *= slice_values
    out += lap
    # NaN fails both comparisons
    if not (out.max() <= BLOWUP_GUARD and out.min() >= -BLOWUP_GUARD):
        raise SolverBlowup("field magnitude exceeded 1e12")
    return out


def _steps_for(grid: Grid, t_final: float) -> int:
    if t_final < 0.0:
        raise ConfigError("solve: t_final must be nonnegative")
    if t_final == 0.0:
        return 0
    steps = round(t_final / grid.dt)
    if abs(steps * grid.dt - t_final) > 1e-9 * max(t_final, grid.dt):
        raise ConfigError("solve: t_final must be a multiple of dt")
    return steps


def solve_batch(
    grid: Grid,
    sigma: SigmaFunction,
    f: CovarianceMeasure,
    t_final: float,
    seed: int,
    replicas,
    domain: int = 0,
    snapshot_times=(),
    weights=None,
):
    """Euler fields for a batch of replica indices, shape (B, *grid.shape).

    Returns (final_fields, snapshots) where snapshots maps each requested
    time to the batch of fields there.  Each step draws, filters and
    advances the replicas in contiguous cache-sized blocks (``_BLOCK_BYTES``
    per array); the Laplacian's scratch is the filter's while the noise is
    drawn.  Every stage acts replica by replica, so blocks never change
    output bits, which depend only on (seed, domain, replica, step).
    """
    replicas = list(replicas)
    if not replicas:
        raise ConfigError("replicas: need at least one replica")
    if weights is None:
        weights = spectral_weights(grid, f)
    streams = [RngStream(seed=seed, domain=domain, replica=r) for r in replicas]
    n_steps = _steps_for(grid, t_final)
    snap_steps = {}
    for t_snap in snapshot_times:
        snap_steps[_steps_for(grid, t_snap)] = t_snap

    n_rep = len(replicas)
    block = _block_rows(n_rep, grid.n**grid.d)
    u = np.ones((n_rep,) + grid.shape)
    nxt = np.empty_like(u)
    lap, dW = np.empty((2, block) + grid.shape)
    snapshots = {}
    if 0 in snap_steps:
        snapshots[snap_steps[0]] = u.copy()
    for step in range(n_steps):
        try:
            for s in range(0, n_rep, block):
                e = min(s + block, n_rep)
                k = e - s
                sample_noise_batch(grid, weights, grid.dt, streams[s:e], step, out=dW[:k],
                                   work=lap[:k])
                step_euler(u[s:e], grid, sigma, dW[:k], out=nxt[s:e], lap=lap[:k])
        except SolverBlowup as exc:
            raise SolverBlowup(
                f"blow-up at step {step + 1} of {n_steps}", step=step + 1
            ) from exc
        u, nxt = nxt, u
        if step + 1 in snap_steps:
            snapshots[snap_steps[step + 1]] = u.copy()
    return u, snapshots

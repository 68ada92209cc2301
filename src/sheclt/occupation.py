"""Occupation-field samples and the limiting covariance form.

A test function is a signed combination of axis-aligned boxes; its L2
norm and all pairings are closed-form box algebra.  The normalized sample

    N^{d/2} [ sum_j g(u(t, x_j)) w_j  -  baseline * int psi ]

uses exact box-cell overlap weights w_j for the rescaled function
psi_N(x) = N^{-d} psi(x/N), which keeps the Riemann sum free of the O(dx)
edge bias a nearest-cell indicator would introduce and makes bilinearity in
psi and in g hold identically, not just approximately.

The module also estimates the integrated spatial covariance of g(u(t)),
the quantity whose product with <psi, Psi> is the limiting covariance of
the normalized samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .errors import ConfigError, CutoffTooSmall, SupportOverflow
from .noise import HALO_FACTOR, Grid, _outer_power  # noqa: F401  (HALO_FACTOR is re-exported)
from . import solver
from .solver import PiecewiseLinear
from .spectral import CovarianceMeasure

MIN_BT_REPLICAS = 100


# -- test functions --


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ConfigError("box: lo and hi must have equal length")
        if not all(math.isfinite(v) for v in self.lo + self.hi):
            raise ConfigError("box: coordinates must be finite")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ConfigError("box: needs lo <= hi componentwise")

    @property
    def d(self):
        return len(self.lo)

    def volume(self) -> float:
        return float(np.prod([h - l for l, h in zip(self.lo, self.hi)]))

    def overlap_volume(self, other: "Box") -> float:
        out = 1.0
        for (a, b), (c, e) in zip(zip(self.lo, self.hi), zip(other.lo, other.hi)):
            out *= max(0.0, min(b, e) - max(a, c))
        return out


class TestFunction:
    """Signed combination sum_i a_i 1_{[lo_i, hi_i]} of axis-aligned boxes."""

    __test__ = False  # not a pytest class

    def __init__(self, terms, label=None):
        terms = [(float(a), Box(tuple(map(float, lo)), tuple(map(float, hi)))) for a, lo, hi in terms]
        if not terms:
            raise ConfigError("test function: needs at least one box")
        if not all(math.isfinite(a) for a, _ in terms):
            raise ConfigError("test function: amplitudes must be finite")
        d = terms[0][1].d
        if any(b.d != d for _, b in terms):
            raise ConfigError("test function: boxes must share one dimension")
        self.terms = terms
        self.d = d
        self.label = label or self._default_label()

    @classmethod
    def box(cls, lo, hi, label=None):
        """The indicator 1_{[lo, hi]}; scalar bounds give a 1-d box."""
        lo = (lo,) if np.isscalar(lo) else tuple(lo)
        hi = (hi,) if np.isscalar(hi) else tuple(hi)
        return cls([(1.0, lo, hi)], label=label)

    def _default_label(self):
        bits = []
        for a, b in self.terms:
            lo = ",".join(f"{v:g}" for v in b.lo)
            hi = ",".join(f"{v:g}" for v in b.hi)
            bits.append(f"{a:g}*[{lo};{hi}]")
        return "+".join(bits)

    def integral(self) -> float:
        return sum(a * b.volume() for a, b in self.terms)

    def l2_inner(self, other: "TestFunction") -> float:
        out = 0.0
        for a1, b1 in self.terms:
            for a2, b2 in other.terms:
                out += a1 * a2 * b1.overlap_volume(b2)
        return out

    def l2_norm(self) -> float:
        return math.sqrt(max(self.l2_inner(self), 0.0))

    def support_bbox(self):
        lo = [min(b.lo[ax] for _, b in self.terms) for ax in range(self.d)]
        hi = [max(b.hi[ax] for _, b in self.terms) for ax in range(self.d)]
        return tuple(lo), tuple(hi)

    def support_widths(self):
        lo, hi = self.support_bbox()
        return tuple(h - l for l, h in zip(lo, hi))

    def scaled(self, N: float) -> "TestFunction":
        """psi_N(x) = N^{-d} psi(x/N): boxes stretched, amplitudes shrunk."""
        if N <= 0.0:
            raise ConfigError("scale: N must be positive")
        return TestFunction(
            [
                (a / N**self.d, tuple(N * v for v in b.lo), tuple(N * v for v in b.hi))
                for a, b in self.terms
            ],
            label=f"{self.label}@N={N:g}",
        )

    @classmethod
    def from_config(cls, record: dict) -> "TestFunction":
        try:
            terms = [(t["amp"], t["lo"], t["hi"]) for t in record["boxes"]]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"test function: malformed record ({exc})") from exc
        return cls(terms, label=record.get("label"))


# -- Lipschitz observables --


class LipFunction:
    """Real Lipschitz observable with its Lipschitz constant ``lip``."""

    def __init__(self, kind, params=(), label=None):
        self.kind = kind
        self.params = params
        if kind in ("identity", "sin"):
            self.lip = 1.0
        elif kind == "shifted":
            base, a = params
            if not math.isfinite(a):
                raise ConfigError("lip.shifted: shift a must be finite")
            self.lip = base.lip
        elif kind == "scaled":
            base, a, b = params
            if not (0.0 < a < math.inf and math.isfinite(b)):
                raise ConfigError("lip.scaled: scale a must be positive, both a and b finite")
            self.lip = abs(b) * base.lip / a
        elif kind == "tabulated":
            self._eval_tab = PiecewiseLinear(*params, "lip.tabulated")
            self.lip = self._eval_tab.lip
        else:
            raise ConfigError(f"lip.kind: unknown kind {kind!r}")
        self.label = label or kind

    identity = classmethod(lambda cls: cls("identity"))
    sin = classmethod(lambda cls: cls("sin"))

    @classmethod
    def shifted(cls, base: "LipFunction", a: float):
        return cls("shifted", (base, float(a)), label=f"{base.label}(u-{a:g})")

    @classmethod
    def scaled(cls, base: "LipFunction", a: float, b: float):
        return cls("scaled", (base, float(a), float(b)), label=f"{b:g}*{base.label}(u/{a:g})")

    @classmethod
    def tabulated(cls, xs, ys, label=None):
        return cls("tabulated", (xs, ys), label=label or "tabulated")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "identity":
            return u
        if self.kind == "sin":
            return np.sin(u)
        if self.kind == "shifted":
            base, a = self.params
            return base(u - a)
        if self.kind == "scaled":
            base, a, b = self.params
            return b * base(u / a)
        return self._eval_tab(u)

    @classmethod
    def from_config(cls, record: dict) -> "LipFunction":
        kind = None
        try:
            kind = record.get("kind")
            if kind in ("identity", "sin"):
                return cls(kind, label=record.get("label"))
            if kind == "shifted":
                return cls.shifted(cls.from_config(record["base"]), record["a"])
            if kind == "scaled":
                return cls.scaled(cls.from_config(record["base"]), record["a"], record["b"])
            if kind == "tabulated":
                return cls.tabulated(record["xs"], record["ys"], label=record.get("label"))
        except KeyError as exc:
            raise ConfigError(f"g.{exc.args[0]}: missing from the {kind} record") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"g: malformed {kind} record ({exc})") from exc
        raise ConfigError(f"lip function: malformed record (kind {kind!r})")


# -- exact box-cell overlap weights on the torus --


def _axis_segments(grid: Grid, lo: float, hi: float):
    """(index slice, weight array) pieces covering [lo, hi] modulo L."""
    L, dx, n = grid.length, grid.dx, grid.n
    width = hi - lo
    if width > L + 1e-12 * L:
        raise SupportOverflow("box width exceeds the domain length")
    a = lo % L
    spans = [(a, min(a + width, L))]
    if a + width > L:
        spans.append((0.0, a + width - L))
    out = []
    for s0, s1 in spans:
        if s1 <= s0:
            continue
        i0 = int(math.floor(s0 / dx))
        i1 = min(int(math.ceil(s1 / dx)), n)
        idx = np.arange(i0, i1)
        left = np.maximum(s0, idx * dx)
        right = np.minimum(s1, (idx + 1) * dx)
        out.append((slice(i0, i1), np.maximum(right - left, 0.0)))
    return out


class PreparedTestFunction:
    """Cell overlap weights for one scaled test function on one grid.

    Precompute once and evaluate against many replica fields; evaluation is
    a small dense contraction over the support cells only.
    """

    def __init__(self, grid: Grid, psi_scaled: TestFunction, halo: float = 0.0):
        if psi_scaled.d != grid.d:
            raise ConfigError("prepared psi: dimension mismatch with grid")
        for width in psi_scaled.support_widths():
            if width + halo > grid.length:
                raise SupportOverflow(
                    f"support width {width:g} plus halo {halo:g} exceeds domain {grid.length:g}"
                )
        self.grid = grid
        self.psi = psi_scaled
        self.integral = psi_scaled.integral()
        self.pieces = []
        for amp, box in psi_scaled.terms:
            axis_opts = [_axis_segments(grid, box.lo[ax], box.hi[ax]) for ax in range(grid.d)]
            for combo in iter_product(*axis_opts):
                slices = tuple(c[0] for c in combo)
                weight = combo[0][1]
                for c in combo[1:]:
                    weight = np.multiply.outer(weight, c[1])
                self.pieces.append((amp, slices, weight))

    def integrate(self, fields: np.ndarray) -> np.ndarray:
        """sum_j fields[..., j] * w_j for a batch with trailing grid axes."""
        lead = fields.shape[: fields.ndim - self.grid.d]
        out = np.zeros(lead)
        for amp, slices, weight in self.pieces:
            # a per-row reduction: each replica's sum is independent of the batch
            weighted = fields[(Ellipsis,) + slices] * weight
            out += amp * weighted.reshape(lead + (-1,)).sum(axis=-1)
        return out


def occupation_values(
    prepared: PreparedTestFunction, gu_batch: np.ndarray, baseline: float, N: float
) -> np.ndarray:
    """Normalized samples for a batch of already-transformed fields g(u)."""
    d = prepared.grid.d
    raw = prepared.integrate(gu_batch) - baseline * prepared.integral
    return N ** (d / 2.0) * raw


# -- limiting covariance form --


def exact_Bt_constant_sigma(c0: float, t: float, f: CovarianceMeasure) -> float:
    """Integrated covariance for sigma == c0 and the identity observable."""
    return c0 * c0 * t * f.mass


@dataclass
class BtEstimate:
    value: float
    se: float
    cutoff: float
    boundary_cov: float
    n_replicas: int


def default_bt_cutoff(t: float, f: CovarianceMeasure) -> float:
    """Truncation radius: diffusive scale plus the reach of the covariance."""
    reach = {"dirac": 0.0, "uniform": f.param, "gaussian": 4.0 * f.param, "exponential": 6.0 / f.param}
    return 6.0 * math.sqrt(2.0 * max(t, 0.0)) + reach[f.kind]


def estimate_Bt(
    fields: np.ndarray,
    grid: Grid,
    g: LipFunction,
    G: LipFunction | None = None,
    *,
    t: float,
    f: CovarianceMeasure,
) -> BtEstimate:
    """Integrated spatial covariance of g(u(t,.)) against G(u(t,.)).

    Circular cross-correlations of the replica batch are summed over the lags
    within a physical cutoff along every axis, ``default_bt_cutoff(t, f)``
    clamped to L/4; the absolute covariance at the cutoff lag is kept as a
    truncation diagnostic.  G defaults to g, which takes one transform
    instead of two.

    The batch is streamed in contiguous replica blocks of ``_BLOCK_BYTES``
    per array (:mod:`sheclt.solver`), so the temporaries stay a few blocks
    whatever the batch.  Every transform acts replica by replica and the
    replica sum of the cross-correlations adds one row at a time in replica
    order, as a sum over the batch axis does, so the result is bit-identical
    whatever the block.
    """
    n = fields.shape[0]
    if n < MIN_BT_REPLICAS:
        raise ConfigError(f"estimate_Bt: need at least {MIN_BT_REPLICAS} replicas")
    cutoff = min(default_bt_cutoff(t, f), grid.length / 4.0)
    c = max(int(round(cutoff / grid.dx)), 1)
    ax_sel = np.zeros(grid.n, dtype=bool)  # lags within c cells along one axis
    ax_sel[: c + 1] = True
    ax_sel[grid.n - c :] = True
    window = _outer_power(ax_sel, grid.d)
    axes = tuple(range(1, fields.ndim))
    cells = math.prod(fields.shape[1:])
    block = solver._block_rows(n, cells)
    mean_g, mean_G, window_sum = np.empty((3, n))
    total = np.zeros(fields.shape[1:])  # from 0, as a sum over the batch axis starts
    for s in range(0, n, block):
        e = min(s + block, n)
        gu = np.asarray(g(fields[s:e]))
        GU = gu if G is None or G is g else np.asarray(G(fields[s:e]))
        spec = np.fft.rfftn(gu, axes=axes)
        spec *= np.conj(spec if GU is gu else np.fft.rfftn(GU, axes=axes))
        cross = np.fft.irfftn(spec, s=fields.shape[1:], axes=axes)
        cross /= cells
        mean_g[s:e], mean_G[s:e] = gu.mean(axis=axes), GU.mean(axis=axes)
        # lag after lag in mask order: numpy lays a masked batch out lag-major and
        # sums its rows so, but would sum a one-replica block pairwise
        window_sum[s:e] = np.cumsum(cross[:, window], axis=1)[:, -1]
        for row in cross:
            total += row
    window_cells = int(np.sum(window))
    per_rep = (window_sum - window_cells * mean_g * mean_G) * grid.cell_volume
    cov = total / n - (float(mean_g.sum()) / n) * (float(mean_G.sum()) / n)
    value = float(np.sum(cov[window])) * grid.cell_volume
    se = float(np.std(per_rep)) / math.sqrt(n)
    boundary = 0.0
    for lag in (c, grid.n - c):
        boundary += abs(float(cov[(lag,) + (0,) * (grid.d - 1)]))
    boundary *= grid.cell_volume
    if boundary > 0.05 * abs(value) + 3.0 * se:
        raise CutoffTooSmall(
            f"boundary covariance {boundary:.3e} exceeds 5% of estimate {value:.3e}"
        )
    return BtEstimate(
        value=value, se=se, cutoff=cutoff, boundary_cov=boundary, n_replicas=n
    )

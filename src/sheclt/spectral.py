"""Spatial covariance measures and the analytic machinery built on them.

The covariance of the driving noise is a finite nonnegative-definite measure
f on R^d with a closed-form Fourier transform.  Four families are supported,
each a product of identical one-dimensional factors:

    dirac        point mass at the origin (white noise in space)
    gaussian     Gaussian density with per-axis scale s
    uniform      autocorrelation of a uniform box of halfwidth h, i.e. the
                 triangular density (1 - |x|/h)+ / h per axis
    exponential  two-sided exponential (Laplace) density with rate r

All four have nonnegative spectral densities, which is what makes them
usable as covariances of a stationary Gaussian field.  A plain uniform
density is *not* nonnegative-definite (its transform is a signed sinc), so
the "uniform" kind is realized through the box autocorrelation.

The heat-smoothed covariance p_s * f at the origin and, per axis, its ramp
transform E[(X - a)^+] are closed form for every kind.  On top of the
measure this module evaluates the spectral integral

    upsilon(lam) = (2/(2 pi)^d) * int f_hat(z) / (2 lam + |z|^2) dz,

in closed form for every kind in d = 1 and the Gaussian in d = 2, 3, and for
the product kinds (exponential, uniform) in d >= 2 as the time-domain
integral int_0^inf e^{-lam s} (p_s * f)(0) ds, by the trapezoid rule in
y = log s over one vectorised evaluation of the closed-form (p_s * f)(0) per
step size; its inverse ``lambda_of``, closed form for dirac and the d = 1
exponential kind, a root find otherwise; the resolvent identity, whose
time side is the same trapezoid rule; and the explicit moment and
tail bounds whose constants feed the Monte Carlo non-violation checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, erfcx, exp1, ndtr

from .errors import ConfigError, DalangViolation, NonConvergence

KINDS = ("dirac", "gaussian", "uniform", "exponential")

def _norm_pdf(x, var):
    return np.exp(-np.asarray(x) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


@dataclass(frozen=True)
class CovarianceMeasure:
    """A finite, nonnegative-definite spatial covariance measure.

    ``param`` is the per-kind shape parameter: the Gaussian scale s, the
    uniform halfwidth h, or the exponential rate r.  It is ignored for the
    Dirac kind.  ``mass`` is the total mass f(R^d).
    """

    kind: str
    dimension: int = 1
    mass: float = 1.0
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"covariance.kind: unknown kind {self.kind!r}")
        if self.dimension not in (1, 2, 3):
            raise ConfigError("covariance.dimension: must be 1, 2, or 3")
        if not (0.0 < self.mass < math.inf):
            raise ConfigError("covariance.mass: total mass must be in (0, inf)")
        if self.kind != "dirac" and not (0.0 < self.param < math.inf):
            raise ConfigError("covariance.param: shape parameter must be positive and finite")

    # -- physical-space evaluations --

    def density_axis(self, x):
        """One-axis density factor (unit mass); None has no meaning for dirac."""
        x = np.asarray(x, dtype=float)
        if self.kind == "dirac":
            raise ConfigError("dirac covariance has no pointwise density")
        if self.kind == "gaussian":
            return _norm_pdf(x, self.param**2)
        if self.kind == "uniform":
            h = self.param
            return np.clip(1.0 - np.abs(x) / h, 0.0, None) / h
        r = self.param
        return 0.5 * r * np.exp(-r * np.abs(x))

    def ramp_axis(self, s, a):
        """One-axis ramp transform R(a) = int (x - a)^+ (p_s * f)(x) dx = E[(X - a)^+].

        X has the unit-mass one-axis law of p_s * f, so R'' is that
        density.  The law is symmetric, so R(a) = (-a)^+ + R(|a|), and
        R(|a|) is a sum of nonnegative tails.  Closed form for every kind,
        with R_v(a) = E[(G - a)^+], G ~ N(0, v):

            dirac        R_s(a)
            gaussian     R_{s + l^2}(a)                  (scale l)
            uniform      triangle (halfwidth h) smoothing of R_s, a second
                         difference of E[(G - a)^{+3}] / 6 over h
            exponential  R_s(a) + (E(a) + E(-a)) / (2 r)  (rate r,
                         E = int_0^inf e^{-r y} p_s(y - .) dy)
        """
        a = np.asarray(a, dtype=float)
        if s <= 0.0:
            raise ConfigError("ramp_axis: s must be positive")
        if self.kind == "dirac":
            return _normal_ramp(a, s)
        if self.kind == "gaussian":
            return _normal_ramp(a, s + self.param**2)
        if self.kind == "uniform":
            return _triangle_smooth(np.abs(a), self.param, s) + np.maximum(-a, 0.0)
        r = self.param
        return _normal_ramp(a, s) + (
            _exp_gauss_halfline(r, s, a) + _exp_gauss_halfline(r, s, -a)
        ) / (2.0 * r)

    def smoothed_origin(self, s):
        """(p_s * f)(0) over an array of s > 0, the d-th power of the one-axis
        value times ``mass``.  Per axis (unit mass):

            dirac        (2 pi s)^{-1/2}
            gaussian     (2 pi (s + l^2))^{-1/2}                (scale l)
            exponential  (r/2) erfcx(r sqrt(s/2))               (rate r)
            uniform      (2/h) [erf(rho/sqrt 2)/2 + expm1(-rho^2/2)/(rho sqrt(2 pi))],
                         rho = h / sqrt(s)                      (halfwidth h)

        The uniform form cancels to at most half of its first term.
        """
        s = np.asarray(s, dtype=float)
        p = self.param
        if self.kind == "dirac":
            axis = 1.0 / np.sqrt(2.0 * math.pi * s)
        elif self.kind == "gaussian":
            axis = 1.0 / np.sqrt(2.0 * math.pi * (s + p * p))
        elif self.kind == "exponential":
            axis = 0.5 * p * erfcx(p * np.sqrt(0.5 * s))
        else:
            rho = p / np.sqrt(s)
            axis = (2.0 / p) * (0.5 * erf(rho / math.sqrt(2.0))
                                + np.expm1(-0.5 * rho * rho) / (rho * math.sqrt(2.0 * math.pi)))
        return self.mass * axis**self.dimension

    # -- parsing --

    @classmethod
    def from_config(cls, record: dict) -> "CovarianceMeasure":
        try:
            kind = record["kind"]
            dim = int(record.get("dimension", 1))
            mass = float(record.get("mass", 1.0))
            param = float(record.get("params", {}).get("param", 1.0))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"covariance: malformed record ({exc})") from exc
        return cls(kind=kind, dimension=dim, mass=mass, param=param)


def _exp_gauss_halfline(r, s, x):
    """int_0^inf e^{-r y} p_s(y - x) dy, numerically stable for large r^2 s."""
    x = np.asarray(x, dtype=float)
    rt = math.sqrt(s)
    u = (r * s - x) / math.sqrt(2.0 * s)
    out = np.empty_like(x)
    pos = u >= 0.0
    # e^{r^2 s/2 - r x} Phi((x - r s)/sqrt(s)) rewritten through erfcx
    out[pos] = 0.5 * np.exp(-x[pos] ** 2 / (2.0 * s)) * erfcx(u[pos])
    if np.any(~pos):
        xe = x[~pos]
        out[~pos] = np.exp(r * r * s / 2.0 - r * xe) * ndtr((xe - r * s) / rt)
    return out


# Standard-normal tail ratios J_k(z) = E[(Z - z)^{+k}] / phi(z): the direct
# recurrence up to z = 2.5, a continued fraction from there
_CF_FROM = 2.5


def _normal_tail_ratios(z):
    """(J_1(z), J_3(z)) for z >= 0, J_k(z) = E[(Z - z)^{+k}] / phi(z) with Z
    standard normal.

    Below z = 2.5: J_0 = sqrt(pi/2) erfcx(z / sqrt 2), J_1 = 1 - z J_0 and
    J_{k+1} = k J_{k-1} - z J_k, which cancels to about z^2 (J_1) and z^6
    (J_3) ulps.  From 2.5 on the ratios r_k = J_k / J_{k-1} = k / (z + r_{k+1})
    are run down from r_L = 0, L = 7 + 100 / z + 200 / z^2 levels (under
    6e-16 relative against mpmath), and J_1 = r_1 / (z + r_1),
    J_3 = r_2 r_3 J_1.
    """
    z = np.asarray(z, dtype=float)
    j0 = math.sqrt(0.5 * math.pi) * erfcx(z / math.sqrt(2.0))
    j1 = 1.0 - z * j0
    j3 = 2.0 * j1 - z * (j0 - z * j1)
    far = z >= _CF_FROM
    if np.any(far):
        zf = z[far]
        zmin = zf.min()
        r = np.zeros_like(zf)
        for k in range(int(7.0 + 100.0 / zmin + 200.0 / zmin**2), 0, -1):
            r = k / (zf + r)
            if k == 3:
                r3 = r
            elif k == 2:
                r23 = r * r3
        j1[far] = r / (zf + r)
        j3[far] = r23 * j1[far]
    return j1, j3


def _normal_ramp(b, v, k=1):
    """E[(G - b)^{+k}] for G ~ N(0, v), k = 1 or 3, and any real b.

    The tail at |b| is sd^k phi(z) J_k(z), z = |b| / sd.  J_3 comes from
    ``_normal_tail_ratios``; J_1 = 1 - z J_0 is taken direct, since its
    z^2 ulps are what phi(z) already loses to the rounding of z, and the
    continued fraction would cost the hot ramp transforms three times as
    much.  Below zero (x^+)^k = x^k + (x^-)^k adds E[(G - b)^k], which is
    m, resp. m^3 + 3 m v, with m = -b.
    """
    b = np.asarray(b, dtype=float)
    sd = math.sqrt(v)
    phi = np.exp(b * b * (-0.5 / v))  # times sd^k / sqrt(2 pi) below
    phi_scale = sd**k / math.sqrt(2.0 * math.pi)
    if k == 1:
        y = np.abs(b) * (1.0 / (sd * math.sqrt(2.0)))  # z / sqrt 2; z J_0 = sqrt(pi) y erfcx(y)
        tail = phi * (phi_scale - (y * erfcx(y)) * (phi_scale * math.sqrt(math.pi)))
    else:
        tail = phi * _normal_tail_ratios(np.abs(b) * (1.0 / sd))[1] * phi_scale
    m = np.maximum(-b, 0.0)
    return tail + (m if k == 1 else m * (m * m + 3.0 * v))


# triangle smoothing switches to its Taylor series below h / sqrt(v) = 0.1
_SERIES_RHO = 0.1
_SERIES_TERMS = 18
# phi(z) underflows to 0 beyond z ~ 38.6; the series clips z there
_PHI_ZERO = 40.0


def _triangle_smooth(b, h, v):
    """(F(b - h) - 2 F(b) + F(b + h)) / h^2 for F(c) = E[(G - c)^{+3}] / 6,
    G ~ N(0, v), at b >= 0.

    F'' is the normal ramp, so this is the ramp smoothed by the triangle
    density (1 - |x|/h)+ / h: the uniform kind's ramp transform.  Where
    h < 0.1 sqrt(v) the difference would cancel to about v / h^2 ulps, so it
    is summed as the Taylor series sum_{j>=1} 2 h^{2j-2} F^{(2j)}(b) / (2j)!,
    whose terms past the ramp are normal-density derivatives
    He_{2i}(z) phi(z) / sd^{2i+1} (z = b / sd, rho = h / sd):
    sd phi(z) rho^2 sum_i 2 rho^{2i} He_{2i}(z) / (2i + 4)!, 18 terms
    (rho z < 4 wherever phi(z) > 0).
    """
    b = np.asarray(b, dtype=float)
    sd = math.sqrt(v)
    rho = h / sd
    if rho >= _SERIES_RHO:
        lo, mid, hi = (_normal_ramp(c, v, 3) for c in (b - h, b, b + h))
        return (lo - 2.0 * mid + hi) / (6.0 * h * h)
    z = np.minimum(b / sd, _PHI_ZERO)
    he_prev, he = np.zeros_like(z), np.ones_like(z)  # He_{-1}, He_0
    total = np.zeros_like(z)
    coef = 2.0 / math.factorial(4)
    for i in range(_SERIES_TERMS):
        total += coef * he
        n = 2 * i
        he_prev, he = he, z * he - n * he_prev  # He_{2i+1}
        he_prev, he = he, z * he - (n + 1) * he_prev  # He_{2i+2}
        coef *= rho * rho / ((n + 5) * (n + 6))
    out = sd * rho ** 2 * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * total
    return out + _normal_ramp(b, v)


def dalang_check(f: CovarianceMeasure) -> None:
    """Raise DalangViolation when the spectral integral diverges.

    The Dirac kind has a flat spectrum, so the integral of 1/(2 lam + |z|^2)
    over R^d diverges for d >= 2; all density kinds have integrable spectra.
    """
    if f.kind == "dirac" and f.dimension >= 2:
        raise DalangViolation(
            f"covariance.kind: dirac violates Dalang's spectral integrability condition "
            f"for covariance.dimension = {f.dimension}; use d = 1 or a density kind"
        )


# the time-domain trapezoid rule: the integrand's negligible share at either
# cut-off, nodes per block while the lower cut-off is sought, the relative
# agreement of successive halvings, the most halvings, and the smallest log s
_CUT = 1e-19
_BLOCK = 64
_TRAP_TOL = 1e-13
_MAX_HALVINGS = 8
_LOG_S_MIN = math.log(np.finfo(float).tiny)
# lambda_of brackets lam inside [1 / _LAM_EDGE, _LAM_EDGE], log lam inside +-_LOG_LAM_EDGE
_LAM_EDGE = 1e12
_LOG_LAM_EDGE = math.log(_LAM_EDGE)


@dataclass(frozen=True)
class DalangProfile:
    measure: CovarianceMeasure


def _uniform_shape(x: float) -> float:
    """(x - 1 + e^{-x}) / x^2, the d = 1 uniform kind's spectral integral shape.

    Below x = 1 the direct form loses about log10(2/x) digits to cancellation,
    so the Taylor series 1/2 - x/6 + x^2/24 - ... is summed in Horner form
    (truncated after x^18/20!, under 1e-18 relative).
    """
    if x >= 1.0:
        return (x + math.expm1(-x)) / (x * x)
    t = 1.0
    for k in range(20, 2, -1):
        t = 1.0 - x * t / k
    return 0.5 * t


def _exp_e1(x: float) -> float:
    """e^x E1(x); from x = 200 on, short of where e^x overflows (x ~ 709),
    the asymptotic series (1/x) sum_k (-1)^k k!/x^k (12 terms, under 1e-19
    relative)."""
    if x < 200.0:
        return math.exp(x) * float(exp1(x))
    total, term = 0.0, 1.0 / x
    for k in range(1, 13):
        total += term
        term *= -k / x
    return total


def upsilon(profile: DalangProfile, lam: float) -> float:
    """Evaluate the spectral integral at lam > 0.

    Closed forms, with a = sqrt(2 lam), M the mass and s, h, r the shape
    parameter:

        d = 1 dirac          M / a
        d = 1 exponential    M r / (a (r + a))
        d = 1 gaussian       M erfcx(a s / sqrt 2) / a
        d = 1 uniform        (2M / (h^2 a^2)) (h - (1 - e^{-h a}) / a)
        d = 2 gaussian       M e^x E1(x) / (2 pi),  x = lam s^2
        d = 3 gaussian       (M / pi^2) (sqrt(pi/2) / s - (pi a / 2) erfcx(a s / sqrt 2))

    each evaluated free of cancellation and overflow.  The product-form
    kinds (exponential, uniform) in d >= 2 have no elementary form; they use
    the equivalent time-domain integral int_0^inf e^{-lam s} (p_s * f)(0) ds,
    summed by the trapezoid rule in y = log s (``_time_domain_integral``),
    which converges geometrically and raises NonConvergence rather than
    return an unsettled sum.
    """
    if lam <= 0.0:
        raise ConfigError("upsilon: lam must be positive")
    f = profile.measure
    dalang_check(f)
    M, p, d = f.mass, f.param, f.dimension
    a = math.sqrt(2.0 * lam)

    if d == 1:
        if f.kind == "dirac":
            return M / a
        if f.kind == "exponential":
            return M * p / (a * (p + a))
        if f.kind == "gaussian":
            return M * float(erfcx(p * math.sqrt(lam))) / a
        return 2.0 * M * _uniform_shape(p * a) / a

    if f.kind == "gaussian":
        if d == 2:
            return M * _exp_e1(lam * p * p) / (2.0 * math.pi)
        # 1 - sqrt(pi) y erfcx(y) at y = s sqrt(lam) is J_1(sqrt(2 lam) s)
        j1 = float(_normal_tail_ratios(np.array([a * p]))[0][0])
        return M * j1 / (math.pi**1.5 * math.sqrt(2.0) * p)

    return _time_domain_integral(f, lam)


def _time_domain_integral(f: CovarianceMeasure, lam: float) -> float:
    """int_0^inf e^{-lam s} (p_s * f)(0) ds by the trapezoid rule in y = log s.

    In y the integrand F(y) = s e^{-lam s} (p_s * f)(0) is analytic in a strip
    about the real axis and decays at both ends: like s^{1/2} or faster as
    s -> 0, and super-exponentially once lam s is large.  So the trapezoid
    sum converges geometrically as the step h shrinks.  The nodes run down
    from lam s = log(1 / _CUT), where e^{-lam s} is negligible, in blocks of
    _BLOCK until the lowest node holds under _CUT of the sum; below it F
    decays at least like e^{y/2}, so the rest is at most 2 F there.  The step
    halves from h = 0.5 (each level adds only the midpoints) until two
    successive sums agree to _TRAP_TOL relative.
    """
    top = math.log(-math.log(_CUT) / lam)

    def integrand(k, h):  # F at the nodes y = top - k h
        s = np.exp(top - h * k)
        return s * np.exp(-lam * s) * f.smoothed_origin(s)

    h, n, total = 0.5, 0, 0.0
    while True:
        if top - (n + _BLOCK) * h < _LOG_S_MIN:
            raise NonConvergence(f"time-domain integral at lam = {lam:g}: the integrand "
                                 "does not fall off as s -> 0")
        block = integrand(np.arange(n, n + _BLOCK), h)
        total += block.sum()
        n += _BLOCK
        if 0.0 < total < math.inf and block[-1] <= _CUT * total:
            break
    total *= h
    for _ in range(_MAX_HALVINGS):
        h *= 0.5
        refined = 0.5 * total + h * integrand(2 * np.arange(n) + 1, h).sum()
        n *= 2
        if abs(refined - total) <= _TRAP_TOL * refined:
            return refined
        total = refined
    raise NonConvergence(f"time-domain integral at lam = {lam:g}: trapezoid sums did not "
                         f"agree to {_TRAP_TOL:g} after {_MAX_HALVINGS} halvings")


def lambda_of(profile: DalangProfile, a: float) -> float:
    """Invert the spectral integral: the lam > 0 with upsilon(lam) = a.

    Closed form for the dirac kind, lam = M^2 / (2 a^2), and for the d = 1
    exponential kind, lam = alpha^2 / 2 with alpha the positive root of
    a alpha^2 + a r alpha - M r = 0.  Every other kind and dimension solves
    log upsilon(lam) = log a with ``brentq`` in log lam (upsilon is strictly
    decreasing), to 1e-12 in log lam, after growing a bracket from lam = 1
    in doubling log-steps up to lam in [1e-12, 1e12].  The root find returns
    0.0 when upsilon(1e-12) < a (a is at least the supremum of upsilon near
    0, which is finite for d = 3) and inf when upsilon(1e12) > a; an a equal
    to upsilon at an edge returns that edge.
    """
    if a <= 0.0:
        raise ConfigError("lambda_of: a must be positive")
    f = profile.measure
    dalang_check(f)
    M, r = f.mass, f.param
    if f.kind == "dirac":
        return M * M / (2.0 * a * a)
    if f.kind == "exponential" and f.dimension == 1:
        alpha = 2.0 * M / (a + math.sqrt(a * a + 4.0 * a * M / r))
        return 0.5 * alpha * alpha

    log_a = math.log(a)

    def lam_at(t):  # the edge nodes are 1e-12 and 1e12 exactly, not exp(-+log 1e12)
        if abs(t) < _LOG_LAM_EDGE:
            return math.exp(t)
        return _LAM_EDGE if t > 0.0 else 1.0 / _LAM_EDGE

    @functools.cache
    def gap(t):  # strictly decreasing in t = log lam; cached for brentq's end points
        return math.log(upsilon(profile, lam_at(t))) - log_a

    sign = 1.0 if gap(0.0) > 0.0 else -1.0  # the root lies on this side of lam = 1
    t0, t1 = 0.0, sign
    while sign * gap(t1) > 0.0:  # no sign change nor zero in [t0, t1] yet
        if abs(t1) >= _LOG_LAM_EDGE:
            return math.inf if sign > 0.0 else 0.0
        t0, t1 = t1, sign * min(2.0 * abs(t1), _LOG_LAM_EDGE)
    # brentq returns an end point where gap is exactly 0, so an edge root is the edge
    return lam_at(brentq(gap, min(t0, t1), max(t0, t1), xtol=1e-12))


def resolvent_identity_check(profile: DalangProfile, lam: float) -> tuple[float, float]:
    """Return ((v_lam * f)(0), upsilon(lam)) computed along independent routes.

    The left side is the Laplace transform in time of the heat-smoothed
    covariance at the origin, the trapezoid rule in log s over the whole
    half-line; the right side is ``upsilon``, closed form where one exists
    (for the product kinds in d >= 2 it is the same trapezoid rule).  The two
    agree analytically.
    """
    if lam <= 0.0:
        raise ConfigError("resolvent_identity_check: lam must be positive")
    f = profile.measure
    dalang_check(f)
    return _time_domain_integral(f, lam), upsilon(profile, lam)


# -- explicit bound evaluators --


@dataclass(frozen=True)
class MomentBoundParams:
    eps: float
    k: float
    N: float
    T: float
    sigma0: float
    lip_sigma: float
    lip_g: float
    psi_norm: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k, self.N, self.T, self.sigma0, self.lip_sigma,
                                       self.lip_g, self.psi_norm))):
            raise ConfigError("moment bound: parameters must be finite")
        if not (0.0 < self.eps < 1.0):
            raise ConfigError("moment bound: eps must lie in (0, 1)")
        if self.k < 2.0:
            raise ConfigError("moment bound: k must be at least 2")
        if self.N <= 0.0 or self.T <= 0.0:
            raise ConfigError("moment bound: N and T must be positive")
        if self.psi_norm < 0.0:
            raise ConfigError("moment bound: psi_norm must be nonnegative")


def moment_constants(
    eps: float, sigma0: float, lip_sigma: float, f: CovarianceMeasure
) -> tuple[float, float]:
    """The pair (A(eps), a(eps)) entering the uniform moment bound.

    A(eps) = 16 [sigma0 v Lip(sigma)] sqrt(f(R^d)) / eps^{3/2}
    a(eps) = (1 - eps)^2 / (2^{(d+6)/2} [sigma0 v Lip(sigma)]^2)
    """
    if not (0.0 < eps < 1.0):
        raise ConfigError("moment_constants: eps must lie in (0, 1)")
    s = max(abs(sigma0), abs(lip_sigma))
    if s == 0.0:
        raise ConfigError("moment_constants: sigma0 and lip_sigma cannot both vanish")
    big = 16.0 * s * math.sqrt(f.mass) / eps**1.5
    small = (1.0 - eps) ** 2 / (2.0 ** ((f.dimension + 6) / 2.0) * s * s)
    return big, small


def log_moment_bound(params: MomentBoundParams, profile: DalangProfile) -> float:
    """Natural log of the moment bound; finite even when the bound overflows.

    The bound itself is A(eps) sqrt(T k) / N^{d/2} * exp(2 T Lambda(a(eps)/k))
    * Lip(g) * |psi|_2 and is typically astronomically loose for white noise.
    Lip(g) = 0 gives -inf (the bound is exactly zero).
    """
    f = profile.measure
    big, small = moment_constants(params.eps, params.sigma0, params.lip_sigma, f)
    if params.lip_g == 0.0 or params.psi_norm == 0.0:
        return -math.inf
    lam = lambda_of(profile, small / params.k)
    return (
        math.log(big)
        + 0.5 * math.log(params.T * params.k)
        - (f.dimension / 2.0) * math.log(params.N)
        + 2.0 * params.T * lam
        + math.log(abs(params.lip_g) * params.psi_norm)
    )


def tail_bound(
    ell: float,
    eps: float,
    delta: float,
    T: float,
    B: float,
    profile: DalangProfile,
    sigma_scale: float = 1.0,
) -> float:
    """Uniform-in-N tail probability bound, clamped to 1 where not claimed.

    For log(ell/B) > 0 the bound is
        exp{ -a(eps) delta log(ell/B) / (2 upsilon((1-delta)/(2T) log(ell/B))) };
    below that threshold the bound is only established beyond an unknown
    multiple of B, so the vacuous value 1 is returned.  ``sigma_scale`` is
    sigma0 v Lip(sigma) of the diffusion coefficient entering a(eps); B must
    be built with the matching A(eps).
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ConfigError("tail_bound: eps and delta must lie in (0, 1)")
    if not all(0.0 < v < math.inf for v in (ell, B, T)):
        raise ConfigError("tail_bound: ell, B, T must be finite and positive")
    logratio = math.log(ell / B)
    if logratio <= 0.0:
        return 1.0
    f = profile.measure
    _, small = moment_constants(eps, sigma_scale, sigma_scale, f)
    lam_arg = (1.0 - delta) / (2.0 * T) * logratio
    ups = upsilon(profile, lam_arg)
    return min(1.0, math.exp(-small * delta * logratio / (2.0 * ups)))


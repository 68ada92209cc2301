"""Spectral-side checks: Fourier transforms, the Dalang integral, bounds.

``upsilon`` is closed form for every d = 1 kind and the radial Gaussian in
d = 2, 3.  The oracle for those closed forms is adaptive quadrature of the
defining integral (2/(2 pi)^d) int f_hat(z) / (2 lam + |z|^2) dz itself: over
the line in d = 1, over the radius for the Gaussian in d = 2, 3.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from oracles import fourier_axis, heat_kernel, smoothed_at, smoothed_axis, time_integrated_cov
from sheclt import spectral
from sheclt.errors import ConfigError, DalangViolation, NonConvergence
from sheclt.spectral import (
    CovarianceMeasure,
    DalangProfile,
    MomentBoundParams,
    dalang_check,
    lambda_of,
    log_moment_bound,
    moment_constants,
    resolvent_identity_check,
    tail_bound,
    upsilon,
)

ALL_KINDS_1D = [
    CovarianceMeasure("dirac", 1, 1.0),
    CovarianceMeasure("gaussian", 1, 1.0, 1.0),
    CovarianceMeasure("uniform", 1, 1.0, 1.0),
    CovarianceMeasure("exponential", 1, 1.0, 1.0),
]


# lam over 1e-6 .. 1e8 and three shape parameters around 1
ORACLE_LAMS = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.7, 25.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8]
ORACLE_PARAMS = [0.3, 1.0, 4.0]


def _quad(fn, lo, hi, **kw):
    kw.setdefault("epsabs", 0.0)
    return integrate.quad(fn, lo, hi, epsrel=1e-13, limit=400, **kw)[0]


def upsilon_by_quadrature(f, lam):
    """Adaptive quadrature of the defining spectral integral, no closed form.

    The line (d = 1) or the radius (Gaussian, d = 2, 3) is cut at geometric
    edges through the knee at z = sqrt(2 lam) and the spectral scale
    1/param.  The oscillating sinc^2(hz/2) = 2 (1 - cos hz) / (h z)^2 of
    the uniform kind is integrated directly over its first period only;
    beyond it the smooth part gets plain quadrature and the cosine part
    QUADPACK's Fourier-weight rules.
    """
    a2 = 2.0 * lam
    p = 1.0 if f.kind == "dirac" else f.param
    lo, hi = min(math.sqrt(a2), 1.0 / p) / 8.0, 8.0 * max(math.sqrt(a2), 1.0 / p)
    n_edges = int(math.ceil(math.log(hi / lo) / math.log(4.0))) + 1
    edges = [0.0, *np.geomspace(lo, hi, n_edges), np.inf]
    pieces = list(zip(edges, edges[1:]))
    d = f.dimension
    if d > 1:  # |S^{d-1}| 2/(2 pi)^d = 1/pi^{d-1} for d = 2, 3
        def radial(r):
            return r ** (d - 1) * math.exp(-0.5 * (p * r) ** 2) / (a2 + r * r)

        return f.mass / math.pi ** (d - 1) * sum(_quad(radial, x, y) for x, y in pieces)

    def line(z):
        return fourier_axis(f, z).item() / (a2 + z * z)

    if f.kind != "uniform":
        return (2.0 / math.pi) * f.mass * sum(_quad(line, x, y) for x, y in pieces)
    period = 2.0 * math.pi / p
    head = _quad(line, 0.0, period)
    tail = [period, *[e for e in edges[1:-1] if e > period], np.inf]

    def smooth(z):
        return 2.0 / (p * p * z * z * (a2 + z * z))

    body = head + sum(_quad(smooth, x, y) for x, y in zip(tail, tail[1:]))
    cos_part = sum(
        _quad(smooth, x, y, weight="cos", wvar=p, epsabs=1e-14 * body)
        for x, y in zip(tail, tail[1:])
    )
    return (2.0 / math.pi) * f.mass * (body - cos_part)


def upsilon_by_time_quadrature(f, lam):
    """int_0^inf e^{-lam s} (p_s * f)(0) ds by adaptive quadrature in y = log s.

    The scalar closed form ``smoothed_at`` per node, over pieces of width 2
    from s = 1e-30 up to lam s = 60.  Below s = 1e-30 the integral is at most
    1e-30 (p_0 * f)(0), which must be negligible; above lam s = 60 it is
    under e^{-60} of the rest.
    """
    def integrand(y):
        s = math.exp(y)
        return s * math.exp(-lam * s) * smoothed_at(f, s)

    edges = np.append(np.arange(math.log(1e-30), math.log(60.0 / lam), 2.0), math.log(60.0 / lam))
    total = math.fsum(_quad(integrand, a, b) for a, b in zip(edges, edges[1:]))
    at_zero = f.mass * (f.param / 2.0 if f.kind == "exponential" else 1.0 / f.param) ** f.dimension
    assert 1e-30 * at_zero <= 1e-16 * total
    return total


class TestCovarianceMeasure:
    # f_hat = mass * prod over axes of fourier_axis, one factor in d = 1

    def test_dirac_transform_is_constant(self):
        f = CovarianceMeasure("dirac", 1, 1.0)
        assert f.mass * np.prod(fourier_axis(f, [7.3])) == 1.0

    def test_transform_at_zero_is_total_mass(self):
        for f in ALL_KINDS_1D:
            assert f.mass * np.prod(fourier_axis(f, [0.0])) == pytest.approx(f.mass, abs=0.0)

    def test_gaussian_transform_value(self):
        f = CovarianceMeasure("gaussian", 1, 1.0, 1.0)
        assert f.mass * np.prod(fourier_axis(f, [1.0])) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_transform_even_bounded_nonnegative(self):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=5.0, size=200)
        for f in ALL_KINDS_1D:
            vals = f.mass * np.prod(fourier_axis(f, z[:, None]), axis=-1)
            flipped = f.mass * np.prod(fourier_axis(f, -z[:, None]), axis=-1)
            assert np.allclose(vals, flipped)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= f.mass + 1e-15)

    def test_transform_matches_quadrature_of_density(self):
        # direct quadrature of int e^{ixz} f(x) dx for the density kinds
        zgrid = [0.0, 0.3, 1.0, 2.7, 6.0]
        for f in ALL_KINDS_1D:
            if f.kind == "dirac":
                continue
            for z in zgrid:
                val, _ = integrate.quad(
                    lambda x: float(f.density_axis(np.array([x]))[0]) * math.cos(z * x),
                    -np.inf,
                    np.inf,
                    limit=400,
                )
                assert f.mass * np.prod(fourier_axis(f, [z])) == pytest.approx(
                    f.mass * val, abs=1e-6
                )

    def test_smoothed_axis_matches_quadrature(self):
        for f in ALL_KINDS_1D:
            if f.kind == "dirac":
                continue
            for s, x in [(0.1, 0.0), (0.5, 0.7), (2.0, -1.3)]:
                val, _ = integrate.quad(
                    lambda y: float(f.density_axis(np.array([y]))[0])
                    * heat_kernel(s, y - x),
                    -np.inf,
                    np.inf,
                    limit=400,
                )
                assert smoothed_at(f, s, [x]) == pytest.approx(f.mass * val, rel=1e-8)

    @pytest.mark.parametrize("f", ALL_KINDS_1D + [
        CovarianceMeasure("gaussian", 1, 1.3, 0.7),
        CovarianceMeasure("uniform", 1, 0.8, 1.2),
        CovarianceMeasure("exponential", 1, 1.1, 2.0),
    ], ids=lambda f: f"{f.kind}-{f.param}")
    def test_ramp_matches_quadrature(self, f):
        # R(a) = int (x - a)^+ (p_s * f)(x) dx, the smoothed covariance
        # integrated directly, cut at a and at the kernel's scale
        for s in (0.05, 0.5, 2.0):
            scale = math.sqrt(s + (f.param if f.kind != "dirac" else 0.0) ** 2)
            for a in (-3.0, -0.4, 0.0, 0.9, 2.5):
                edges = sorted({a, *(a + c * scale for c in (1.0, 4.0, 16.0)),
                                *(c * scale for c in (-1.0, 0.0, 1.0, 4.0) if c * scale > a)})
                val = sum(
                    _quad(lambda x: (x - a) * float(smoothed_axis(f, s, np.array([x]))[0]), lo, hi)
                    for lo, hi in zip(edges, [*edges[1:], np.inf])
                )
                got = float(f.ramp_axis(s, np.array([a]))[0])
                assert got == pytest.approx(val, rel=1e-9), (s, a)

    def test_ramp_reflection(self):
        # the law is symmetric and has mean 0: R(a) - R(-a) = -a
        a = np.array([-2.0, -0.3, 0.0, 0.6, 1.7])
        for f in ALL_KINDS_1D:
            for s in (0.05, 0.8, 1e4):
                assert np.allclose(f.ramp_axis(s, a) - f.ramp_axis(s, -a), -a,
                                   rtol=0.0, atol=1e-12)

    def test_uniform_smoothed_axis_matches_mpmath_at_large_s(self):
        # the triangle smoothing of p_s cancels for s >> h^2 unless summed as
        # a series there; 60-digit second difference of E[(G - c)^+] as oracle
        import mpmath as mp

        worst = 0.0
        with mp.workdps(60):
            for h in (0.3, 1.0):
                f = CovarianceMeasure("uniform", 1, 1.0, h)
                for s in (1e-2, 0.5, 8.0, 1e2, 1e4, 1e6, 1e8):
                    sd = math.sqrt(s)
                    for x in (0.0, 0.05 * sd, 0.7 * sd, 2.0 * sd + h):
                        def ramp(c):
                            z = c / mp.sqrt(s)
                            return mp.sqrt(s) * mp.npdf(z) - c * mp.ncdf(-z)

                        xm, hm = mp.mpf(x), mp.mpf(h)
                        ref = (ramp(xm - hm) - 2 * ramp(xm) + ramp(xm + hm)) / hm**2
                        got = float(smoothed_axis(f, s, np.array([x]))[0])
                        worst = max(worst, float(abs(got / ref - 1)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("kind", spectral.KINDS)
    def test_smoothed_origin_matches_smoothed_at(self, kind):
        # the vectorised at-origin forms against the per-axis closed forms
        s = np.geomspace(1e-10, 1e10, 81)
        for d in (1, 2, 3):
            for param in ORACLE_PARAMS:
                f = CovarianceMeasure(kind, d, 1.3, param)
                ref = np.array([smoothed_at(f, v) for v in s])
                np.testing.assert_allclose(f.smoothed_origin(s), ref, rtol=1e-13, atol=0.0)

    def test_config_roundtrip(self):
        # literal config records parse to the measures built in code; the
        # dimension, mass and param default to 1
        cases = [
            ({"kind": "dirac", "dimension": 1, "mass": 1.0, "params": {}}, ALL_KINDS_1D[0]),
            ({"kind": "gaussian", "params": {"param": 1.0}}, ALL_KINDS_1D[1]),
            ({"kind": "uniform"}, ALL_KINDS_1D[2]),
            ({"kind": "exponential", "dimension": 1, "mass": 1, "params": {"param": 1}},
             ALL_KINDS_1D[3]),
            ({"kind": "gaussian", "dimension": 3, "mass": 2.5, "params": {"param": 0.7}},
             CovarianceMeasure("gaussian", 3, 2.5, 0.7)),
        ]
        for record, f in cases:
            assert CovarianceMeasure.from_config(record) == f

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            CovarianceMeasure("triangle", 1, 1.0)
        with pytest.raises(ConfigError):
            CovarianceMeasure("gaussian", 4, 1.0)
        with pytest.raises(ConfigError):
            CovarianceMeasure("gaussian", 1, 0.0)
        with pytest.raises(ConfigError):
            CovarianceMeasure("uniform", 1, 1.0, -2.0)


class TestHeatKernel:
    def test_value_at_origin(self):
        assert heat_kernel(1.0, 0.0) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-14)

    def test_unit_mass(self):
        for d in (1, 2, 3):
            t = 0.7
            xs = np.linspace(-12, 12, 3001)
            dx = xs[1] - xs[0]
            one_axis = np.exp(-(xs**2) / (2 * t)) / math.sqrt(2 * math.pi * t)
            assert np.sum(one_axis) * dx == pytest.approx(1.0, abs=1e-6)
            # product structure makes d-dim mass the d-th power of the 1-d mass
            assert (np.sum(one_axis) * dx) ** d == pytest.approx(1.0, abs=1e-6)


class TestUpsilon:
    def test_dirac_closed_form(self):
        prof = DalangProfile(CovarianceMeasure("dirac", 1, 1.0))
        assert upsilon(prof, 0.5) == pytest.approx(1.0, abs=1e-9)
        assert upsilon(prof, 2.0) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("lam", ORACLE_LAMS)
    def test_matches_closed_forms_d1(self, lam):
        # the d = 1 closed forms against quadrature of the defining integral
        for kind in ("dirac", "exponential", "gaussian", "uniform"):
            for param in ORACLE_PARAMS:
                f = CovarianceMeasure(kind, 1, 1.3, param)
                got = upsilon(DalangProfile(f), lam)
                assert math.isfinite(got)
                assert got == pytest.approx(upsilon_by_quadrature(f, lam), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_radial_gaussian_matches_quadrature(self, d):
        # e^x E1(x) in d = 2 and the erfcx form in d = 3 against the radial integral
        for param in ORACLE_PARAMS:
            f = CovarianceMeasure("gaussian", d, 1.3, param)
            for lam in ORACLE_LAMS:
                got = upsilon(DalangProfile(f), lam)
                assert math.isfinite(got)
                assert got == pytest.approx(upsilon_by_quadrature(f, lam), rel=1e-10, abs=0.0)

    def test_gaussian_d3_matches_mpmath_at_large_lambda(self):
        # 1 - sqrt(pi) y erfcx(y) cancels to 2 y^2 ulps; its continued
        # fraction must hold far out (y = s sqrt(lam) up to 4e6)
        import mpmath as mp

        with mp.workdps(50):
            for param in ORACLE_PARAMS:
                f = CovarianceMeasure("gaussian", 3, 1.3, param)
                for lam in (3.0, 1e2, 1e4, 1e6, 1e8, 1e12):
                    y = mp.mpf(param) * mp.sqrt(lam)
                    shape = 1 - mp.sqrt(mp.pi) * y * mp.erfc(y) * mp.exp(y * y)
                    ref = mp.mpf(1.3) * shape / (mp.pi**1.5 * mp.sqrt(2) * param)
                    got = upsilon(DalangProfile(f), lam)
                    assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0), (param, lam)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(11)
        for f in ALL_KINDS_1D:
            prof = DalangProfile(f)
            lams = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 12)))
            vals = [upsilon(prof, lam) for lam in lams]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_lambda_below_unit_value(self):
        for f in ALL_KINDS_1D:
            prof = DalangProfile(f)
            assert upsilon(prof, 1e6) < upsilon(prof, 1.0)

    def test_d1_upper_envelope(self):
        for f in ALL_KINDS_1D:
            prof = DalangProfile(f)
            for lam in (0.1, 1.0, 10.0):
                assert upsilon(prof, lam) <= f.mass / math.sqrt(2.0 * lam) * (1 + 1e-9)
        # equality for white noise
        prof = DalangProfile(CovarianceMeasure("dirac", 1, 1.0))
        assert upsilon(prof, 3.0) == pytest.approx(prof.measure.mass / math.sqrt(6.0), rel=1e-9)

    def test_dirac_rejected_above_d1(self):
        with pytest.raises(DalangViolation):
            upsilon(DalangProfile(CovarianceMeasure("dirac", 2, 1.0)), 1.0)
        dalang_check(CovarianceMeasure("gaussian", 2, 1.0, 1.0))

    def test_product_kind_d2_brute_force_oracle(self):
        # tensor quadrature of the defining integral over the plane
        f = CovarianceMeasure("exponential", 2, 1.0, 1.0)
        prof = DalangProfile(f)
        lam = 0.7

        def inner(z1):
            v, _ = integrate.quad(
                lambda z2: float(fourier_axis(f, np.array([z1]))[0])
                * float(fourier_axis(f, np.array([z2]))[0])
                / (2 * lam + z1 * z1 + z2 * z2),
                0,
                np.inf,
                limit=200,
            )
            return v

        v, _ = integrate.quad(inner, 0, np.inf, limit=200)
        oracle = (2.0 / (2 * math.pi) ** 2) * 4.0 * f.mass * v
        assert upsilon(prof, lam) == pytest.approx(oracle, rel=1e-7)


class TestTimeDomainRule:
    """The trapezoid rule in log s behind ``upsilon`` for the product kinds in
    d >= 2 and the time side of ``resolvent_identity_check``."""

    @pytest.mark.parametrize("kind", ["exponential", "uniform"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_product_kinds_match_time_quadrature(self, kind, d):
        for param in ORACLE_PARAMS:
            f = CovarianceMeasure(kind, d, 1.3, param)
            for lam in np.geomspace(1e-12, 1e6, 7):
                got = upsilon(DalangProfile(f), float(lam))
                ref = upsilon_by_time_quadrature(f, float(lam))
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (param, lam)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_no_warning_of_any_category(self, d):
        lams = [10.0**e for e in range(-12, 13)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in spectral.KINDS:
                if kind == "dirac" and d > 1:
                    continue
                prof = DalangProfile(CovarianceMeasure(kind, d, 1.3, 0.7))
                for lam in lams:
                    a = upsilon(prof, lam)
                    assert lambda_of(prof, a) == pytest.approx(lam, rel=1e-8, abs=0.0)
                    lhs, rhs = resolvent_identity_check(prof, lam)
                    assert abs(lhs - rhs) < 1e-6 * rhs

    def test_unsettled_sums_raise(self, monkeypatch):
        # a jump at s = 1: the trapezoid sums only settle like h
        monkeypatch.setattr(CovarianceMeasure, "smoothed_origin",
                            lambda self, s: np.where(s < 1.0, 1.0, 0.5))
        prof = DalangProfile(CovarianceMeasure("exponential", 2, 1.0, 1.0))
        with pytest.raises(NonConvergence, match="did not agree"):
            upsilon(prof, 1.0)
        with pytest.raises(NonConvergence):
            resolvent_identity_check(DalangProfile(CovarianceMeasure("gaussian", 1)), 1.0)

    def test_integrand_without_lower_tail_raises(self, monkeypatch):
        # s (p_s * f)(0) = 1 does not fall off as s -> 0
        monkeypatch.setattr(CovarianceMeasure, "smoothed_origin", lambda self, s: 1.0 / s)
        with pytest.raises(NonConvergence, match="does not fall off"):
            upsilon(DalangProfile(CovarianceMeasure("uniform", 3, 1.0, 1.0)), 1.0)


class TestLambdaOf:
    def test_inverse_pair(self):
        for f in ALL_KINDS_1D + [
            CovarianceMeasure("gaussian", 2, 1.3, 0.8),
            CovarianceMeasure("gaussian", 3, 1.3, 0.8),
            CovarianceMeasure("exponential", 2, 1.0, 1.0),
            CovarianceMeasure("uniform", 2, 1.0, 1.0),
        ]:
            prof = DalangProfile(f)
            for lam in (1e-3, 0.1, 3.7, 40.0, 1e3):
                back = lambda_of(prof, upsilon(prof, lam))
                assert abs(back - lam) / lam < 1e-10

    def test_exponential_d1_closed_form_inverse(self):
        # the positive root alpha = sqrt(2 lam) of a alpha^2 + a r alpha - M r = 0
        for mass, r in ((1.0, 1.0), (1.3, 0.3), (0.7, 4.0)):
            prof = DalangProfile(CovarianceMeasure("exponential", 1, mass, r))
            for a in (1e-4, 0.05, 1.0, 30.0, 1e5):
                alpha = math.sqrt(2.0 * lambda_of(prof, a))
                residual = a * alpha * alpha + a * r * alpha - mass * r
                assert abs(residual) <= 1e-14 * mass * r

    def test_upsilon_calls_per_inversion(self, monkeypatch):
        calls = []
        real = spectral.upsilon

        def counting(profile, lam):
            calls.append(lam)
            return real(profile, lam)

        monkeypatch.setattr(spectral, "upsilon", counting)
        for f in ALL_KINDS_1D + [
            CovarianceMeasure("gaussian", 2, 1.3, 0.8),
            CovarianceMeasure("gaussian", 3, 1.3, 0.8),
            CovarianceMeasure("exponential", 2, 1.0, 1.0),
        ]:
            prof = DalangProfile(f)
            for lam in (1e-6, 1e-3, 0.1, 3.7, 40.0, 1e3, 1e6):
                a = real(prof, lam)
                calls.clear()
                lambda_of(prof, a)
                if f.kind == "dirac" or (f.kind == "exponential" and f.dimension == 1):
                    assert calls == []
                else:
                    assert 0 < len(calls) <= 20

    def test_no_integration_warning(self):
        # the bracket grows from lam = 1, so no far-off lam is probed
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            for kind in ("exponential", "uniform"):
                prof = DalangProfile(CovarianceMeasure(kind, 2, 1.0, 1.0))
                for a in (0.01, 0.05, 0.2, 0.5):
                    assert 0.0 < lambda_of(prof, a) < math.inf

    def test_out_of_range_returns(self):
        # upsilon is bounded by M sqrt(pi/2) / (pi^2 s) as lam -> 0 in d = 3
        f = CovarianceMeasure("gaussian", 3, 1.0, 1.0)
        sup = f.mass * math.sqrt(math.pi / 2.0) / (math.pi**2 * f.param)
        assert lambda_of(DalangProfile(f), 1.01 * sup) == 0.0
        assert lambda_of(DalangProfile(CovarianceMeasure("gaussian", 2, 1.0, 1.0)), 1e-16) == math.inf

    @pytest.mark.parametrize("kind", ["gaussian", "exponential", "uniform"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bracket_edges(self, kind, d):
        # upsilon at an edge inverts to that edge; an a strictly beyond it is out of range
        param = 0.7 if kind == "gaussian" else 1.0
        prof = DalangProfile(CovarianceMeasure(kind, d, 1.3, param))
        lo, hi = upsilon(prof, 1e-12), upsilon(prof, 1e12)
        assert lambda_of(prof, lo) == pytest.approx(1e-12, rel=1e-9, abs=0.0)
        assert lambda_of(prof, hi) == pytest.approx(1e12, rel=1e-9)
        beyond = lambda_of(prof, lo * (1 + 1e-6)), lambda_of(prof, hi * (1 - 1e-6))
        if kind == "exponential" and d == 1:  # closed form, no bracket: the exact inverse
            assert 0.0 < beyond[0] < 1e-12 and 1e12 < beyond[1] < math.inf
        else:
            assert beyond == (0.0, math.inf)

    def test_dirac_values(self):
        prof = DalangProfile(CovarianceMeasure("dirac", 1, 1.0))
        assert lambda_of(prof, 1.0) == pytest.approx(0.5, rel=1e-8)
        assert lambda_of(prof, 0.5) == pytest.approx(2.0, rel=1e-8)

    def test_rejects_nonpositive(self):
        prof = DalangProfile(CovarianceMeasure("dirac", 1, 1.0))
        with pytest.raises(ConfigError):
            lambda_of(prof, 0.0)


class TestResolventIdentity:
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_all_kinds_d1(self, lam):
        for f in ALL_KINDS_1D:
            prof = DalangProfile(f)
            lhs, rhs = resolvent_identity_check(prof, lam)
            assert abs(lhs - rhs) < 1e-6 * rhs

    def test_dirac_unit_example(self):
        prof = DalangProfile(CovarianceMeasure("dirac", 1, 1.0))
        lhs, rhs = resolvent_identity_check(prof, 0.5)
        assert lhs == pytest.approx(1.0, abs=1e-6)
        assert rhs == pytest.approx(1.0, abs=1e-6)


class TestMomentConstants:
    def test_reference_values(self):
        f = CovarianceMeasure("dirac", 1, 1.0)
        big, small = moment_constants(0.5, 1.0, 1.0, f)
        assert big == pytest.approx(16.0 / 0.5**1.5, rel=1e-12)  # 45.2548...
        assert small == pytest.approx(0.25 / 2**3.5, rel=1e-12)  # 0.0220971...

    def test_small_constant_vanishes_at_eps_one(self):
        f = CovarianceMeasure("dirac", 1, 1.0)
        _, small = moment_constants(1 - 1e-9, 1.0, 1.0, f)
        assert small < 1e-15

    def test_eps_domain(self):
        f = CovarianceMeasure("dirac", 1, 1.0)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                moment_constants(bad, 1.0, 1.0, f)


class TestMomentBound:
    def setup_method(self):
        self.prof = DalangProfile(CovarianceMeasure("dirac", 1, 1.0))

    def test_zero_for_constant_observable(self):
        p = MomentBoundParams(0.5, 2, 1, 1, 1.0, 1.0, 0.0, 1.0)
        assert log_moment_bound(p, self.prof) == -math.inf

    def test_doubling_n_scaling(self):
        p1 = MomentBoundParams(0.5, 2, 1, 1, 1.0, 1.0, 1.0, 1.0)
        p2 = MomentBoundParams(0.5, 2, 2, 1, 1.0, 1.0, 1.0, 1.0)
        diff = log_moment_bound(p1, self.prof) - log_moment_bound(p2, self.prof)
        assert diff == pytest.approx(0.5 * math.log(2.0), rel=1e-9)

    def test_white_noise_benchmark_log_value(self):
        # chain of closed forms: Lambda(a(1/2)/2) = 1/(2 (a/2)^2) for dirac
        p = MomentBoundParams(0.5, 2, 1, 1, 1.0, 1.0, 1.0, 1.0)
        big, small = moment_constants(0.5, 1.0, 1.0, self.prof.measure)
        lam_exact = 1.0 / (2.0 * (small / 2.0) ** 2)
        expected = math.log(big) + 0.5 * math.log(2.0) + 2.0 * lam_exact
        got = log_moment_bound(p, self.prof)
        assert got == pytest.approx(expected, rel=1e-7)
        # the bound itself overflows a double (documented loose bound); its log stays finite
        assert math.log(sys.float_info.max) < got < math.inf


class TestTailBound:
    def setup_method(self):
        self.prof = DalangProfile(CovarianceMeasure("dirac", 1, 1.0))

    def test_vacuous_below_threshold(self):
        assert tail_bound(0.5, 0.5, 0.5, 1.0, 1.0, self.prof) == 1.0
        assert tail_bound(1.0, 0.5, 0.5, 1.0, 1.0, self.prof) == 1.0

    def test_reference_value(self):
        # ell/B = e^4: exp{-a(1/2) * (1/2) * 4 / (2 upsilon(1))}, upsilon(1) = 2^{-1/2}
        _, small = moment_constants(0.5, 1.0, 1.0, self.prof.measure)
        expected = math.exp(-small * 0.5 * 4.0 / (2.0 / math.sqrt(2.0)))
        got = tail_bound(math.exp(4.0), 0.5, 0.5, 1.0, 1.0, self.prof)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.9692, abs=5e-4)

    def test_non_increasing_in_ell(self):
        ells = np.exp(np.linspace(0.1, 12.0, 40))
        vals = [tail_bound(le, 0.5, 0.5, 1.0, 1.0, self.prof) for le in ells]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestTimeIntegratedCov:
    def test_dirac_closed_form(self):
        f = CovarianceMeasure("dirac", 1, 1.0)
        assert time_integrated_cov(f, 1.0) == pytest.approx(
            math.sqrt(1.0 / math.pi), rel=1e-8
        )
        assert time_integrated_cov(f, 0.25) == pytest.approx(
            math.sqrt(0.25 / math.pi), rel=1e-8
        )

    def test_total_integral_is_t_times_mass(self):
        # int over x of int_0^t (p_2s * f)(x) ds = t f(R); grid quadrature in x
        f = CovarianceMeasure("gaussian", 1, 2.0, 0.5)
        xs = np.linspace(-14, 14, 561)
        vals = np.array([time_integrated_cov(f, 0.8, [x]) for x in xs])
        assert np.trapezoid(vals, xs) == pytest.approx(0.8 * f.mass, rel=1e-4)

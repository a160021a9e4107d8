import heapq
import math

import mpmath
import numpy as np
import pytest

from liebeq import quadrature
from liebeq.quadrature import QuadratureSpec, integrate
from liebeq.radial_riesz import (RadialProfile, ScreenRejected, _kernel_from_distance,
                                 _ladder_plan, angular_kernel, riesz_potential_radial)
from liebeq.solutions import lieb_solution, singular_solution, verify_solution
from liebeq.specfun import (Params, beta, lieb_constant_C, lieb_constant_L,
                            riesz_power_constant, sphere_surface_area)


class TestRadialProfile:
    def test_power_values(self):
        f = RadialProfile.power_singular(2.0, 0.75)
        r = np.array([0.5, 1.0, 2.0])
        assert np.allclose(f.value(r), 2.0 * r ** -0.75)
        assert f.value(2.0) / f.value(1.0) == pytest.approx(2.0 ** -0.75, rel=1e-14)

    def test_lieb_values(self):
        f = RadialProfile.lieb(3.0, 1.5)
        assert f.value(0.0) == 3.0
        assert f.value(2.0) == pytest.approx(3.0 * 5.0 ** -1.5, rel=1e-14)

    def test_pow_closure(self):
        f = RadialProfile.lieb(2.0, 0.75)
        g = f.pow(1.0 / 3.0)
        assert g.kind == f.kind
        assert g.value(1.3) == pytest.approx(f.value(1.3) ** (1.0 / 3.0), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialProfile.power_singular(-1.0, 0.5)
        with pytest.raises(ValueError):
            RadialProfile("nope")

    def test_exponent_bookkeeping(self):
        f = RadialProfile.power_singular(1.0, 0.75)
        assert f.exponent_at_zero() == -0.75
        assert f.exponent_at_infinity() == -0.75
        g = RadialProfile.lieb(1.0, 0.75)
        assert g.exponent_at_zero() == 0.0
        assert g.exponent_at_infinity() == -1.5
        # D^k: a power loses one power per derivative at both ends; a Lieb
        # profile is smooth and even at 0, so its odd derivatives vanish like
        # r there, and it loses one power per derivative at infinity
        for k in (1, 2, 3):
            assert f.exponent_at_zero(k) == -0.75 - k
            assert f.exponent_at_infinity(k) == -0.75 - k
            assert g.exponent_at_zero(k) == k % 2
            assert g.exponent_at_infinity(k) == -1.5 - k
        # a power that vanishes at 0 turns singular there after enough derivatives
        h = RadialProfile.power_singular(1.0, -0.5)
        assert [h.exponent_at_zero(k) for k in range(4)] == [0.5, -0.5, -1.5, -2.5]
        assert [h.exponent_at_infinity(k) for k in range(4)] == [0.5, -0.5, -1.5, -2.5]

    def test_power_derivative(self):
        f = RadialProfile.power_singular(2.0, 0.75)
        x = 1.3
        assert f.derivative_1d(x, 1) == pytest.approx(-0.75 * 2.0 * x ** -1.75, rel=1e-13)
        # even extension: odd derivatives flip sign
        assert f.derivative_1d(-x, 1) == pytest.approx(-f.derivative_1d(x, 1), rel=1e-13)
        assert f.derivative_1d(-x, 2) == pytest.approx(f.derivative_1d(x, 2), rel=1e-13)

    @pytest.mark.parametrize("kind", ["power_singular", "lieb"])
    def test_derivative_mirror_parity_is_bitwise(self, kind):
        # D^k f(-x) = (-1)^k D^k f(x) with no rounding difference: identity
        # pair integrals take the negative half-line from the positive one
        x = np.random.default_rng(3).uniform(1e-3, 1e3, 100_000)
        for m in (0.3, 0.75, 1.9):
            f = RadialProfile(kind, amplitude=1.0, exponent=m)
            for k in range(7):
                assert np.array_equal(f.derivative_1d(-x, k),
                                      (-1.0) ** k * f.derivative_1d(x, k)), (m, k)

    def test_lieb_derivative_matches_finite_difference(self):
        f = RadialProfile.lieb(1.7, 0.75)
        x = 0.6
        for k, h in ((1, 1e-5), (2, 1e-4), (3, 1e-3)):
            stencil = [float(f.value(abs(x + j * h))) for j in range(-3, 4)]
            if k == 1:
                fd = (stencil[4] - stencil[2]) / (2 * h)
            elif k == 2:
                fd = (stencil[4] - 2 * stencil[3] + stencil[2]) / h ** 2
            else:
                fd = (stencil[5] - 2 * stencil[4] + 2 * stencil[2] - stencil[1]) / (2 * h ** 3)
            assert f.derivative_1d(x, k) == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("kind", ["power_singular", "lieb"])
    def test_derivative_matches_mpmath_within_the_ladder_scale(self, kind):
        # D^k f = sum_j k!/(j!(k-2j)!2^j) x^(k-2j) (d/dt)^(k-j) f with t = x^2/2
        # alternates near the zeros of D^k f, so its rounding is bounded by the
        # magnitudes of its terms, summed here at 32 digits, not by |D^k f|
        x = np.geomspace(1e-3, 1e3, 13)
        with mpmath.workdps(32):
            for m in (0.3, 0.75, 1.9, 2.5):
                f = RadialProfile(kind, amplitude=1.3, exponent=m)
                c, e = (0, mpmath.mpf(m) / 2) if kind == "power_singular" else (1, mpmath.mpf(m))
                closed = lambda t: mpmath.mpf(1.3) * (c + t * t) ** -e
                rung = lambda t, i: (mpmath.mpf(1.3) * (-2) ** i * mpmath.rf(e, i)
                                     * (c + t * t) ** (-e - i))
                for k in range(7):
                    for xi, got in zip(x, f.derivative_1d(x, k)):
                        t = mpmath.mpf(xi)
                        scale = sum(abs(mpmath.factorial(k) * t ** (k - 2 * j) * rung(t, k - j)
                                        / (mpmath.factorial(j) * mpmath.factorial(k - 2 * j)
                                           * 2 ** j))
                                    for j in range(k // 2 + 1))
                        error = abs(got - mpmath.diff(closed, t, k))
                        assert error <= 1e-14 * scale, (m, k, xi)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_vanishing_power_derivatives_at_the_origin(self):
        # only the ladder term without a power of x is left at 0: the others
        # are 0 * inf there, and D^2 |x|^2 is 2, not 0
        assert RadialProfile.power_singular(1.0, -1.5).derivative_1d(0.0, 1) == 0.0
        assert RadialProfile.power_singular(1.0, -2.0).derivative_1d(0.0, 2) == 2.0
        assert RadialProfile.power_singular(1.0, -3.0).derivative_1d(0.0, 2) == 0.0
        square = RadialProfile.power_singular(1.0, -2.0)
        assert square.partial(np.zeros(3), (2, 0, 0)) == 2.0
        assert square.partial(np.zeros(3), (1, 1, 0)) == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("kind", ["power_singular", "lieb"])
    def test_partial_is_pointwise(self, kind):
        # a batch of 44 points, r = 0 among them, gives each point the bits it
        # gets in a batch of its own (a 0-d point takes numpy's scalar power,
        # which may round differently); exponent -8 is a power profile that
        # stays finite at 0 up to order 8
        rng = np.random.default_rng(11)
        cases = [(1, (k,)) for k in range(7)] + [(2, (1, 1)), (2, (2, 0)), (2, (3, 1))]
        for m in (0.75, 1.9, -8.0):
            f = RadialProfile(kind, amplitude=1.3, exponent=m)
            for n, index in cases:
                x = rng.uniform(-3.0, 3.0, (44, n))
                x[5] = 0.0
                alone = np.concatenate([f.partial(x[i:i + 1], index) for i in range(44)])
                assert np.array_equal(f.partial(x, index), alone, equal_nan=True), (m, index)

    @pytest.mark.parametrize("kind", ["power_singular", "lieb"])
    def test_a_point_gets_its_bits_in_a_batch(self, kind):
        # a 0-d radius or a single point is a one-element batch: numpy's
        # scalar power, which may round differently, is never taken
        f = RadialProfile(kind, amplitude=1.3, exponent=0.75)
        r = np.random.default_rng(7).uniform(0.0, 3.0, 1000)
        r[0] = 0.0 if kind == "lieb" else r[0]
        assert [f.value(float(ri)) for ri in r] == list(f.value(r))
        for k in range(5):
            assert [f.derivative_1d(float(ri), k) for ri in r] == list(f.derivative_1d(r, k))
        x = r[:300].reshape(100, 3)
        for index in [(0, 0, 0), (1, 0, 2), (2, 1, 1), (4, 0, 0)]:
            assert [f.partial(xi, index) for xi in x] == list(f.partial(x, index))

    def test_ladder_is_shared_across_amplitudes(self):
        # the rungs depend on the kind, the exponent and the index only
        x = np.array([[0.3, 0.7], [1.5, -2.0]])
        RadialProfile.lieb(1.3, 0.6180339).partial(x, (2, 1))
        misses = _ladder_plan.cache_info().misses
        RadialProfile.lieb(2.9, 0.6180339).partial(x, (2, 1))
        assert _ladder_plan.cache_info().misses == misses
        RadialProfile.lieb(1.3, 0.6180340).partial(x, (2, 1))
        RadialProfile.power_singular(1.3, 0.6180339).partial(x, (2, 1))
        assert _ladder_plan.cache_info().misses == misses + 2
        assert _ladder_plan("lieb", 0.6180339, (2, 1)) != _ladder_plan("lieb", 0.6180340, (2, 1))

    @pytest.mark.parametrize("amplitude,exponent", [(math.inf, 0.5), (math.nan, 0.5),
                                                    (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_parameters_rejected(self, amplitude, exponent):
        for kind in ("power_singular", "lieb"):
            with pytest.raises(ValueError, match="finite"):
                RadialProfile(kind, amplitude=amplitude, exponent=exponent)


def _mp_angular_kernel(n, lam, r, s):
    """|S^(n-2)| times the 30-digit theta-integral over [0, pi] of
    (d^2 + 4rs sin(t/2)^2)^(-lam/2) sin(t)^(n-2), d = s - r exactly, broken
    at decades of the peak width d/sqrt(rs)."""
    with mpmath.workdps(30):
        rm, sm = mpmath.mpf(r), mpmath.mpf(s)
        d2, c, e = (sm - rm) ** 2, 4 * rm * sm, -mpmath.mpf(lam) / 2
        w = mpmath.sqrt(d2 / (rm * sm))
        pts = [0] + [w * 10 ** k for k in range(40) if w * 10 ** k < mpmath.pi] + [mpmath.pi]
        theta = mpmath.quad(
            lambda t: (d2 + c * mpmath.sin(t / 2) ** 2) ** e * mpmath.sin(t) ** (n - 2), pts)
        half = mpmath.mpf(n - 1) / 2
        return 2 * mpmath.pi ** half / mpmath.gamma(half) * theta


def _mp_hyp2f1_kernel(n, lam, r, s):
    """|S^(n-1)| (r+s)^(-lam) 2F1(lam/2, (n-1)/2; n-1; 1 - w) at 60 digits,
    with w = ((s-r)/(s+r))^2 exact, so 1 - w keeps its digits at s/r - 1 = 1e-12."""
    with mpmath.workdps(60):
        rm, sm, lm = mpmath.mpf(r), mpmath.mpf(s), mpmath.mpf(lam)
        area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        w = ((sm - rm) / (sm + rm)) ** 2
        return area * (rm + sm) ** -lm * mpmath.hyp2f1(lm / 2, mpmath.mpf(n - 1) / 2, n - 1, 1 - w)


class TestAngularKernel:
    def test_one_dimensional_exact(self):
        assert angular_kernel(1, 0.5, 2.0, 1.0) == \
            pytest.approx(1.0 + 3.0 ** -0.5, rel=1e-14)

    @pytest.mark.parametrize("r,s", [(2.0, 1.0), (1.0, 2.0), (0.3, 0.7)])
    def test_newton_shell(self, r, s):
        assert angular_kernel(3, 1.0, r, s) == \
            pytest.approx(4.0 * math.pi / max(r, s), rel=1e-13)

    @pytest.mark.parametrize("r,s", [(1.0, 0.7), (1.0, 0.999), (2.0, 2.0001),
                                     (0.1, 3.0)])
    def test_closed_form_vs_angular_quadrature(self, r, s):
        lam = 1.3
        generic = _mp_angular_kernel(3, lam, r, s)
        assert abs(angular_kernel(3, lam, r, s) - generic) <= 1e-13 * generic

    def test_log_branch_vs_quadrature(self):
        # lam = 2 in n = 3 is the log case (n-1-lam)/2 = 0 of the series kernel
        generic = _mp_angular_kernel(3, 2.0, 1.0, 0.6)
        assert abs(angular_kernel(3, 2.0, 1.0, 0.6) - generic) <= 1e-13 * generic

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_near_integer_delta_vs_hyp2f1(self, n):
        # delta = (n-1-lam)/2 an integer is the log case of A&S 15.3.6; the
        # kernel takes one rule on it and next to it
        r = 0.37
        gaps = [1e-12, 1e-9, 1e-6, 1e-3, 0.1, math.sqrt(2.0), 3.0, 1e2, 1e5, 1e9]
        s = np.array([r * (1.0 + g) for g in gaps] + [r / (1.0 + g) for g in gaps])
        for centre in range(n - 1, 0, -2):
            for lam in [centre + o for o in (0.0, 1e-12, -1e-12, 1e-7, -1e-7, 1e-4, -1e-4)]:
                got = _kernel_from_distance(n, lam, r, s, np.abs(s - r))
                for si, value in zip(s, got):
                    ref = _mp_hyp2f1_kernel(n, lam, r, si)
                    assert abs(value - ref) <= 1e-13 * ref, (lam, si / r)

    @pytest.mark.parametrize("n", [8, 12, 20, 30])
    def test_higher_dimensions_vs_hyp2f1(self, n):
        # the series in (d/(r+s))^2 loses digits as n grows: the switch moves
        # toward the diagonal, so the kernel keeps its accuracy
        r = 0.37
        s = np.array([r * q for q in (1 + 1e-12, 1 + 1e-6, 1.2, 1.5, 1.9, 2.4, 2.5, 4.0,
                                      1e5, 0.9, 0.7, 0.6, 0.41, 0.42, 1e-3)])
        for lam in (0.05 * n, 0.5 * n, n - 1.0, 0.97 * n):
            got = _kernel_from_distance(n, lam, r, s, np.abs(s - r))
            for si, value in zip(s, got):
                ref = _mp_hyp2f1_kernel(n, lam, r, si)
                assert abs(value - ref) <= 1e-13 * ref, (lam, si / r)

    @pytest.mark.parametrize("n", [150, 200])
    def test_dimension_the_series_cannot_serve_is_refused(self, n):
        # large coefficients overflow or cancel there; no silent garbage
        with pytest.raises(ValueError, match="lose digits in dimension"):
            angular_kernel(n, 0.5 * n, 1.0, 2.0)

    def test_kernel_is_pointwise(self):
        # a value does not depend on the rest of its batch, bit for bit
        r = 1.0
        s = np.random.default_rng(5).uniform(1e-3, 30.0, 44)
        for n, lam in ((2, 1.0), (4, 2.3), (5, 4.5)):
            whole = _kernel_from_distance(n, lam, r, s, np.abs(s - r))
            for size in (1, 7, 22):
                parts = [_kernel_from_distance(n, lam, r, s[i:i + size], np.abs(s[i:i + size] - r))
                         for i in range(3, s.size, size)]
                assert np.array_equal(np.concatenate(parts), whole[3:]), (n, lam, size)

    @pytest.mark.parametrize("lam", [0.5, 1.3, 2.0, 2.9])
    def test_three_dimensional_far_from_diagonal_vs_mpmath(self, lam):
        # (r+s)/|r-s| is near 1 when s << r or s >> r; the closed form must
        # not lose digits there
        r = 0.37
        for ratio in (1e-9, 1e-4, 0.3, 3.0, 1e4, 1e9):
            s = r * ratio
            with mpmath.workdps(30):
                rm, sm, lm = mpmath.mpf(r), mpmath.mpf(s), mpmath.mpf(lam)
                if lam == 2.0:
                    ref = 2 * mpmath.pi * mpmath.log((rm + sm) / abs(rm - sm)) / (rm * sm)
                else:
                    ref = (2 * mpmath.pi * ((rm + sm) ** (2 - lm) - abs(rm - sm) ** (2 - lm))
                           / ((2 - lm) * rm * sm))
            assert abs(angular_kernel(3, lam, r, s) - ref) <= 1e-13 * ref, ratio

    def test_two_dimensional_vs_adaptive(self):
        # independent route: adaptive quadrature of the angular integrand
        lam, r, s = 0.8, 1.0, 0.75
        integrand = lambda t: (r * r + s * s - 2 * r * s * np.cos(t)) ** (-lam / 2)
        ref = 2.0 * integrate(integrand, 0.0, math.pi).value
        assert angular_kernel(2, lam, r, s) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_no_closed_form_vs_mpmath(self, n):
        # lam = 0.9n has a singular diagonal; s/r - 1 reaches down to 1e-12
        r = 0.37
        for lam in sorted({0.5 * n, 0.9 * n, 1.0}):
            for delta in (1e-12, 1e-6, 0.1, -0.5, 3.0):
                s = r * (1.0 + delta)
                ref = _mp_angular_kernel(n, lam, r, s)
                assert abs(angular_kernel(n, lam, r, s) - ref) <= 1e-13 * ref, (lam, delta)

    def test_origin_formula(self):
        s = np.array([0.5, 2.0])
        out = angular_kernel(3, 1.2, 0.0, s)
        assert np.allclose(out, 4 * math.pi * s ** -1.2, rtol=1e-13)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            angular_kernel(3, 1.0, 1.0, 1.0)

    def test_gauss_rule_built_once(self, monkeypatch):
        params = Params(2, 1.0)
        f = lieb_solution(params)
        verify_solution(f, params, [0.5, 1.0, 2.0])
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda order: calls.append(order) or leggauss(order))
        verify_solution(f, params, [0.5, 1.0, 2.0])
        assert calls == []


class TestRieszPotential:
    def test_singular_solution_residual(self, p_half):
        f = singular_solution(p_half)
        c_pm1 = lieb_constant_C(p_half) ** p_half.pm1
        for r in (0.5, 1.0, 2.0):
            val = riesz_potential_radial(f, p_half, r).value
            assert val == pytest.approx(c_pm1 * r ** (-p_half.lam / 2), rel=1e-6)

    def test_dilation_homogeneity(self, p_half):
        f = RadialProfile.power_singular(1.0, p_half.solution_exponent)
        v1 = riesz_potential_radial(f, p_half, 1.0).value
        v2 = riesz_potential_radial(f, p_half, 2.0).value
        assert v2 / v1 == pytest.approx(2.0 ** (-p_half.lam / 2), rel=1e-9)

    @pytest.mark.parametrize("n,lam", [(1, 0.5), (2, 1.0), (3, 1.5), (5, 2.5)])
    def test_amplitude_factors_out_exactly(self, n, lam):
        # T(Af) = A Tf, and scaling by 2^k is exact in binary floating point,
        # so value and error scale bitwise
        p = Params(n, lam)
        for base, radii in ((singular_solution(p), (2.0,)),
                            (lieb_solution(p), (0.0, 2.0))):
            for r in radii:
                value, err = riesz_potential_radial(base, p, r)
                for k in (-100, -50, 0, 50, 100):
                    scaled = RadialProfile(base.kind, math.ldexp(base.amplitude, k),
                                           base.exponent)
                    v, e = riesz_potential_radial(scaled, p, r)
                    assert (v, e) == (math.ldexp(value, k), math.ldexp(err, k))

    def test_lieb_at_origin_beta_form(self):
        p = Params(3, 1.0)
        f = lieb_solution(p)
        expected = (sphere_surface_area(3) * 0.5 * beta(1.0, 1.5)
                    * lieb_constant_L(p))
        assert riesz_potential_radial(f, p, 0.0).value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("n,lam,mu", [(1, 0.5, 0.75), (2, 1.2, 1.5),
                                          (3, 1.0, 2.5)])
    def test_power_profile_matches_composition_constant(self, n, lam, mu):
        p = Params(n, lam)
        f = RadialProfile.power_singular(1.0, mu)
        k = riesz_power_constant(n, lam, mu)
        for r in (0.5, 1.0, 2.0):
            val = riesz_potential_radial(f, p, r).value
            assert val == pytest.approx(k * r ** (n - lam - mu), rel=1e-6)

    def test_positivity(self, p_half):
        f = lieb_solution(p_half)
        for r in (0.0, 0.3, 1.0, 4.0):
            assert riesz_potential_radial(f, p_half, r).value > 0.0

    def test_self_adjointness(self):
        # int g (T h) = int h (T g) for radial g, h in dimension 3
        p = Params(3, 1.5)
        g = RadialProfile.lieb(1.0, 2.0)
        h = RadialProfile.lieb(0.7, 2.5)
        area = sphere_surface_area(3)

        def pair(a, b):
            integrand = lambda r: (a.value(r) * r ** 2
                                   * np.array([riesz_potential_radial(b, p, ri).value
                                               for ri in np.atleast_1d(r)]))
            return area * integrate(integrand, 0.0, math.inf,
                                    QuadratureSpec(rel_tol=1e-7,
                                                   singularities=((math.inf, -2.5),))).value

        assert pair(g, h) == pytest.approx(pair(h, g), rel=1e-7)

    @pytest.mark.parametrize("r", [math.inf, math.nan, -1.0])
    def test_radius_must_be_nonnegative_and_finite(self, p_half, r):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            riesz_potential_radial(lieb_solution(p_half), p_half, r)

    def test_screen_rejects_potential_at_singular_origin(self, p_half):
        f = singular_solution(p_half)
        with pytest.raises(ScreenRejected) as err:
            riesz_potential_radial(f, p_half, 0.0)
        assert err.value.location == 0.0

    def test_screen_rejects_fat_tail(self, p_half):
        # s^(-e) |1-s|^(-1/2) decays like s^(-e-1/2), too slowly for e <= 1/2
        for exponent in (0.1, 0.0):
            g = RadialProfile.power_singular(1.0, exponent)
            with pytest.raises(ScreenRejected) as err:
                riesz_potential_radial(g, p_half, 1.0)
            assert math.isinf(err.value.location)

    def test_with_error_is_conservative(self, p_half):
        f = singular_solution(p_half)
        val, err = riesz_potential_radial(f, p_half, 1.0)
        exact = lieb_constant_C(p_half) ** p_half.pm1
        assert abs(val - exact) <= max(err * 50, 1e-9)

    # the kernel varies on the scale r: a first panel of the outer piece much
    # wider than r can have 15- and 7-point rules that agree on a short bar
    @pytest.mark.parametrize("lam,r,rel_tol", [(1.21062607097883, 0.011930997240455323, 1e-8),
                                               (1.374, 0.0185, 1e-6)])
    def test_small_radius_error_within_bar(self, lam, r, rel_tol):
        p = Params(3, lam)
        f = lieb_solution(p)
        value, err = riesz_potential_radial(f, p, r, QuadratureSpec(rel_tol=rel_tol))
        exact = float(f.value(r)) ** p.pm1
        assert abs(value - exact) <= err + 8 * math.ulp(exact)

    # the origin and the folded tail carry exponents lam/2 above -1: a
    # rounding in their declared exponents costs about eps / (lam/2) of the
    # value, which the 15- and 7-point rules share
    @pytest.mark.parametrize("frac", [1e-5, 3e-5, 1e-4, 3e-4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exponent_near_minus_one_error_within_bar(self, n, frac):
        p = Params(n, frac * n)
        f = singular_solution(p)
        for r in (0.5, 2.0):
            value, err = riesz_potential_radial(f, p, r, QuadratureSpec(rel_tol=1e-9))
            exact = float(f.value(r)) ** p.pm1
            assert abs(value - exact) <= err + 8 * math.ulp(exact), r

    @pytest.mark.parametrize("r", [0.0, 0.2, 1.0, 7.5])
    @pytest.mark.parametrize("n", [1, 3])
    def test_one_integrate_run_per_radius(self, monkeypatch, n, r):
        # r > 0: the inner piece, the folded band and the outer piece are one
        # run over v in [-r/2, inf), with the origin and the diagonal at v = 0
        p = Params(n, 0.4 * n)
        runs = []
        integrate_once = quadrature.integrate

        def counted(f, a, b, spec):
            runs.append((a, b, spec.singularities))
            return integrate_once(f, a, b, spec)

        monkeypatch.setattr(quadrature, "integrate", counted)
        value, err = riesz_potential_radial(lieb_solution(p), p, r)
        assert len(runs) == 1
        a, b, singularities = runs[0]
        origin = lieb_solution(p).exponent_at_zero() + n - 1
        if r == 0.0:
            assert (a, b) == (0.0, math.inf) and singularities[0] == (0.0, origin - p.lam)
        else:
            assert (a, b) == (-0.5 * r, math.inf)
            assert singularities[:2] == ((0.0, (origin, min(0.0, n - 1 - p.lam))),
                                         (0.5 * r, 0.0))
        exact = float(lieb_solution(p).value(r)) ** p.pm1
        assert abs(value - exact) <= err + 8 * math.ulp(exact)

    def test_singular_potential_takes_four_integrand_calls(self, monkeypatch):
        # a work counter: the panel at the diagonal v = 0 takes its geometric
        # mesh in one round, not one round per level (11 calls before)
        p = Params(1, 0.5)
        calls = []
        integrate_once = quadrature.integrate
        monkeypatch.setattr(quadrature, "integrate", lambda f, a, b, spec: integrate_once(
            lambda v: calls.append(v.size) or f(v), a, b, spec))
        value, err = riesz_potential_radial(singular_solution(p), p, 1.0)
        assert len(calls) <= 4
        exact = float(singular_solution(p).value(1.0)) ** p.pm1
        assert abs(value - exact) <= err + 8 * math.ulp(exact)

    def test_heap_keys_are_distinct_without_a_tie_break(self, monkeypatch):
        # the three pieces share one heap keyed (-error, folded, a): the live
        # keys stay distinct, so no two panels are compared and the run is
        # deterministic
        p = Params(3, 1.5)
        f = singular_solution(p)
        first = riesz_potential_radial(f, p, 1.3)
        pushed = []

        def push(heap, entry):
            pushed.append(entry)
            heapq.heappush(heap, entry)
            assert len({key[1:3] for key in heap}) == len(heap)

        class Recording:
            heapify, heappop, heappush = heapq.heapify, heapq.heappop, staticmethod(push)

        monkeypatch.setattr(quadrature, "heapq", Recording)
        assert riesz_potential_radial(f, p, 1.3) == first
        assert pushed and all(len(entry) == 4 for entry in pushed)
        assert all(entry[:3] == (-entry[3].error, entry[3].folded, entry[3].a)
                   for entry in pushed)

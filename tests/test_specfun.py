import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebeq.quadrature import QuadratureSpec, integrate
from liebeq.specfun import (Params, beta, ft_riesz_coefficient, lieb_constant_C,
                            lieb_constant_L, log_gamma, riesz_power_constant,
                            sphere_surface_area)

# 40-digit reference values for awkward arguments
LGAMMA_ORACLE = {
    0.05: 2.968879201051730825355,
    0.123456: 2.032448765932204386351,
    2.5: 0.2846828704729191596325,
    17.25: 31.37462231367768648001,
    50.0: 144.5657439463448860089,
}


class TestParams:
    def test_derived_exponents(self):
        p = Params(3, 1.5)
        assert p.p == pytest.approx(6.0 / 4.5, rel=1e-15)
        assert p.pm1 == pytest.approx(1.5 / 4.5, rel=1e-15)
        assert abs((p.p - 1.0) - p.pm1) < 1e-15

    def test_validation(self):
        for n, lam in [(0, 0.5), (-1, 0.5), (2, 0.0), (2, 2.0), (2, -0.5),
                       (1, float("nan"))]:
            with pytest.raises(ValueError):
                Params(n, lam)
        with pytest.raises(ValueError):
            Params(1.5, 0.5)

    @given(n=st.integers(1, 6), frac=st.floats(0.01, 0.99))
    def test_pm1_in_unit_interval(self, n, frac):
        p = Params(n, frac * n)
        assert 0.0 < p.pm1 < 1.0
        assert abs((p.p - 1.0) - p.pm1) <= 4e-16 * p.p
        assert p.solution_exponent == pytest.approx(n - p.lam / 2, rel=1e-15)


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(0.5723649429247000870717, rel=1e-14)
        assert log_gamma(5.0) == pytest.approx(3.178053830347945619647, rel=1e-14)

    @pytest.mark.parametrize("x", sorted(LGAMMA_ORACLE))
    def test_high_precision_reference(self, x):
        assert log_gamma(x) == pytest.approx(LGAMMA_ORACLE[x], rel=1e-13)

    def test_domain(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                log_gamma(bad)

    @given(st.floats(0.1, 30.0))
    @settings(max_examples=200)
    def test_recurrence(self, x):
        lhs = math.exp(log_gamma(x + 1.0))
        rhs = x * math.exp(log_gamma(x))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestFtRieszCoefficient:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_self_reciprocal(self, n):
        assert abs(ft_riesz_coefficient(n, n / 2.0) - 1.0) <= 1e-14

    def test_half_integer_case(self):
        assert ft_riesz_coefficient(3, 2.0) == pytest.approx(math.pi, rel=1e-14)

    def test_frozen_oracle(self):
        assert ft_riesz_coefficient(1, 0.25) == \
            pytest.approx(0.2363298342959653874276, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_duality(self, n):
        for nu in np.linspace(0.05, 0.95, 10) * n:
            prod = ft_riesz_coefficient(n, nu) * ft_riesz_coefficient(n, n - nu)
            assert prod == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ft_riesz_coefficient(2, 0.0)
        with pytest.raises(ValueError):
            ft_riesz_coefficient(2, 2.0)


class TestRieszPowerConstant:
    def test_symmetry_bitwise(self):
        assert riesz_power_constant(2, 0.7, 1.5) == riesz_power_constant(2, 1.5, 0.7)

    def test_frozen_oracle(self):
        # sqrt(pi) (Gamma(1/8)/Gamma(3/8))^2, the Gamma(1/4) factors cancel
        assert riesz_power_constant(1, 0.75, 0.75) == \
            pytest.approx(17.904528926373967, rel=1e-13)

    def test_special_mu_matches_braced_factor(self):
        # at mu = n - lam/2 the constant is
        # pi^(n/2) G(n/2-lam/2) G(lam/4)^2 / (G(lam/2) G(n/2-lam/4)^2)
        for n, lam in [(1, 0.5), (3, 1.0), (4, 2.0)]:
            lg = math.lgamma
            expected = math.exp(0.5 * n * math.log(math.pi)
                                + lg(0.5 * (n - lam)) + 2 * lg(0.25 * lam)
                                - lg(0.5 * lam) - 2 * lg(0.5 * n - 0.25 * lam))
            assert riesz_power_constant(n, lam, n - 0.5 * lam) == \
                pytest.approx(expected, rel=1e-13)

    def test_quadrature_cross_check(self):
        # independent route: int over R of |1-y|^(-3/4) |y|^(-3/4) dy equals
        # the constant times |1|^(n-lam-mu) = the constant itself
        f = lambda y: np.abs(1.0 - y) ** -0.75 * np.abs(y) ** -0.75
        plus = integrate(f, 0, math.inf, QuadratureSpec(
            singularities=((0.0, -0.75), (1.0, -0.75), (math.inf, -1.5))))
        minus = integrate(lambda t: f(-np.asarray(t, dtype=float)), 0, math.inf,
                          QuadratureSpec(singularities=((0.0, -0.75), (math.inf, -1.5))))
        assert plus.value + minus.value == \
            pytest.approx(riesz_power_constant(1, 0.75, 0.75), rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            riesz_power_constant(2, 0.5, 0.5)    # lam + mu <= n diverges
        with pytest.raises(ValueError):
            riesz_power_constant(2, 2.5, 1.0)


class TestLiebConstantC:
    def test_hand_value(self):
        assert lieb_constant_C(Params(4, 2.0)) == \
            pytest.approx(1.0 / (8.0 * math.pi ** 3), rel=1e-12)

    def test_frozen_oracle(self):
        assert lieb_constant_C(Params(1, 0.5)) == \
            pytest.approx(0.013199444412516415, rel=1e-13)

    def test_defining_property(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            lam = float(rng.uniform(0.05, 0.95)) * n
            p = Params(n, lam)
            c = lieb_constant_C(p)
            k = riesz_power_constant(n, lam, n - 0.5 * lam)
            assert c * k == pytest.approx(c ** p.pm1, rel=1e-12)

    def test_code_path_identity(self):
        # C is literally the composition constant raised to the amplitude
        # exponent; the two code paths must agree bitwise
        for n, lam in [(1, 0.5), (3, 1.7), (4, 2.0)]:
            p = Params(n, lam)
            k = riesz_power_constant(n, lam, n - 0.5 * lam)
            assert lieb_constant_C(p) == k ** (-(2 * n - lam) / (2 * (n - lam)))

    def test_deterministic(self):
        p = Params(2, 1.3)
        assert lieb_constant_C(p) == lieb_constant_C(p)


def _mp_lieb_constant_L(n, lam):
    """L = (|S^(n-1)| B((n-lam)/2, n/2) / 2)^(-(2n-lam)/(2(n-lam))) at 30 digits."""
    with mpmath.workdps(30):
        n, lam = mpmath.mpf(n), mpmath.mpf(lam)
        area = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
        i0 = area * mpmath.beta((n - lam) / 2, n / 2) / 2
        return i0 ** (-(2 * n - lam) / (2 * (n - lam)))


class TestLiebConstantL:
    def test_frozen_oracle(self):
        # 30-digit value 0.0832705965856542655761906688671
        assert lieb_constant_L(Params(1, 0.5)) == \
            pytest.approx(0.08327059658565427, rel=1e-14)

    @pytest.mark.parametrize("n,lam", [(1, 0.3), (1, 0.5), (1, 0.8), (3, 1.0),
                                       (4, 2.0), (5, 2.5), (5, 4.75)])
    def test_mpmath_beta_value(self, n, lam):
        assert lieb_constant_L(Params(n, lam)) == \
            pytest.approx(float(_mp_lieb_constant_L(n, lam)), rel=1e-14)

    @pytest.mark.parametrize("n,lam", [(1, 0.25), (1, 0.5), (1, 0.75),
                                       (3, 1.0), (3, 2.0), (4, 2.0)])
    def test_beta_reduction_oracle(self, n, lam):
        # an independent route to I0: radial quadrature of
        # int |y|^(-lam) (1+|y|^2)^(-(n-lam/2)) dy, whose integrand decays
        # like r^(-n-1); the amplitude exponent then gives L
        m = n - 0.5 * lam
        radial = integrate(lambda r: r ** (n - 1 - lam) * (1.0 + r * r) ** (-m),
                           0.0, math.inf, QuadratureSpec(singularities=((math.inf, -(n + 1.0)),)))
        i0 = sphere_surface_area(n) * radial.value
        assert i0 == pytest.approx(sphere_surface_area(n) * 0.5
                                   * beta(0.5 * (n - lam), 0.5 * n), rel=1e-9)
        expected = i0 ** (-(2 * n - lam) / (2 * (n - lam)))
        assert lieb_constant_L(Params(n, lam)) == pytest.approx(expected, rel=1e-9)

    def test_deterministic(self):
        p = Params(1, 0.5)
        assert lieb_constant_L(p) == lieb_constant_L(p)


def test_sphere_surface_area():
    assert sphere_surface_area(1) == 2.0
    assert sphere_surface_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_surface_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_surface_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


def test_sphere_surface_area_within_ulps_of_mpmath():
    # direct 2 pi^(n/2) / Gamma(n/2): within 2 ulp of the 40-digit value up to
    # n = 6; by n = 20 the float pi's own rounding, raised to the power n/2,
    # adds up to about 4 ulp
    with mpmath.workdps(40):
        for n in range(1, 21):
            exact = 2 * mpmath.pi ** mpmath.mpf(n / 2) / mpmath.gamma(mpmath.mpf(n / 2))
            ulps = abs(sphere_surface_area(n) - exact) / math.ulp(float(exact))
            assert ulps <= (2.0 if n <= 6 else 4.0), n

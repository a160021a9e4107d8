import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebeq import regularity
from liebeq.regularity import (Domain1D, _keeps_growing, decay_singularity_scan,
                               kernel_growth_check, translation_annihilation_check,
                               weight, weighted_norm)
from liebeq.solutions import lieb_solution, singular_solution
from liebeq.specfun import Params


class TestDomainAndWeight:
    def test_rho(self):
        G = Domain1D.interval(0.0, 1.0)
        assert G.rho(0.25) == 0.25
        assert G.rho(0.9) == pytest.approx(0.1)
        B = Domain1D.ball(1, 1.0)
        assert B.rho(-0.5) == 0.5

    @pytest.mark.parametrize("n,R", [(1, 1.0), (2, 1.5), (3, 0.7)])
    def test_ball_rho_is_radius_minus_abs_bitwise(self, n, R):
        # min(x + R, R - x) rounds as R - |x| on both halves of the slice
        near = [np.nextafter(R, 0.0), np.nextafter(-R, 0.0), R, -R]
        xs = np.array([0.0, -0.0, 1e-300, -1e-300, 0.3 * R, -0.3 * R, *near,
                       *np.random.default_rng(5).uniform(-R, R, 200)])
        got = Domain1D.ball(n, R).rho(xs)
        assert np.array_equal(got.view(np.uint64), (R - np.abs(xs)).view(np.uint64))

    @pytest.mark.parametrize("make", [lambda: Domain1D.interval(0.0, math.inf),
                                      lambda: Domain1D.interval(math.nan, 1.0),
                                      lambda: Domain1D.interval(1.0, 1.0),
                                      lambda: Domain1D.interval(-1e308, 1e308),
                                      lambda: Domain1D.ball(1, 1e308),
                                      lambda: Domain1D.ball(1, -1.0),
                                      lambda: Domain1D.ball(1, math.inf),
                                      lambda: Domain1D.ball(1, math.nan),
                                      lambda: Domain1D.ball(0, 1.0)])
    def test_domain_needs_finite_bounds(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_weight_branches(self):
        G = Domain1D.interval(0.0, 2.0)
        assert weight(-1.0, 0.7, G) == 1.0
        x_unit = 1.0  # rho = 1 here
        assert weight(0.0, x_unit, G) == 1.0
        x_half = 0.5  # rho = 0.5
        assert weight(2.0, x_half, G) == pytest.approx(0.25)

    def test_boundary_rejected(self):
        G = Domain1D.interval(0.0, 1.0)
        for x in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                weight(1.0, x, G)

    @given(lam=st.floats(0.0, 3.0), rho_frac=st.floats(0.01, 0.99))
    @settings(max_examples=100)
    def test_weight_at_most_one_when_rho_small(self, lam, rho_frac):
        G = Domain1D.interval(0.0, 2.0)
        x = rho_frac  # rho(x) = x <= 1 on the left half
        assert weight(lam, x, G) <= 1.0 + 1e-12

    def test_weight_continuity_within_branch(self):
        G = Domain1D.interval(0.0, 2.0)
        xs = np.linspace(0.3, 0.3001, 5)
        vals = weight(1.5, xs, G)
        assert np.max(np.abs(np.diff(vals))) < 1e-3


@pytest.mark.parametrize("maxima,grows", [
    ([1.0, 1.2, 1.45], True), ([1.0, 1.2, 1.3], False), ([1.0, 1.05, 1.2], False),
    ([1.0, math.inf], True), ([1.0, math.nan], True), ([math.nan, 2.0], False),
    ([0.0, 1e-300], True), ([2.0, 1.0], False)])
def test_growth_rule(maxima, grows):
    # the one rule of the norm and the scan: every step > 10% or not finite
    assert _keeps_growing(maxima) is grows


class TestWeightedNorm:
    def test_constant_function(self):
        G = Domain1D.interval(0.0, 1.0)
        res = weighted_norm(lambda x: 1.0, 0, 0.5, G)
        assert not res.unbounded
        assert res.total == pytest.approx(1.0, rel=1e-12)

    def test_boundary_blowup_flagged(self):
        G = Domain1D.interval(0.0, 1.0)
        res = weighted_norm(lambda x: 1.0 / min(x, 1.0 - x), 0, 0.5, G)
        assert res.unbounded and math.isinf(res.total)

    def test_blowup_first_sampled_at_a_fine_level_is_flagged(self):
        # the first two levels see only zeros; growth from 0 is growth
        G = Domain1D.interval(0.0, 1.0)
        res = weighted_norm(lambda x: 1.0 / x if x < 1e-6 else 0.0, 0, 0.5, G)
        assert res.history[:2] == (0.0, 0.0)
        assert res.unbounded and math.isinf(res.total)

    def test_difference_stencil_stays_inside_domain(self):
        # sqrt(x (1 - x)) raises a math domain error outside [0, 1], so any
        # stencil point outside G would fail the call
        G = Domain1D.interval(0.0, 1.0)
        res = weighted_norm(lambda x: math.sqrt(x * (1.0 - x)), 2, 0.5, G)
        # u'' = -(x (1 - x))^(-3/2) / 4, so rho^(3/2) |u''| peaks at x = 1/2
        assert res.per_alpha_suprema[0] == 0.5
        assert res.per_alpha_suprema[2] == pytest.approx(math.sqrt(0.5), rel=1e-6)

    def test_lieb_profile_finite(self, p_half):
        u = lieb_solution(p_half)
        res = weighted_norm(u, 2, 0.5, Domain1D.ball(1, 1.0))
        assert not res.unbounded
        assert res.total < math.inf
        # oracle: dense direct maximum of the weighted order-0 term
        B = Domain1D.ball(1, 1.0)
        xs = np.linspace(-0.999, 0.999, 20001)
        w = weight(0 - (1 - 0.5), xs, B)
        direct = float(np.max(w * np.abs(u.value(np.abs(xs)))))
        assert res.per_alpha_suprema[0] == pytest.approx(direct, rel=1e-3)

    @pytest.mark.parametrize("n,R,lam,nu", [(2, 1.5, 1.0, 1.5), (3, 0.7, 1.5, 2.5)])
    def test_lieb_profile_on_higher_dimensional_balls(self, n, R, lam, nu):
        # oracle: dense direct maxima of the weighted order-0 and order-1 terms
        u = lieb_solution(Params(n, lam))
        B = Domain1D.ball(n, R)
        res = weighted_norm(u, 2, nu, B)
        assert not res.unbounded
        xs = np.linspace(-R, R, 40001)[1:-1]
        for k in (0, 1):
            direct = float(np.max(weight(k - (n - nu), xs, B) * np.abs(u.derivative_1d(xs, k))))
            assert res.per_alpha_suprema[k] == pytest.approx(direct, rel=1e-3)

    def test_singular_profile_flagged(self, p_half):
        u = singular_solution(p_half)
        res = weighted_norm(u, 2, 0.5, Domain1D.ball(1, 1.0))
        assert res.unbounded and math.isinf(res.total)

    def test_absolute_homogeneity(self, p_half):
        u = lieb_solution(p_half)
        G = Domain1D.ball(1, 1.0)
        base = weighted_norm(u, 1, 0.5, G)
        scaled_profile = type(u)(u.kind, amplitude=3.0 * u.amplitude,
                                 exponent=u.exponent)
        scaled = weighted_norm(scaled_profile, 1, 0.5, G)
        assert scaled.total == pytest.approx(3.0 * base.total, rel=1e-12)

    def test_triangle_inequality(self, p_half):
        G = Domain1D.interval(-1.0, 1.0)
        u = lieb_solution(p_half)
        v = lieb_solution(Params(1, 0.75))
        s = lambda x: float(u.value(abs(x))) + float(v.value(abs(x)))
        nu = 0.5
        nsum = weighted_norm(s, 0, nu, G)
        nu_ = weighted_norm(lambda x: float(u.value(abs(x))), 0, nu, G)
        nv_ = weighted_norm(lambda x: float(v.value(abs(x))), 0, nu, G)
        assert nsum.total <= nu_.total + nv_.total + 1e-9

    def test_validation(self):
        G = Domain1D.interval(0.0, 1.0)
        with pytest.raises(ValueError):
            weighted_norm(lambda x: 1.0, 0, 1.5, G)  # nu >= n
        with pytest.raises(ValueError):
            weighted_norm(lambda x: 1.0, -1, 0.5, G)
        with pytest.raises(ValueError, match="nu = nan"):
            weighted_norm(lambda x: 1.0, 0, math.nan, G)


class TestKernelGrowth:
    def test_constants_match_rising_factorial(self, p_half):
        rep = kernel_growth_check(p_half, 4)
        lam = p_half.lam
        expected = [1.0, lam, lam * (lam + 1), lam * (lam + 1) * (lam + 2),
                    lam * (lam + 1) * (lam + 2) * (lam + 3)]
        assert list(rep.analytic_constants) == pytest.approx(expected, rel=1e-15)
        assert rep.max_deviation <= 1e-10
        for emp, ana in zip(rep.empirical_constants, rep.analytic_constants):
            assert emp == pytest.approx(ana, rel=1e-10)

    def test_structural_zero_slices(self, p_half):
        rep = kernel_growth_check(p_half, 2)
        assert rep.u_slice_identically_zero
        assert rep.translation_slice_identically_zero

    def test_deterministic(self, p_half):
        assert kernel_growth_check(p_half, 3) == kernel_growth_check(p_half, 3)

    def test_order_cap(self, p_half):
        with pytest.raises(ValueError):
            kernel_growth_check(p_half, 5)

    def test_negative_order_named(self, p_half):
        with pytest.raises(ValueError, match="m = -1"):
            kernel_growth_check(p_half, -1)


class TestTranslationAnnihilation:
    def test_spec_point(self, p_half):
        assert translation_annihilation_check(p_half, [(1.0, 0.3)]) <= 1e-8

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, p_half, h):
        # h = 0 would give 0/0 = NaN, which max(0.0, nan) silently drops: the
        # step is a fixed positive constant, and no caller can pass another
        assert 0.0 < regularity._TRANSLATION_STEP < math.inf
        with pytest.raises(TypeError):
            translation_annihilation_check(p_half, [(1.0, 0.3)], h=h)

    def test_no_points_is_an_error(self, p_half):
        with pytest.raises(ValueError, match="at least one"):
            translation_annihilation_check(p_half, [])

    def test_dyadic_stencil_cancels_bitwise(self, p_half):
        # with dyadic x, y, h the shifted arguments are exact, so the
        # symmetric stencil difference K(x+h, y+h) - K(x-h, y-h) is exactly 0
        lam = p_half.lam
        x, y, h = 1.0, 0.25, 2.0 ** -7
        k = lambda a, b: abs(a - b) ** -lam
        assert k(x + h, y + h) - k(x - h, y - h) == 0.0

    @pytest.mark.parametrize("n,lam", [(1, 0.5), (2, 1.3), (3, 2.5)])
    def test_lambda_sweep(self, n, lam):
        p = Params(n, lam)
        rng = np.random.default_rng(11)
        xs = rng.uniform(-2, 2, 50)
        ys = xs - np.exp(rng.uniform(math.log(0.3), math.log(3.0), 50))
        assert translation_annihilation_check(p, list(zip(xs, ys))) <= 1e-8

    def test_diagonal_rejected(self, p_half):
        with pytest.raises(ValueError):
            translation_annihilation_check(p_half, [(1.0, 1.0)])


class TestDecayScan:
    def test_singular_solution(self, p_half):
        f = singular_solution(p_half)
        rep = decay_singularity_scan(f, 1e3,
                                     blowup_threshold=1e3 * float(f.value(1.0)))
        assert rep.decay_verified
        assert rep.singular_points == (0.0,)
        assert rep.bounding_radius < 1.0

    def test_lieb_solution(self, p_half):
        f = lieb_solution(p_half)
        rep = decay_singularity_scan(f, 1e3,
                                     blowup_threshold=1e3 * float(f.value(1.0)))
        assert rep.decay_verified
        assert rep.singular_points == ()
        assert rep.bounding_radius == 0.0

    def test_constant_profile_fails_decay(self):
        const = lambda r: np.ones_like(np.asarray(r, dtype=float))
        rep = decay_singularity_scan(const, 1e3, blowup_threshold=10.0)
        assert not rep.decay_verified
        assert rep.singular_points == ()

    def test_interior_pole_detected(self):
        f = lambda r: 1.0 / (np.abs(np.asarray(r, dtype=float) - 3.0) + 1e-12) ** 0.5
        rep = decay_singularity_scan(f, 1e3, blowup_threshold=5.0)
        assert len(rep.singular_points) == 1
        assert rep.singular_points[0] == pytest.approx(3.0, abs=0.05)
        assert rep.bounding_radius > 3.0

    def test_two_poles_detected(self):
        # two clusters above the threshold, each refined on its own bracket
        def f(r):
            r = np.asarray(r, dtype=float)
            return (1.0 / (np.abs(r - 3.0) + 1e-12) ** 0.5
                    + 1.0 / (np.abs(r - 30.0) + 1e-9) ** 0.7)
        rep = decay_singularity_scan(f, 1e3, blowup_threshold=5.0)
        assert rep.singular_points == pytest.approx((2.99995, 29.9993), rel=1e-5)
        assert rep.bounding_radius == pytest.approx(31.35, rel=1e-3)

    @pytest.mark.parametrize("R_outer,threshold", [(math.inf, 5.0), (math.nan, 5.0),
                                                   (0.0, 5.0), (1e3, math.nan),
                                                   (1e3, math.inf)])
    def test_scan_needs_finite_inputs(self, p_half, R_outer, threshold):
        with pytest.raises(ValueError, match="finite"):
            decay_singularity_scan(lieb_solution(p_half), R_outer, threshold)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, -math.inf])
    def test_scan_needs_a_positive_threshold(self, p_half, threshold):
        # every |f| >= 0 lies above a threshold <= 0, so the whole scan would
        # be one cluster and bounding_radius would be R_outer
        with pytest.raises(ValueError, match="blowup threshold must be positive and finite"):
            decay_singularity_scan(lieb_solution(p_half), 1e3, threshold)

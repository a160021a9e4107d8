import math

import pytest

from liebeq.quadrature import NonConvergent
from liebeq.radial_riesz import RadialProfile, ScreenRejected
from liebeq.solutions import (INCONCLUSIVE, REFUTED, VERIFIED, certify,
                              lieb_solution, singular_solution, verify_solution)
from liebeq.specfun import Params, lieb_constant_L

MATRIX = [(1, 0.25), (1, 0.5), (1, 0.75), (3, 1.0), (3, 2.0), (4, 2.0)]
EXTREME_MATRIX = [(n, round(frac * n, 2)) for n in range(1, 6) for frac in (0.05, 0.95)]


class TestSingularSolution:
    def test_amplitude_and_exponent(self):
        p = Params(4, 2.0)
        f = singular_solution(p)
        assert f.amplitude == pytest.approx(1.0 / (8 * math.pi ** 3), rel=1e-12)
        assert f.exponent == 3.0

    def test_pure_power_scaling(self):
        p = Params(2, 0.8)
        f = singular_solution(p)
        m = p.solution_exponent
        assert f.value(2.0) / f.value(1.0) == pytest.approx(2.0 ** -m, rel=1e-13)

    def test_shape(self):
        f = singular_solution(Params(1, 0.5))
        assert f.value(1e-8) > 1e4 * f.value(1.0)   # unbounded toward the origin
        assert f.value(1e8) < 1e-4 * f.value(1.0)   # decays at infinity


class TestLiebSolution:
    def test_bounded_with_finite_peak(self, p_half):
        f = lieb_solution(p_half)
        assert f.value(0.0) == pytest.approx(lieb_constant_L(p_half), rel=1e-12)
        assert f.value(0.0) >= f.value(1.0) >= f.value(10.0) > 0.0

    def test_tail_asymptote(self, p_half):
        f = lieb_solution(p_half)
        m = p_half.solution_exponent
        L = lieb_constant_L(p_half)
        r = 1e4
        assert f.value(r) * r ** (2 * m) == pytest.approx(L, rel=1e-7)

    def test_verified_at_tight_tolerance(self, p_half):
        rep = verify_solution(lieb_solution(p_half), p_half,
                              [0.0, 0.5, 1.0, 2.0, 5.0], tolerance=1e-6)
        assert rep.verdict == VERIFIED

    def test_verified_n3(self):
        p = Params(3, 1.0)
        rep = verify_solution(lieb_solution(p), p, [0.0, 1.0, 3.0], tolerance=1e-5)
        assert rep.verdict == VERIFIED


class TestVerdictRule:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_verify_refuses_a_tolerance_that_is_not_positive(self, p_half, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            verify_solution(lieb_solution(p_half), p_half, [1.0], tolerance=tol)

    def test_gap_at_tolerance_is_verified(self):
        assert certify(1e-6, [1.0], 1e-6) == VERIFIED

    def test_large_gap_with_small_errors_is_refuted(self):
        gap = 1e-4
        assert certify(gap, [gap / 10.0, 1e-9], 1e-6) == REFUTED

    def test_one_error_above_a_tenth_of_the_gap_is_inconclusive(self):
        gap = 1e-4
        above = math.nextafter(gap / 10.0, math.inf)
        assert certify(gap, [1e-9, above], 1e-6) == INCONCLUSIVE

    def test_nan_gap_is_inconclusive(self):
        assert certify(math.nan, [0.0], 1e-6) == INCONCLUSIVE

    def test_nan_error_is_inconclusive(self):
        # with max() over the errors a leading finite value would hide the NaN
        assert certify(1e-4, [1e-8, math.nan], 1e-6) == INCONCLUSIVE
        assert certify(1e-4, [math.nan, 1e-8], 1e-6) == INCONCLUSIVE


class TestVerifySolution:
    def test_singular_verified(self, p_half):
        rep = verify_solution(singular_solution(p_half), p_half,
                              [0.5, 1.0, 2.0], tolerance=1e-6)
        assert rep.verdict == VERIFIED
        assert rep.max_rel_residual <= 1e-6

    @pytest.mark.parametrize("n,lam", MATRIX)
    def test_matrix_both_solutions(self, n, lam):
        p = Params(n, lam)
        rep = verify_solution(singular_solution(p), p, [0.5, 1.0, 2.0], 1e-5)
        assert rep.verdict == VERIFIED
        repl = verify_solution(lieb_solution(p), p, [0.0, 1.0, 2.0], 1e-5)
        assert repl.verdict == VERIFIED

    @pytest.mark.parametrize("family", ["singular", "lieb"])
    @pytest.mark.parametrize("n,lam", EXTREME_MATRIX)
    def test_extreme_lambda_never_refuted(self, n, lam, family):
        # at lam = 0.95n the amplitudes C and L are as small as 1e-22; at
        # lam = 0.05n the singular solution sits near the integrability
        # border at the origin.  Neither may turn into a refutation.
        p = Params(n, lam)
        f = singular_solution(p) if family == "singular" else lieb_solution(p)
        try:
            rep = verify_solution(f, p, [0.5, 2.0], 1e-6)
        except NonConvergent:
            return
        assert rep.verdict != REFUTED

    @pytest.mark.parametrize("family", ["singular", "lieb"])
    @pytest.mark.parametrize("n,frac", [(n, frac) for n in range(1, 6)
                                        for frac in (0.05, 0.5, 0.95)])
    def test_error_bars_bound_the_residual(self, n, frac, family):
        # both solutions are exact, so each residual is the quadrature's own
        # error and must lie within its bar; at lam = 0.05n the singular
        # solution's radial integrand has the exponent -0.975 at the origin
        p = Params(n, frac * n)
        f = singular_solution(p) if family == "singular" else lieb_solution(p)
        rep = verify_solution(f, p, [0.5, 1.0, 2.0, 5.0])
        assert rep.verdict == VERIFIED
        for lhs, rhs, err in zip(rep.lhs_values, rep.rhs_values, rep.err_estimates):
            assert abs(lhs - rhs) <= err

    def test_scaled_candidate_refuted(self, p_half):
        # T is linear and the exponent pins the amplitude: 1.1 f has relative
        # residual |1.1 - 1.1^(p-1)| / 1.1^(p-1) at every radius
        f = singular_solution(p_half)
        bad = RadialProfile.power_singular(1.1 * f.amplitude, f.exponent)
        rep = verify_solution(bad, p_half, [0.5, 1.0, 2.0], tolerance=1e-6)
        assert rep.verdict == REFUTED
        pm1 = p_half.pm1
        predicted = abs(1.1 - 1.1 ** pm1) / 1.1 ** pm1
        assert rep.max_rel_residual == pytest.approx(predicted, rel=1e-6)

    def test_inconclusive_band(self, p_half):
        # a tolerance sitting just under the residual, but within 10x of it,
        # cannot refute either
        f = singular_solution(p_half)
        rep = verify_solution(f, p_half, [1.0], tolerance=1e-6)
        residual = rep.max_rel_residual
        rep2 = verify_solution(f, p_half, [1.0], tolerance=residual / 5.0)
        assert rep2.verdict == INCONCLUSIVE

    def test_tolerance_monotonicity(self, p_half):
        f = lieb_solution(p_half)
        tight = verify_solution(f, p_half, [0.5, 1.0], tolerance=1e-7)
        loose = verify_solution(f, p_half, [0.5, 1.0], tolerance=1e-4)
        assert tight.verdict == VERIFIED
        assert loose.verdict == VERIFIED
        assert tight.max_rel_residual == loose.max_rel_residual

    def test_radii_validation(self, p_half):
        f = singular_solution(p_half)
        with pytest.raises(ValueError):
            verify_solution(f, p_half, [], 1e-6)
        with pytest.raises(ValueError):
            verify_solution(f, p_half, [-1.0], 1e-6)
        with pytest.raises(ValueError):
            verify_solution(f, p_half, [0.0, 1.0], 1e-6)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_radius_rejected(self, p_half, r):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            verify_solution(lieb_solution(p_half), p_half, [1.0, r])

    def test_screen_rejection_propagates(self, p_half):
        fat = RadialProfile.power_singular(1.0, 0.0)
        with pytest.raises(ScreenRejected) as err:
            verify_solution(fat, p_half, [1.0], 1e-6)
        assert math.isinf(err.value.location)

    def test_report_record_is_complete(self, p_half):
        radii = [0.5, 1.0]
        rep = verify_solution(lieb_solution(p_half), p_half, radii, 1e-5)
        assert rep.sample_radii == tuple(radii)
        assert len(rep.lhs_values) == len(rep.rhs_values) == len(radii)
        assert len(rep.err_estimates) == len(radii)
        best = max(abs(a - b) / abs(b) for a, b in zip(rep.lhs_values, rep.rhs_values))
        assert rep.max_rel_residual == best


class TestLargeRadii:
    # the Lieb solution's potential decays like r^(-lam) while the profile's
    # bump stays at r ~ 1; every cell is an exact solution, so each residual
    # is quadrature error and must lie within its relative bar
    @pytest.mark.parametrize("fracs,radii", [
        ((0.1, 0.5, 0.9), (1e3, 1e4, 1e5, 1e6)),
        ((0.3, 0.5, 0.75, 0.9, 0.95), (10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0))])
    def test_lieb_verified_at_large_radii(self, fracs, radii):
        for n in range(1, 7):
            for frac in fracs:
                p = Params(n, frac * n)
                for r in radii:
                    rep = verify_solution(lieb_solution(p), p, [r])
                    assert rep.verdict == VERIFIED, (n, frac, r)
                    bar = rep.err_estimates[0] / abs(rep.rhs_values[0])
                    assert rep.max_rel_residual <= bar, (n, frac, r)


class TestDecayBehaviour:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_lieb_thousandfold_radius(self, lam):
        p = Params(1, lam)
        f = lieb_solution(p)
        assert f.value(1e3) < 1e-3 * f.value(1.0)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_singular_power_law_decay(self, lam):
        # the power solution decays like r^(-(n - lam/2)); in one dimension
        # that exponent is below 1, so the decade ratio follows the power law
        # exactly (a 1e-3 drop over three decades is not available to it)
        p = Params(1, lam)
        f = singular_solution(p)
        m = p.solution_exponent
        assert f.value(1e3) / f.value(1.0) == pytest.approx(1e3 ** -m, rel=1e-12)
        assert f.value(1e3) < 2e-2 * f.value(1.0)

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebeq import quadrature
from liebeq.identities import (NOT_APPLICABLE, VERIFIED, DifferentialForm,
                               MultiIndex, SolutionDescriptor, apply_form,
                               check_commutativity, check_composite,
                               check_orthogonality, cutoff_pair_integral,
                               parity_split, parse_form, solution_descriptor)
from liebeq.radial_riesz import RadialProfile
from liebeq.solutions import lieb_solution, singular_solution
from liebeq.specfun import Params, lieb_constant_L


@pytest.fixture(scope="module")
def descriptors():
    p = Params(1, 0.5)
    fC = solution_descriptor(singular_solution(p), p, "singular")
    fL = solution_descriptor(lieb_solution(p), p, "lieb")
    return p, fC, fL


class TestMultiIndex:
    def test_order_and_parity(self):
        a = MultiIndex((2, 1))
        assert a.order == 3 and a.parity == -1
        assert MultiIndex((1, 1)).parity == 1  # parity depends on total order

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex((-1, 0))


class TestDifferentialForm:
    def test_canonicalization(self):
        f1 = DifferentialForm.from_terms(1, (2.0, 1), (1.0, 2), (0.0, 3))
        f2 = DifferentialForm.from_terms(1, (1.0, 2), (2.0, 1))
        assert f1 == f2
        assert all(c != 0.0 for c, _ in f1.terms)

    def test_duplicate_merge(self):
        f = DifferentialForm.from_terms(1, (1.0, 1), (2.0, 1))
        assert f == DifferentialForm.from_terms(1, (3.0, 1))

    def test_parity_split_partition(self):
        form = DifferentialForm.from_terms(1, (1.5, 1), (2.0, 2), (-1.0, 3))
        even, odd = parity_split(form)
        assert even == DifferentialForm.from_terms(1, (2.0, 2))
        assert odd == DifferentialForm.from_terms(1, (1.5, 1), (-1.0, 3))
        assert even + odd == form

    def test_pure_even_input_has_empty_odd_part(self):
        form = DifferentialForm.from_terms(1, (1.0, 0), (3.0, 2))
        even, odd = parity_split(form)
        assert odd.terms == ()
        assert even == form

    @given(st.lists(st.tuples(st.floats(-5, 5).filter(lambda c: abs(c) > 1e-6),
                              st.integers(0, 5)), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_parity_split_reconstructs(self, raw):
        form = DifferentialForm.from_terms(1, *raw)
        even, odd = parity_split(form)
        assert even + odd == form
        assert all(idx.parity == 1 for _, idx in even.terms)
        assert all(idx.parity == -1 for _, idx in odd.terms)

    def test_mixed_index_parity_is_total_order(self):
        form = DifferentialForm.from_terms(2, (1.0, (1, 1)))
        even, odd = parity_split(form)
        assert even == form and odd.terms == ()


class TestParseForm:
    def test_spec_syntax(self):
        form = parse_form("1.0*d1 + 2.0*d11", 1)
        assert form == DifferentialForm.from_terms(1, (1.0, 1), (2.0, 2))

    def test_bare_coefficient_is_identity_term(self):
        form = parse_form("2.5", 1)
        assert form == DifferentialForm.from_terms(1, (2.5, 0))

    def test_unit_coefficient_and_negative(self):
        form = parse_form("d1 - 0.5*d111", 1)
        assert form == DifferentialForm.from_terms(1, (1.0, 1), (-0.5, 3))

    def test_bare_sign_is_unit_coefficient(self):
        assert parse_form("d1 - d11", 1) == DifferentialForm.from_terms(1, (1.0, 1), (-1.0, 2))
        assert parse_form("-d1", 1) == DifferentialForm.from_terms(1, (-1.0, 1))

    def test_signed_exponent_coefficient(self):
        assert parse_form("1e-3*d1", 1) == DifferentialForm.from_terms(1, (1e-3, 1))
        assert parse_form("2.5e-1", 1) == DifferentialForm.from_terms(1, (0.25, 0))
        assert parse_form("1E+2d1", 1) == DifferentialForm.from_terms(1, (100.0, 1))
        assert parse_form("d1 - 1e-3*d11", 1) == \
            DifferentialForm.from_terms(1, (1.0, 1), (-1e-3, 2))

    def test_multi_axis(self):
        form = parse_form("1.0*d12", 2)
        assert form == DifferentialForm.from_terms(2, (1.0, (1, 1)))

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_form("nonsense*", 1)
        with pytest.raises(ValueError):
            parse_form("1.0*d3", 2)
        with pytest.raises(ValueError):
            parse_form("", 1)
        # an empty term is refused, except before a leading sign
        for text in ("d1 + ", "d1 + + d11", "+", "+-d1"):
            with pytest.raises(ValueError, match="cannot parse form term"):
                parse_form(text, 1)
        assert parse_form("+d1", 1) == parse_form(" + d1", 1) == parse_form("d1", 1)


class TestApplyForm:
    def test_identity_form(self, descriptors):
        _, _, fL = descriptors
        form = DifferentialForm.from_terms(1, (1.0, 0))
        assert apply_form(form, fL.base, 0.7) == pytest.approx(
            float(fL.base.value(0.7)), rel=1e-14)

    def test_first_derivative_closed_form(self, descriptors):
        p, _, fL = descriptors
        m = p.solution_exponent
        L = lieb_constant_L(p)
        x = 0.8
        expected = -2.0 * x * m * L * (1 + x * x) ** (-m - 1)
        got = apply_form(parse_form("d1", 1), fL.base, x)
        assert got == pytest.approx(expected, rel=1e-12)
        # central finite differences on the raw callable agree to 1e-7
        fd = apply_form(parse_form("d1", 1),
                        lambda t: float(fL.base.value(abs(t))), x)
        assert fd == pytest.approx(expected, rel=1e-7)

    def test_linearity_exact(self, descriptors):
        _, _, fL = descriptors
        lam_form = parse_form("2.0*d1", 1)
        om_form = parse_form("1.0 + 1.0*d11", 1)
        x = 0.7
        v = apply_form(lam_form, fL.base, x) + apply_form(om_form, fL.base, x)
        assert apply_form(lam_form + om_form, fL.base, x) == pytest.approx(v, abs=1e-15)

    def test_singular_point_rejected(self, descriptors):
        _, fC, _ = descriptors
        with pytest.raises(ValueError):
            apply_form(parse_form("d1", 1), fC.base, 0.0)

    def test_vanishing_power_singular_only_where_its_derivative_is(self):
        h = RadialProfile.power_singular(1.0, -0.5)    # |x|^(1/2)
        assert apply_form(parse_form("d", 1), h, 0.0) == 0.0
        with pytest.raises(ValueError, match="singular point"):
            apply_form(parse_form("d + d1", 1), h, 0.0)

    @pytest.mark.parametrize("index", [(1, 1), (2, 0), (2, 1), (1, 1, 1)])
    @pytest.mark.parametrize("kind", ["power_singular", "lieb"])
    def test_profile_partials_in_higher_dimension_match_mpmath(self, kind, index):
        # exact D_a of a profile in R^n: central differences, which stay for
        # plain callables, are good to about 1e-8 here
        n = len(index)
        f = RadialProfile(kind, amplitude=1.7, exponent=0.75)
        form = DifferentialForm.from_terms(n, (1.0, index))
        with mpmath.workdps(30):
            c, e = (0, mpmath.mpf(0.375)) if kind == "power_singular" else (1, mpmath.mpf(0.75))
            closed = lambda *xs: mpmath.mpf(1.7) * (c + sum(v * v for v in xs)) ** -e
            for point in ((0.37, -0.81, 1.3), (-1.6, 0.45, -0.2), (2.5, 3.1, -0.7)):
                exact = mpmath.diff(closed, [mpmath.mpf(v) for v in point[:n]], index)
                got = apply_form(form, f, point[:n])
                assert got == pytest.approx(float(exact), rel=1e-13), point[:n]

    def test_vanishing_power_first_order_at_the_origin_of_the_plane(self):
        h = RadialProfile.power_singular(1.0, -0.5)    # |x|^(1/2)
        assert apply_form(parse_form("d", 2), h, (0.0, 0.0)) == 0.0
        with pytest.raises(ValueError, match="singular point"):
            apply_form(parse_form("d + d1", 2), h, (0.0, 0.0))

    def test_order_cap(self, descriptors):
        _, _, fL = descriptors
        with pytest.raises(ValueError):
            apply_form(DifferentialForm.from_terms(1, (1.0, 7)), fL.base, 0.5)

    def test_two_dimensional_mixed_partial(self):
        form = DifferentialForm.from_terms(2, (1.0, (1, 1)))
        func = lambda pt: math.sin(pt[0]) * math.cos(2.0 * pt[1])
        got = apply_form(form, func, (0.4, 0.3))
        expected = math.cos(0.4) * (-2.0 * math.sin(0.6))
        assert got == pytest.approx(expected, rel=1e-7)


class TestCommutativity:
    def test_zeroth_cross_identity(self, descriptors):
        p, fC, fL = descriptors
        rep = check_commutativity(fC, fL, 0, 0, p, tolerance=1e-8)
        assert rep.verdict == VERIFIED
        assert rep.rel_gap <= 1e-8
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-8)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_zeroth_cross_identity_n3(self, lam):
        p = Params(3, lam)
        fC = solution_descriptor(singular_solution(p), p, "singular")
        fL = solution_descriptor(lieb_solution(p), p, "lieb")
        rep = check_commutativity(fC, fL, 0, 0, p, tolerance=1e-8)
        assert rep.verdict == VERIFIED

    def test_derivative_instance(self, descriptors):
        p, _, fL = descriptors
        rep = check_commutativity(fL, fL, 2, 0, p, tolerance=1e-6)
        assert rep.verdict == VERIFIED

    def test_screen_rejects_singular_self_pair(self, descriptors):
        p, fC, _ = descriptors
        rep = check_commutativity(fC, fC, 1, 0, p)
        assert rep.verdict == NOT_APPLICABLE
        assert rep.screen.failing_location == 0.0

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_low_order_sweep(self, lam):
        p = Params(1, lam)
        fL = solution_descriptor(lieb_solution(p), p, "lieb")
        for a in range(3):
            for b in range(3):
                rep = check_commutativity(fL, fL, a, b, p, tolerance=1e-6)
                assert rep.verdict == VERIFIED, (lam, a, b, rep.rel_gap)

    def test_higher_dimension_needs_order_zero(self, descriptors):
        p3 = Params(3, 1.0)
        fL3 = solution_descriptor(lieb_solution(p3), p3, "lieb")
        with pytest.raises(ValueError):
            check_commutativity(fL3, fL3, (1, 0, 0), (0, 0, 0), p3)


def _beta_sides(fC, fL, n):
    """The exact sides of the order-zero singular-lieb identity for the
    descriptors' own float amplitudes and exponents, at 30 digits.

    With m = n - lam/2 and q = p - 1, and S = |S^(n-1)|:
      lhs = L C^q S B(a, m - a) / 2,   a = (n - m q) / 2
      rhs = C L^q S B(b, m q - b) / 2, b = (n - m) / 2
    """
    mp = mpmath.mp.clone()
    mp.dps = 30
    S = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
    a = (n - mp.mpf(fC.power.exponent)) / 2
    lhs = (mp.mpf(fL.base.amplitude) * mp.mpf(fC.power.amplitude) * S
           * mp.beta(a, mp.mpf(fL.base.exponent) - a) / 2)
    b = (n - mp.mpf(fC.base.exponent)) / 2
    rhs = (mp.mpf(fC.base.amplitude) * mp.mpf(fL.power.amplitude) * S
           * mp.beta(b, mp.mpf(fL.power.exponent) - b) / 2)
    return lhs, rhs


_ORACLE_CELLS = [(n, t) for n in range(1, 6) for t in (0.05, 0.15, 0.5, 0.85, 0.95)]


@pytest.mark.parametrize("n,frac", _ORACLE_CELLS)
def test_zeroth_cross_identity_against_beta_closed_form(n, frac):
    # C and L collapse as lam -> n (L C^q is about 1e-32 at n = 1,
    # lam = 0.95), so this also checks that no absolute floor decides
    p = Params(n, frac * n)
    fC = solution_descriptor(singular_solution(p), p, "singular")
    fL = solution_descriptor(lieb_solution(p), p, "lieb")
    rep = check_commutativity(fC, fL, 0, 0, p)
    lhs_ref, rhs_ref = _beta_sides(fC, fL, n)
    assert rep.verdict == VERIFIED
    assert abs(rep.lhs - lhs_ref) <= rep.err_lhs
    assert abs(rep.rhs - rhs_ref) <= rep.err_rhs
    assert abs(rep.lhs - rep.rhs) <= 1e-6 * abs(rep.rhs)


class TestAmplitudeCovariance:
    """Scaling the solution by 2^j and its power by 2^k scales every pair
    integral by exactly 2^(j+k) and leaves every gap and verdict as is."""

    EXPONENTS = (-100, -50, 0, 50, 100)

    @staticmethod
    def _scaled(desc, j, k):
        return SolutionDescriptor(replace(desc.base, amplitude=desc.base.amplitude * 2.0 ** j),
                                  replace(desc.power, amplitude=desc.power.amplitude * 2.0 ** k),
                                  desc.params, desc.label)

    @staticmethod
    def _checks(fC, fL, p):
        form = parse_form("d1 + d11", 1)
        return [check_commutativity(fC, fL, 0, 0, p),
                check_orthogonality(fL, 1, 0, p),
                check_orthogonality(fL, 2, 0, p),
                *check_composite(fL, fL, form, form, p)]

    @pytest.fixture(scope="class")
    def base(self, descriptors):
        p, fC, fL = descriptors
        return self._checks(fC, fL, p)

    @pytest.mark.parametrize("j", EXPONENTS)
    @pytest.mark.parametrize("k", EXPONENTS)
    def test_reports_scale_exactly(self, descriptors, base, j, k):
        p, fC, fL = descriptors
        scaled = self._checks(self._scaled(fC, j, k), self._scaled(fL, j, k), p)
        factor = 2.0 ** (j + k)
        for ref, rep in zip(base, scaled, strict=True):
            assert rep.rel_gap == ref.rel_gap and rep.verdict == ref.verdict
            for field in ("lhs", "rhs", "err_lhs", "err_rhs", "conditioning"):
                assert getattr(rep, field) == factor * getattr(ref, field), field


class TestOrthogonality:
    def test_odd_total_vanishes(self, descriptors):
        p, _, fL = descriptors
        rep = check_orthogonality(fL, 1, 0, p)
        assert rep.verdict == VERIFIED and rep.zero_target
        assert max(abs(rep.lhs), abs(rep.rhs)) <= 1e-8
        assert rep.parity_forced            # even solutions force this by parity
        assert rep.conditioning > 1e-3      # ...but the integrand is not small

    def test_odd_pair_one_two(self, descriptors):
        p, _, fL = descriptors
        rep = check_orthogonality(fL, 1, 2, p)
        assert rep.verdict == VERIFIED
        assert max(abs(rep.lhs), abs(rep.rhs)) <= 1e-8

    def test_even_total_signed_equality(self, descriptors):
        p, _, fL = descriptors
        rep = check_orthogonality(fL, 2, 0, p)
        assert rep.verdict == VERIFIED and not rep.zero_target
        assert abs(rep.lhs) > 1e-4          # generally nonzero common value
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-6)


class TestComposite:
    def test_parity_chain(self, descriptors):
        p, _, fL = descriptors
        form = parse_form("d1 + d11", 1)
        reports = check_composite(fL, fL, form, form, p)
        ids = [r.identity_id for r in reports]
        assert ids == ["parity-chain-direct", "parity-chain-even-odd",
                       "parity-chain-swapped", "composite-orthogonality",
                       "composite-orthogonality"]
        for r in reports:
            assert r.verdict == VERIFIED, (r.identity_id, r.rel_gap)

    def test_zero_integrals_with_identity_even_part(self, descriptors):
        p, _, fL = descriptors
        lam_form = parse_form("1.0 + 1.0*d1", 1)  # even part = identity, odd = d/dx
        reports = check_composite(fL, fL, lam_form, lam_form, p)
        zero_reports = [r for r in reports if r.identity_id == "composite-orthogonality"]
        assert len(zero_reports) == 2
        for r in zero_reports:
            assert r.verdict == VERIFIED
            assert abs(r.lhs) <= 1e-8

    def test_empty_odd_part_reduces_to_even_term(self, descriptors):
        p, _, fL = descriptors
        form = parse_form("1.0 + 2.0*d11", 1)  # purely even
        reports = check_composite(fL, fL, form, form, p)
        direct = next(r for r in reports if r.identity_id == "parity-chain-direct")
        even_odd = next(r for r in reports if r.identity_id == "parity-chain-even-odd")
        assert direct.lhs == even_odd.rhs   # even-even expansion is the whole sum
        zeros = [r for r in reports if r.identity_id == "composite-orthogonality"]
        assert all(r.lhs == 0.0 and r.verdict == VERIFIED for r in zeros)

    def test_cross_solution_composite(self, descriptors):
        p, fC, fL = descriptors
        identity = parse_form("1.0", 1)
        reports = check_composite(fC, fL, identity, identity, p)
        comm = next(r for r in reports if r.identity_id == "composite-commutativity")
        assert comm.verdict == VERIFIED

    def test_singleton_reproduces_commutativity(self, descriptors):
        p, fC, fL = descriptors
        rep = check_commutativity(fC, fL, 0, 0, p)
        composite = check_composite(fC, fL, parse_form("1.0", 1),
                                    parse_form("1.0", 1), p)
        comm = next(r for r in composite if r.identity_id == "composite-commutativity")
        # same pair integrals through the same code path, sides swapped
        assert {comm.lhs, comm.rhs} == {rep.lhs, rep.rhs}

    def test_singleton_reproduces_orthogonality_zero(self, descriptors):
        p, _, fL = descriptors
        rep = check_orthogonality(fL, 1, 0, p)
        form_e = parse_form("1.0", 1)
        form_o = parse_form("d1", 1)
        reports = check_composite(fL, fL, form_e + form_o, form_e + form_o, p)
        zero = next(r for r in reports if r.identity_id == "composite-orthogonality")
        assert zero.lhs == rep.lhs

    def test_term_order_independence(self, descriptors):
        p, _, fL = descriptors
        f1 = DifferentialForm.from_terms(1, (1.0, 1), (1.0, 2))
        f2 = DifferentialForm.from_terms(1, (1.0, 2), (1.0, 1))
        r1 = check_composite(fL, fL, f1, f1, p)
        r2 = check_composite(fL, fL, f2, f2, p)
        for a, b in zip(r1, r2):
            assert a == b


class TestPairTable:
    """Each check computes each distinct pair integral once; on the line one
    pair integral is one quadrature, the negative half-line taken by parity."""

    @pytest.fixture
    def integrate_calls(self, monkeypatch):
        calls = []
        integrate = quadrature.integrate
        monkeypatch.setattr(quadrature, "integrate",
                            lambda *args, **kw: calls.append(args) or integrate(*args, **kw))
        return calls

    def test_composite_runs_distinct_pairs_once(self, descriptors, integrate_calls):
        p, _, fL = descriptors
        form = parse_form("d1 + d11", 1)
        check_composite(fL, fL, form, form, p)
        assert len(integrate_calls) == 4    # 4 distinct pairs of 14 read

    @pytest.mark.parametrize("tolerances", [{"tolerance": -1.0}, {"zero_tolerance": -1.0},
                                            {"zero_tolerance": 0.0},
                                            {"tolerance": math.inf}])
    def test_bad_tolerance_refused_before_any_quadrature(self, descriptors, integrate_calls,
                                                          tolerances):
        p, fC, fL = descriptors
        form = parse_form("d11", 1)
        checks = [lambda: check_composite(fL, fL, form, form, p, **tolerances),
                  lambda: check_orthogonality(fL, 1, 0, p, **tolerances)]
        if "tolerance" in tolerances:
            # the screen rejects this pair: the NotApplicable path refuses it too
            checks.append(lambda: check_commutativity(fC, fC, 1, 0, p, **tolerances))
        for check in checks:
            with pytest.raises(ValueError, match="tolerance must be positive"):
                check()
        assert integrate_calls == []

    def test_pair_keyed_on_profiles_not_labels(self, descriptors, integrate_calls):
        # two descriptors of one profile share every pair integral
        p, _, fL = descriptors
        other = solution_descriptor(fL.base, p, "bounded")
        rep = check_commutativity(fL, other, 1, 1, p)
        assert len(integrate_calls) == 1
        assert rep.lhs == rep.rhs

    def test_diagonal_commutativity_runs_once(self, descriptors, integrate_calls):
        p, _, fL = descriptors
        rep = check_commutativity(fL, fL, 1, 1, p)
        assert len(integrate_calls) == 1
        assert rep.lhs == rep.rhs


class TestCutoffForceIntegration:
    def test_divergent_instance_does_not_stabilize(self, descriptors):
        p, fC, _ = descriptors
        values = [cutoff_pair_integral(fC, 0, fC, 0, p, R)
                  for R in (1e2, 1e3, 1e4)]
        assert abs(values[1] - values[0]) > 1e-5
        assert abs(values[2] - values[1]) > 1e-5

    def test_convergent_instance_stabilizes(self, descriptors):
        # the lieb self-instance converges with an O(1/R) tail, so the
        # increments shrink by roughly a decade per decade of cutoff
        p, _, fL = descriptors
        values = [cutoff_pair_integral(fL, 0, fL, 0, p, R)
                  for R in (1e2, 1e3, 1e4)]
        d1, d2 = abs(values[1] - values[0]), abs(values[2] - values[1])
        assert d2 < 0.2 * d1
        assert d2 < 2e-3 * abs(values[2])

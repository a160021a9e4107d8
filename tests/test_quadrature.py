import functools
import math

import mpmath
import numpy as np
import pytest

from liebeq import quadrature
from liebeq.quadrature import (NonConvergent, QuadratureSpec, _rule,
                               convergence_screen, integrate)


def log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def half_beta(a, b):
    """int_0^inf r^(a-1) (1+r^2)^(-b) dr = B(a/2, b - a/2) / 2."""
    return 0.5 * math.exp(log_beta(a / 2.0, b - a / 2.0))


# Closed-form oracle corpus: endpoint/interior algebraic singularities,
# logarithmic singularities, power-law and fast tails.  Each case lists the
# singularities it declares; a singularity away from 0 must be declared, and
# so must every tail, a fast one as (inf, -2.0).
CORPUS = [
    ("sqrt_endpoint", lambda s: s ** -0.5, 0, 1, (), 2.0),
    ("strong_endpoint", lambda s: s ** -0.9, 0, 1, (), 10.0),
    ("mild_endpoint", lambda s: s ** -0.1, 0, 1, (), 1.0 / 0.9),
    ("right_endpoint", lambda s: (1 - s) ** -0.3, 0, 1, (), 1.0 / 0.7),
    ("both_endpoints", lambda s: s ** -0.25 * (1 - s) ** -0.5,
     0, 1, ((0.0, -0.25), (1.0, -0.5)), math.exp(log_beta(0.75, 0.5))),
    ("interior_split", lambda s: np.abs(s - 0.5) ** -0.5,
     0, 1, ((0.5, -0.5),), 2.0 * math.sqrt(2.0)),
    ("log_singularity", lambda s: np.log(1.0 / s), 0, 1, (), 1.0),
    ("log_times_power", lambda s: s ** -0.5 * np.log(1.0 / s), 0, 1, (), 4.0),
    ("smooth_poly", lambda s: 3.0 * s * s, 0, 1, (), 1.0),
    ("smooth_cos", lambda s: np.cos(s), 0, math.pi / 2, (), 1.0),
    ("gauss_like", lambda s: np.exp(-s * s), 0, math.inf, ((math.inf, -2.0),),
     math.sqrt(math.pi) / 2),
    ("exp_tail", lambda s: np.exp(-s), 0, math.inf, ((math.inf, -2.0),), 1.0),
    ("power_tail", lambda s: s ** -2.0, 1, math.inf, ((math.inf, -2.0),), 1.0),
    ("slow_power_tail", lambda s: s ** -1.25, 1, math.inf, ((math.inf, -1.25),), 4.0),
    ("lorentzian", lambda s: 1.0 / (1.0 + s * s), 0, math.inf, ((math.inf, -2.0),),
     math.pi / 2),
    ("beta_2_3", lambda s: s ** 1.0 * (1 + s * s) ** -3.0, 0, math.inf, ((math.inf, -5.0),),
     half_beta(2.0, 3.0)),
    ("beta_half_2", lambda s: s ** -0.5 * (1 + s * s) ** -2.0, 0, math.inf,
     ((math.inf, -4.5),),
     half_beta(0.5, 2.0)),
    ("beta_slow", lambda s: s ** 0.25 * (1 + s * s) ** -1.0, 0, math.inf, ((math.inf, -1.75),),
     half_beta(1.25, 1.0)),
    ("shifted_power", lambda s: s ** -0.5 / (1.0 + s) ** 2, 0, math.inf, ((math.inf, -2.5),),
     # int_0^inf s^(a-1)(1+s)^(-a-b) ds = B(a, b) with a = 1/2, b = 3/2
     math.exp(log_beta(0.5, 1.5))),
    ("singular_plus_tail", lambda s: s ** -0.75 * np.exp(-s), 0, math.inf,
     ((math.inf, -2.0),), math.gamma(0.25)),
    ("offset_interior", lambda s: np.abs(s - 2.0) ** -0.5, 0, 3, ((2.0, -0.5),),
     2.0 * math.sqrt(2.0) + 2.0),
]
@pytest.mark.parametrize("case", CORPUS, ids=[c[0] for c in CORPUS])
def test_oracle_corpus(case):
    name, f, a, b, singularities, exact = case
    spec = QuadratureSpec(singularities=singularities)
    value, err = integrate(f, a, b, spec)
    actual = abs(value - exact)
    assert actual <= max(spec.rel_tol * abs(exact), spec.abs_tol) * 5
    assert err >= actual or actual < 1e-14


def test_riesz_composition_line_integral():
    # int over R of |1-y|^(-3/4) |y|^(-3/4) dy = sqrt(pi) (G(1/8)/G(3/8))^2,
    # frozen from a 50-digit evaluation; strong interior singularity plus
    # slow power tails in one integral
    expected = 17.904528926373967
    f = lambda y: np.abs(1.0 - y) ** -0.75 * np.abs(y) ** -0.75
    plus = integrate(f, 0, math.inf, QuadratureSpec(
        singularities=((0.0, -0.75), (1.0, -0.75), (math.inf, -1.5))))
    minus = integrate(lambda t: f(-np.asarray(t, dtype=float)), 0, math.inf,
                      QuadratureSpec(singularities=((0.0, -0.75), (math.inf, -1.5))))
    assert plus.value + minus.value == pytest.approx(expected, rel=2e-9)


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 20


def test_trivial_examples():
    assert integrate(lambda s: s ** -0.5, 0, 1).value == pytest.approx(2.0, rel=1e-9)
    spec = QuadratureSpec(singularities=((0.5, -0.5),))
    assert integrate(lambda s: np.abs(s - 0.5) ** -0.5, 0, 1, spec).value == \
        pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
    tail = QuadratureSpec(singularities=((math.inf, -2.0),))
    assert integrate(lambda s: s ** -2.0, 1, math.inf, tail).value == \
        pytest.approx(1.0, rel=1e-9)


def test_linearity_within_three_tolerances():
    spec = QuadratureSpec()
    f = lambda s: np.exp(-s) * np.cos(3 * s)
    g = lambda s: 1.0 / (1.0 + s * s)
    a_coef, b_coef = 2.5, -1.25
    combo = lambda s: a_coef * f(s) + b_coef * g(s)
    lhs = integrate(combo, 0, 10, spec).value
    rhs = a_coef * integrate(f, 0, 10, spec).value + b_coef * integrate(g, 0, 10, spec).value
    assert abs(lhs - rhs) <= 3 * max(spec.rel_tol * abs(rhs), spec.abs_tol)


def test_redundant_split_invariance():
    f = lambda s: np.exp(-s * s)
    base = integrate(f, 0, 2)
    split = integrate(f, 0, 2, QuadratureSpec(singularities=((0.7, 0.0),)))
    assert abs(base.value - split.value) <= 2 * max(base.error, split.error)


def test_determinism_bitwise():
    spec = QuadratureSpec(singularities=((0.5, -0.3), (math.inf, -10.0)))
    f = lambda s: np.abs(s - 0.5) ** -0.3 * np.exp(-s)
    r1 = integrate(f, 0, math.inf, spec)
    r2 = integrate(f, 0, math.inf, spec)
    assert r1.value == r2.value and r1.error == r2.error


def _panel_nodes(a, b, ea, eb):
    """The 15- then 7-point nodes of the panel [a, b] with end exponents ea, eb."""
    nodes = np.concatenate([_rule(15, ea, eb)[0], _rule(7, ea, eb)[0]])
    return 0.5 * (a + b) + 0.5 * (b - a) * nodes


@pytest.mark.parametrize("f,spec,jacobi", [
    (lambda s: np.exp(3.0 * s) * np.sin(7.0 * s), QuadratureSpec(), False),
    (lambda s: s ** -0.5 * np.cos(20.0 * s), QuadratureSpec(singularities=((0.0, -0.5),)), True),
])
def test_one_integrand_call_per_split(monkeypatch, f, spec, jacobi):
    # the initial cell is one call on its 15 + 7 nodes; each split is one call
    # on the nodes of its left child, then those of its right child
    splits, calls = [], []
    split_point = quadrature._Panel.split_point

    def recorded(panel):
        cut = split_point(panel)
        splits.append((panel.a, cut, panel.b, panel.left or 0.0, panel.right or 0.0))
        return cut

    monkeypatch.setattr(quadrature._Panel, "split_point", recorded)
    result = integrate(lambda x: calls.append(np.array(x)) or f(x), 0.0, 1.0, spec)
    assert len(calls) == 1 + len(splits) > 1
    assert any(ea != 0.0 for *_, ea, _ in splits) == jacobi
    ea, eb = dict(spec.singularities).get(0.0, 0.0), 0.0
    assert np.array_equal(calls[0], _panel_nodes(0.0, 1.0, ea, eb))
    for x, (a, cut, b, ea, eb) in zip(calls[1:], splits):
        assert x.shape == (44,)
        assert np.array_equal(x, np.concatenate([_panel_nodes(a, cut, ea, 0.0),
                                                 _panel_nodes(cut, b, 0.0, eb)]))
    # a node's value does not depend on its batch, so neither does the result
    chunked = lambda x: np.concatenate([f(x[i:i + 22]) for i in range(0, x.size, 22)])
    monkeypatch.undo()
    assert integrate(chunked, 0.0, 1.0, spec) == result


def test_initial_cells_share_one_call():
    # the cells between declared points are evaluated together, in order
    spec = QuadratureSpec(singularities=((0.25, -0.5), (0.5, 0.0)))
    calls = []
    integrate(lambda x: calls.append(np.array(x)) or np.abs(x - 0.25) ** -0.5, 0.0, 1.0, spec)
    assert np.array_equal(calls[0], np.concatenate([_panel_nodes(0.0, 0.25, 0.0, -0.5),
                                                    _panel_nodes(0.25, 0.5, -0.5, 0.0),
                                                    _panel_nodes(0.5, 1.0, 0.0, 0.0)]))


def test_undeclared_tail_is_refused():
    # an infinite upper limit needs its decay declared; nothing guesses it
    for f in (lambda s: 1.0 / s, lambda s: s ** -0.5, lambda s: np.exp(-s)):
        with pytest.raises(ValueError, match="declared"):
            integrate(f, 1, math.inf)
    with pytest.raises(ValueError, match="declared"):
        integrate(lambda s: s ** -2.0, 0.5, math.inf, QuadratureSpec(singularities=((1.0, 0.0),)))


def test_divergent_tail_hint():
    with pytest.raises(ValueError, match="inf"):
        QuadratureSpec(singularities=((math.inf, -1.0),))


def test_nonconvergent_on_divergent_singularity():
    with pytest.raises(NonConvergent):
        integrate(lambda s: s ** -1.2, 0, 1, QuadratureSpec(max_subdivisions=300))
    # with the default budget the panels at 0 shrink into the subnormals
    # until the cut lands on an end, which must refuse, not crash the heap
    for e in (-1.0, -1.2, -1.5):
        with pytest.raises(NonConvergent):
            integrate(lambda s: s ** e, 0, 1, QuadratureSpec())
    # away from 0 the panels toward the plain split point c reach the float
    # width floor, where a panel cannot be split
    for c in (0.5, 2.0):
        for e in (-1.0, -1.05, -1.2, -1.5):
            with pytest.raises(NonConvergent):
                integrate(lambda s: np.abs(s - c) ** e, 0, c + 1.0,
                          QuadratureSpec(singularities=((c, 0.0),)))


# -- singularities away from 0 -----------------------------------------------

def _split_power_exact(c, b, e, weight):
    """int_0^b |s - c|^e w(s) ds for w = 1 or w = s, 0 < c < b."""
    left, right = c ** (e + 1) / (e + 1), (b - c) ** (e + 1) / (e + 1)
    if weight == "1":
        return left + right
    return (c * left - c ** (e + 2) / (e + 2)
            + c * right + (b - c) ** (e + 2) / (e + 2))


BATTERY = [(c, b, e, w) for c in (0.3, 0.5, 1.0, 2.0, 7.3)
           for b in (1.5 * c, c + 3.0)
           for e in (-0.1, -0.3, -0.5, -0.7, -0.9)
           for w in ("1", "s")]


@functools.lru_cache(maxsize=None)
def _battery_result(c, b, e, w):
    f = lambda s: np.abs(s - c) ** e * (1.0 if w == "1" else s)
    return integrate(f, 0.0, b, QuadratureSpec(singularities=((c, e),)))


def _battery_id(case):
    c, b, e, w = case
    return f"c={c:g}-b={b:g}-e={e:g}-w={w}"


@pytest.mark.parametrize("case", BATTERY, ids=[_battery_id(k) for k in BATTERY])
def test_split_power_battery_value(case):
    exact = _split_power_exact(*case)
    value, _ = _battery_result(*case)
    assert abs(value - exact) <= 5 * QuadratureSpec().rel_tol * abs(exact)


@pytest.mark.parametrize("case", BATTERY, ids=[_battery_id(k) for k in BATTERY])
def test_split_power_battery_error_bar(case):
    value, err = _battery_result(*case)
    assert err >= abs(value - _split_power_exact(*case))


_JACOBI_EXPONENTS = (-0.999, -0.975, -0.9, -0.5, 0.0, 0.3, 2.5)


@pytest.mark.parametrize("order", [7, 15])
@pytest.mark.parametrize("ea", _JACOBI_EXPONENTS)
@pytest.mark.parametrize("eb", _JACOBI_EXPONENTS)
def test_jacobi_rule_against_beta_closed_form(order, ea, eb):
    # int_{-1}^{1} (1+x)^ea (1-x)^eb ((1+x)/2)^k dx = 2^(ea+eb+1) B(ea+k+1, eb+1),
    # exact for every k < 2 order; the rule's weights have the weight divided out
    nodes, weights = _rule(order, ea, eb)
    for k in range(2 * order):
        got = math.fsum(weights * (1.0 + nodes) ** ea * (1.0 - nodes) ** eb
                        * ((1.0 + nodes) / 2.0) ** k)
        with mpmath.workdps(30):
            exact = mpmath.mpf(2) ** (ea + eb + 1) * mpmath.beta(ea + k + 1, eb + 1)
        assert abs(got - exact) <= 1e-12 * exact


def test_rule_cache_holds_a_few_hundred_rules():
    # one verify-sweep batch of the benchmark uses 286 distinct (order, ea,
    # eb) keys; a repeated pass over more than that rebuilds no rule
    keys = [(order, ea, eb) for order in (7, 15)
            for ea in np.linspace(-0.95, 2.0, 15) for eb in np.linspace(-0.95, 2.0, 11)]
    assert len(set(keys)) >= 300
    for key in keys:
        _rule(*key)
    misses = _rule.cache_info().misses
    for key in keys:
        _rule(*key)
    assert _rule.cache_info().misses == misses


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureSpec(singularities=((0.5, 0.0), (0.4, 0.0)))
    with pytest.raises(ValueError, match="0.5"):
        QuadratureSpec(singularities=((0.5, -1.0),))
    # the spec and convergence_screen share one rule, borderline band included
    with pytest.raises(ValueError, match="0.0"):
        QuadratureSpec(singularities=((0.0, -1.0 + 1e-10),))
    with pytest.raises(ValueError, match="inf"):
        QuadratureSpec(singularities=((math.inf, -0.5),))
    with pytest.raises(ValueError):
        integrate(lambda s: s, 1.0, 0.5)
    # -inf is below every lower limit, not a second spelling of the inf tail
    with pytest.raises(ValueError, match="a < b"):
        integrate(lambda s: np.exp(-np.abs(s)), 0.0, -math.inf,
                  QuadratureSpec(singularities=((math.inf, -2.0),)))


def test_error_estimate_is_conservative_on_smooth():
    res = integrate(lambda s: np.sin(s), 0, math.pi)
    assert abs(res.value - 2.0) <= max(res.error, 1e-14)


# -- convergence screen ------------------------------------------------------

def test_screen_borderline_is_divergent():
    # the order-zero singular-solution self pairing in n = 1: exponent at the
    # origin is exactly -1, the logarithmic borderline
    res = convergence_screen(((0.0, -1.0), (math.inf, -1.5)))
    assert not res.convergent and res.failing_location == 0.0


def test_screen_convergent_cross_pair():
    n, lam = 3, 1.0
    at_zero = -(n - lam / 2) + (n - 1)
    at_inf = -(n + lam / 2) + (n - 1)
    res = convergence_screen(((0.0, at_zero), (math.inf, at_inf)))
    assert res.convergent and res.failing_location is None


def test_screen_empty_budget_convergent():
    assert convergence_screen(()).convergent


def test_screen_divergent_at_infinity():
    res = convergence_screen(((0.0, 0.5), (math.inf, -1.0)))
    assert not res.convergent and math.isinf(res.failing_location)


@pytest.mark.parametrize("location", [0.0, math.inf])
def test_screen_nan_exponent_fails_at_its_location(location):
    # every comparison with NaN is false, which must not read as convergent
    res = convergence_screen(((location, math.nan),))
    assert not res.convergent and res.failing_location == location
    with pytest.raises(ValueError, match="diverges"):
        QuadratureSpec(singularities=((location, math.nan),))


def test_screen_reports_first_failure():
    res = convergence_screen(((0.0, -2.0), (1.0, -3.0)))
    assert res.failing_location == 0.0

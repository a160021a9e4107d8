import functools
import math

import mpmath
import numpy as np
import pytest

from liebeq import quadrature
from liebeq.quadrature import (NonConvergent, QuadratureSpec, _panel_rule, _rule,
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
    assert actual <= spec.rel_tol * abs(exact) * 5
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
    assert abs(lhs - rhs) <= 3 * spec.rel_tol * abs(rhs)


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


def _order(p, sources):
    """The k of error ~ width^k that p's cut from its source showed: the
    (error, width) of the panel it was cut from, in sources by (a, b); at
    least 1, and 1 without a finite drop."""
    error, width = sources.get((p.a, p.b), (math.inf, math.inf))
    if not 0.0 < p.error < error < math.inf:
        return 1.0
    return max(1.0, math.log(error / p.error) / math.log(width / (p.b - p.a)))


def _round_children(live, spec, sources):
    """The panels a round pops from live, worst first until their errors
    cover the excess over the target, and the (a, b, left, right) children
    it evaluates: a panel whose one cell boundary is a location the spec
    declares is cut ceil(log4(error / target) / k) times (at least once)
    toward it, k its _order, by split_point on the end child each time,
    each cut's far child listed in turn and the end child last; any other
    panel is cut once, left child before right.  sources gains the
    (error, width) each child was cut from."""
    declared = {loc for loc, _ in spec.singularities}
    err = math.fsum(p.error for p in live)
    target = spec.rel_tol * math.fsum(abs(p.value) for p in live)
    popped, children = [], []
    for p in sorted(live, key=lambda p: (-p.error, p.folded, p.a)):
        if popped and sum(q.error for q in popped) >= err - target:
            break
        popped.append(p)
        one_end = (p.left is None) != (p.right is None)
        toward = (p.a if p.left is not None else p.b) in declared and one_end
        depth = max(1, math.ceil(math.log(p.error / target, 4) / _order(p, sources))) \
            if toward else 1
        q, mesh = p, []
        for _ in range(depth):
            cut = q.split_point()
            lo = quadrature._Panel(q.a, cut, q.left, None, q.folded)
            hi = quadrature._Panel(cut, q.b, None, q.right, q.folded)
            far, q = (hi, lo) if one_end and p.left is not None else (lo, hi)
            mesh.append(far)
        for c in mesh + [q]:
            sources[c.a, c.b] = (p.error, p.b - p.a)
            children.append((c.a, c.b, c.left, c.right))
    return popped, children


def _pinned_rounds(monkeypatch, f, spec):
    """Integrate f over [0, 1], checking that the initial cell is one call on
    its 15 + 7 nodes and each round after it one call on the nodes of the
    children _round_children rebuilds, in pop order; the (popped, children)
    of each round."""
    calls, live, rounds, sources = [], [], [], {}
    evaluate = quadrature._evaluate

    def recorded(f, panels):
        evaluate(f, panels)
        if live:
            popped, children = _round_children(live, spec, sources)
            assert [(p.a, p.b, p.left, p.right) for p in panels] == children
            assert np.array_equal(calls[-1], np.concatenate([
                _panel_nodes(a, b, left or 0.0, right or 0.0) for a, b, left, right in children]))
            rounds.append((popped, children))
            live[:] = [p for p in live if all(p is not q for q in popped)]
        live.extend(panels)

    monkeypatch.setattr(quadrature, "_evaluate", recorded)
    result = integrate(lambda x: calls.append(np.array(x)) or f(x), 0.0, 1.0, spec)
    ea = dict(spec.singularities).get(0.0, 0.0)
    assert np.array_equal(calls[0], _panel_nodes(0.0, 1.0, ea, 0.0))
    assert len(calls) == len(rounds) + 1 > 2
    assert any(len(popped) > 1 for popped, _ in rounds)
    # a node's value does not depend on its batch, so neither does the result
    chunked = lambda x: np.concatenate([f(x[i:i + 22]) for i in range(0, x.size, 22)])
    monkeypatch.undo()
    assert integrate(chunked, 0.0, 1.0, spec) == result
    return rounds


@pytest.mark.parametrize("f,spec,jacobi", [
    (lambda s: np.exp(3.0 * s) * np.sin(37.0 * s), QuadratureSpec(), False),
    (lambda s: s ** -0.5 * np.cos(20.0 * s), QuadratureSpec(singularities=((0.0, -0.5),)), True),
])
def test_one_integrand_call_per_round(monkeypatch, f, spec, jacobi):
    # one call a round, on the children of every popped panel in pop order.
    # The undeclared end 1 takes one cut a round, and so does the declared
    # end 0 of s^-1/2 cos(20 s), whose weight captures it exactly
    rounds = _pinned_rounds(monkeypatch, f, spec)
    assert all(len(children) == 2 * len(popped) for popped, children in rounds)
    assert any(left not in (None, 0.0) for _, children in rounds
               for _, _, left, _ in children) == jacobi


def test_one_integrand_call_per_round_with_a_cascade(monkeypatch):
    # the cos(20 s) that s^-1/2 does not multiply makes the declared end 0
    # cascade: its geometric mesh is listed from the first cut to the last,
    # in the round's one call
    rounds = _pinned_rounds(monkeypatch, lambda s: (1.0 + s ** -0.5) * np.cos(20.0 * s),
                            QuadratureSpec(singularities=((0.0, -0.5),)))
    assert any(len(children) > 2 * len(popped) for popped, children in rounds)


def _covered_rounds(monkeypatch, f, spec):
    """Integrate f over [0, 1], checking scipy's quad_vec rule in each round:
    it pops the worst panels until their errors reach the excess of the
    summed errors over the target.  A popped panel may be replaced by a
    cascade of children, whose own cuts are not pops.  The (value, error)
    and the (pops, children) of each round."""
    live, popped, rounds = [], [], []
    split_point, evaluate = quadrature._Panel.split_point, quadrature._evaluate

    def recorded_split(panel):
        if any(panel is p for p in live):
            popped.append(panel)
        return split_point(panel)

    def recorded_evaluate(f, panels):
        if popped:
            kept = [p for p in live if all(p is not q for q in popped)]
            excess = (math.fsum(p.error for p in live)
                      - spec.rel_tol * math.fsum(abs(p.value) for p in live))
            errors = [p.error for p in popped]
            assert errors == sorted(errors, reverse=True)
            assert errors[-1] >= max((p.error for p in kept), default=0.0)
            assert sum(errors[:-1]) < excess <= sum(errors)
            rounds.append((len(popped), len(panels)))
            live[:], popped[:] = kept, []
        evaluate(f, panels)
        live.extend(panels)

    monkeypatch.setattr(quadrature._Panel, "split_point", recorded_split)
    monkeypatch.setattr(quadrature, "_evaluate", recorded_evaluate)
    value, err = integrate(f, 0.0, 1.0, spec)
    monkeypatch.undo()
    return value, err, rounds


def _fresnel_like():
    """int_0^1 x^-1/2 cos(20 x) dx = 2 int_0^1 cos(20 t^2) dt (x = t^2)."""
    with mpmath.workdps(30):
        return 2 * mpmath.quad(lambda t: mpmath.cos(20 * t * t), [0, 0.5, 1])


def test_round_splits_the_fewest_worst_panels_that_cover_the_excess(monkeypatch):
    # the weight x^-1/2 captures this integrand's end exactly: one cut a round
    spec = QuadratureSpec(rel_tol=1e-12, singularities=((0.0, -0.5),))
    value, err, rounds = _covered_rounds(monkeypatch, lambda x: x ** -0.5 * np.cos(20.0 * x), spec)
    assert max(pops for pops, _ in rounds) > 1 and err <= spec.rel_tol * abs(value)
    assert all(children == 2 * pops for pops, children in rounds)
    exact = float(_fresnel_like())
    assert abs(value - exact) <= err + 8 * math.ulp(exact)


def test_round_covers_the_excess_when_a_panel_cascades(monkeypatch):
    # the 2 + cos(20 x) that x^-1/2 does not multiply makes the end 0 cascade
    spec = QuadratureSpec(rel_tol=1e-12, singularities=((0.0, -0.5),))
    value, err, rounds = _covered_rounds(
        monkeypatch, lambda x: (1.0 + x ** -0.5) * (2.0 + np.cos(20.0 * x)), spec)
    assert max(pops for pops, _ in rounds) > 1 and err <= spec.rel_tol * abs(value)
    assert any(children > 2 * pops for pops, children in rounds)
    with mpmath.workdps(30):
        exact = float(_fresnel_like() + 6 + mpmath.sin(20) / 20)
    assert abs(value - exact) <= err + 8 * math.ulp(exact)


# -- geometric cascades toward a declared end --------------------------------

@pytest.mark.parametrize("panel", [
    quadrature._Panel(0.0, 1.0, -0.5, None, declared=(True, False), error=0.25),
    quadrature._Panel(-3.0, 0.7, None, -0.25, declared=(False, True), error=1e-3),
    quadrature._Panel(0.0, 0.5, 1.5, None, True, (True, False), error=2.0),
])
def test_cascade_cuts_are_successive_split_points(panel):
    # the mesh is the one successive rounds would build: split_point applied
    # again to the end child, bit for bit, each cut's far child in turn; the
    # end child alone keeps the declared end, and each child records the
    # (error, width) of the panel it was cut from
    end, expected = panel, []
    for _ in range(6):
        cut = end.split_point()
        lo = quadrature._Panel(end.a, cut, end.left, None, end.folded)
        hi = quadrature._Panel(cut, end.b, None, end.right, end.folded)
        far, end = (hi, lo) if panel.left is not None else (lo, hi)
        expected.append(far)
    children = panel.cut(6)
    assert [(c.a, c.b, c.left, c.right, c.folded) for c in children] == \
        [(c.a, c.b, c.left, c.right, c.folded) for c in expected + [end]]
    assert [c.declared for c in children] == [(False, False)] * 6 + [panel.declared]
    assert {c.source for c in children} == {(panel.error, panel.b - panel.a)}


@pytest.mark.parametrize("left,right,declared,cut", [
    (None, None, (False, False), 0.5),
    (0.0, 0.0, (True, True), 0.5),
    (-0.5, 0.0, (True, False), 0.5),
    # an end of the range that the spec does not list is graded toward but
    # not cascaded; as in a cascade, the child at the end comes last
    (0.0, None, (False, False), 0.25),
    (None, 0.0, (False, False), 0.75),
])
def test_panels_without_exactly_one_declared_end_take_one_cut(left, right, declared, cut):
    children = quadrature._Panel(0.0, 1.0, left, right, declared=declared).cut(9)
    expected = [(0.0, cut, left, None), (cut, 1.0, None, right)]
    if left is not None and right is None:
        expected.reverse()
    assert [(c.a, c.b, c.left, c.right) for c in children] == expected


def test_integrate_declares_only_listed_locations(monkeypatch):
    # the cells' ends and the fold's u = 0 are declared exactly where the
    # spec lists a location: an interior point, a range end, or an inf whose
    # folded exponent -2 - e is not 0 (an (inf, -2.0) tail folds to a
    # smooth end)
    seen = []

    class Seen(Exception):
        pass

    def recorded(f, panels):
        seen.extend((p.a, p.b, p.folded, p.declared) for p in panels)
        raise Seen

    monkeypatch.setattr(quadrature, "_evaluate", recorded)
    for spec, b in ((QuadratureSpec(singularities=((0.0, -0.5), (0.5, 0.0))), 1.0),
                    (QuadratureSpec(singularities=((0.5, 0.0), (math.inf, -2.0))), math.inf),
                    (QuadratureSpec(singularities=((0.5, 0.0), (math.inf, -1.5))), math.inf)):
        with pytest.raises(Seen):
            integrate(np.cos, 0.0, b, spec)
    assert seen == [(0.0, 0.5, False, (True, True)), (0.5, 1.0, False, (True, False)),
                    (0.0, 0.5, False, (False, True)), (0.5, 1.0, False, (True, False)),
                    (0.0, 1.0, True, (False, False)),
                    (0.0, 0.5, False, (False, True)), (0.5, 1.0, False, (True, False)),
                    (0.0, 1.0, True, (True, False))]


@pytest.mark.parametrize("f,singularities,exact", [
    (lambda s: np.exp(-s), ((math.inf, -2.0),), 1.0),
    (lambda s: s ** -0.3 * np.exp(-s), ((0.0, -0.3), (math.inf, -2.0)), math.gamma(0.7)),
], ids=["exp", "power_exp"])
def test_fast_decay_tail_folds_to_a_plain_end(f, singularities, exact):
    # f(1/u) / u^2 is smooth at u = 0 for an (inf, -2.0) tail, so the fold
    # is cut in halves there, not graded: 16 panels of 22 nodes in 5 calls
    # at 1e-12 (a mesh graded toward u = 0 took 374 and 440 nodes)
    sizes = []
    value, err = integrate(lambda x: sizes.append(x.size) or f(x), 0.0, math.inf,
                           QuadratureSpec(rel_tol=1e-12, singularities=singularities))
    assert (len(sizes), sum(sizes)) == (5, 352)
    assert err <= 1e-12 * value
    assert abs(value - exact) <= err + 8 * math.ulp(exact)


def test_order_is_the_rate_the_cut_from_the_source_shows():
    # error ~ width^k from the source's (error, width): a quarter of the
    # width and a 16th of the error is k = 2; at least 1, and 1 without a
    # source or a finite drop
    panel = lambda error, source: quadrature._Panel(
        0.0, 0.25, -0.5, None, declared=(True, False), source=source, error=error)
    assert panel(1.0 / 16.0, (1.0, 1.0)).order() == pytest.approx(2.0, rel=1e-15)
    assert panel(1e-9, (1.0, 1.0)).order() == pytest.approx(9 / math.log10(4), rel=1e-14)
    for error, source in ((0.5, (1.0, 1.0)), (0.25, (1.0, 1.0)), (2.0, (1.0, 1.0)),
                          (0.1, None), (0.1, (math.inf, 1.0)), (math.inf, (1.0, 1.0)),
                          (math.nan, (1.0, 1.0)), (0.0, (1.0, 1.0))):
        assert panel(error, source).order() == 1.0


def test_declared_end_captured_by_its_weight_takes_one_cut(monkeypatch):
    # x^-1/2 cos(20 x) with (0, -1/2) declared: the weight integrates the
    # end exactly, so the panel at 0 shows a large order after its first cut
    # and is cut once a round, as a cell without a cascade would be; with
    # 1 + cos(20 x) added, which the weight does not capture, the order is
    # about 1 and the end cascades
    spec = QuadratureSpec(rel_tol=1e-12, singularities=((0.0, -0.5),))
    sizes = []
    evaluate = quadrature._evaluate
    monkeypatch.setattr(quadrature, "_evaluate",
                        lambda f, panels: sizes.append(len(panels)) or evaluate(f, panels))
    integrate(lambda x: x ** -0.5 * np.cos(20.0 * x), 0.0, 1.0, spec)
    assert sizes == [1, 2, 4, 4, 8]
    sizes.clear()
    integrate(lambda x: (1.0 + x ** -0.5) * np.cos(20.0 * x), 0.0, 1.0, spec)
    assert max(sizes) > 8


@pytest.mark.parametrize("ratio,depth", [
    (0.5, 1), (1.0, 1), (3.9, 1), (4.0, 1), (4.01, 2), (16.0, 2), (17.0, 3),
    (4.0 ** 7, 7), (1.001 * 4.0 ** 7, 8), (1e9, 15), (1e300, 499),
])
def test_cascade_depth_is_log4_of_error_over_target(ratio, depth):
    # each cut toward the end divides the end panel's error by about 4
    assert depth == max(1, math.ceil(math.log(ratio, 4) - 1e-12))
    for target in (1e-12, 1.0, 3.0):
        assert quadrature._depth(ratio * target, target) == depth
        assert quadrature._depth(ratio * target, target, 1.0) == depth


@pytest.mark.parametrize("ratio,order,depth", [
    (4.0 ** 7, 2.0, 4), (4.0 ** 8, 2.0, 4), (1e9, 3.0, 5), (1e9, 15.0, 1), (1e300, 1e3, 1),
])
def test_cascade_depth_divides_by_the_observed_order(ratio, order, depth):
    # an end whose error goes as width^k loses 4^k of it per cut
    for target in (1e-12, 1.0, 3.0):
        assert quadrature._depth(ratio * target, target, order) == depth


@pytest.mark.parametrize("error,target", [
    (math.inf, 1e-9), (math.nan, 1e-9), (1.0, 0.0), (math.inf, 0.0), (1e300, 1e-300),
])
def test_non_finite_error_or_zero_target_takes_one_cut(error, target):
    assert quadrature._depth(error, target) == 1


def test_nan_at_a_declared_end_is_cut_once_per_round(monkeypatch):
    # a panel whose error is not finite has no depth to aim for: the panel at
    # 0 is cut once a round, down to the subnormals, where the run refuses
    sizes = []
    evaluate = quadrature._evaluate
    monkeypatch.setattr(quadrature, "_evaluate",
                        lambda f, panels: sizes.append(len(panels)) or evaluate(f, panels))
    f = lambda s: np.where(s < 1e-3, np.nan, 1.0)
    with pytest.raises(NonConvergent):
        integrate(f, 0.0, 1.0, QuadratureSpec(singularities=((0.0, -0.5),)))
    assert len(sizes) > 500 and set(sizes[-500:]) == {2}


def test_cascade_stops_at_the_float_width_floor():
    # away from 0 the end child reaches widths near 8 eps |x0|, where the
    # cascade stops short of its depth with every cut strictly inside
    floor = lambda a, b: b - a <= 8.0 * quadrature._EPS * max(abs(a), abs(b))
    children = quadrature._Panel(1.0, 1.0 + 2.0 ** -30, 0.0, None, declared=(True, False)).cut(100)
    assert 2 < len(children) < 100 and all(c.a < c.b for c in children)
    # the k-th cut split [1, children[k].b], above the floor; the end child is at it
    assert not any(floor(1.0, c.b) for c in children[:-1])
    assert floor(children[-1].a, children[-1].b)
    # toward 0 the floor scales with position: the panels shrink through the
    # subnormals until a cut lands on the end
    children = quadrature._Panel(0.0, 1.0, -0.5, None, declared=(True, False)).cut(10_000)
    assert 500 < len(children) < 10_000 and all(c.a < c.b for c in children)
    assert children[-1].split_point() in (children[-1].a, children[-1].b)


def test_cascade_stops_at_the_panel_budget(monkeypatch):
    # 1995 cells with a declared singular end on each side: round 1 halves
    # both end cells (1997 panels); in round 2 the first end panel popped
    # cascades with room for three cuts only, its children count toward the
    # budget, so the second is not cut, and the next round refuses
    sizes = []
    evaluate = quadrature._evaluate
    monkeypatch.setattr(quadrature, "_evaluate",
                        lambda f, panels: sizes.append(len(panels)) or evaluate(f, panels))
    spec = QuadratureSpec(rel_tol=1e-12, singularities=(
        (0.0, -0.5), *((float(k), 0.0) for k in range(1, 1995)), (1995.0, -0.5)))
    with pytest.raises(NonConvergent, match="with 2000 panels"):
        integrate(lambda s: 1.0 + s ** -0.5 + (1995.0 - s) ** -0.5, 0.0, 1995.0, spec)
    assert sizes == [1995, 4, 4]


def test_initial_cells_share_one_call():
    # the cells between declared points are evaluated together, in order
    spec = QuadratureSpec(singularities=((0.25, -0.5), (0.5, 0.0)))
    calls = []
    integrate(lambda x: calls.append(np.array(x)) or np.abs(x - 0.25) ** -0.5, 0.0, 1.0, spec)
    assert np.array_equal(calls[0], np.concatenate([_panel_nodes(0.0, 0.25, 0.0, -0.5),
                                                    _panel_nodes(0.25, 0.5, -0.5, 0.0),
                                                    _panel_nodes(0.5, 1.0, 0.0, 0.0)]))


# -- one adaptive run per integral --------------------------------------------

def test_head_cells_and_folded_tail_share_the_first_call():
    # [0, inf) with a split at 0.5 folds at T = 1: the cells [0, 0.5] and
    # [0.5, 1] and the tail panel (0, 1] in u = 1/t take one call
    spec = QuadratureSpec(singularities=((0.5, 0.0), (math.inf, -2.0)))
    calls = []
    integrate(lambda x: calls.append(np.array(x)) or np.exp(-x), 0.0, math.inf, spec)
    assert calls[0].shape == (66,)
    assert np.array_equal(calls[0], np.concatenate([_panel_nodes(0.0, 0.5, 0.0, 0.0),
                                                    _panel_nodes(0.5, 1.0, 0.0, 0.0),
                                                    1.0 / _panel_nodes(0.0, 1.0, 0.0, 0.0)]))


def test_negative_lower_limit_folds_at_one():
    # max(a, 2 * -1) = -2 is not positive: the fold point is 1, after the
    # cells [-2, -1] and [-1, 1]
    spec = QuadratureSpec(singularities=((-1.0, 0.0), (math.inf, -2.0)))
    calls = []
    value, err = integrate(lambda x: calls.append(np.array(x)) or 1.0 / (1.0 + x * x),
                           -2.0, math.inf, spec)
    assert np.array_equal(calls[0], np.concatenate([_panel_nodes(-2.0, -1.0, 0.0, 0.0),
                                                    _panel_nodes(-1.0, 1.0, 0.0, 0.0),
                                                    1.0 / _panel_nodes(0.0, 1.0, 0.0, 0.0)]))
    exact = math.pi / 2 + math.atan(2.0)
    assert abs(value - exact) <= err
    assert err <= spec.rel_tol * exact


def test_positive_lower_limit_is_folded_whole():
    # [a, inf) with a > 0 and nothing declared inside is the one panel
    # (0, 1/a] in u = 1/t: every node of the first call lies in [a, inf)
    a = 0.25
    spec = QuadratureSpec(singularities=((math.inf, -2.0),))
    calls = []
    value, err = integrate(lambda x: calls.append(np.array(x)) or 1.0 / (1.0 + x * x),
                           a, math.inf, spec)
    assert np.all(calls[0] >= a)
    assert np.array_equal(calls[0], 1.0 / _panel_nodes(0.0, 1.0 / a, 0.0, 0.0))
    assert abs(value - (math.pi / 2 - math.atan(a))) <= err


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10, 1e-13])
def test_one_target_for_head_and_tail(rel_tol):
    # a one-signed integrand: the summed |panel values| is |value|, and the
    # head and the folded tail meet one target together
    spec = QuadratureSpec(rel_tol=rel_tol, singularities=((0.0, -0.5), (math.inf, -2.0)))
    calls = []
    value, err = integrate(lambda x: calls.append(np.array(x)) or x ** -0.5 * np.exp(-x),
                           0.0, math.inf, spec)
    assert np.any(calls[0] < 1.0) and np.any(calls[0] > 1.0)
    assert err <= rel_tol * abs(value)
    assert abs(value - math.sqrt(math.pi)) <= err + 8 * math.ulp(math.sqrt(math.pi))


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
    # the panels at 0 shrink into the subnormals until the cut lands on an
    # end, which must refuse, not crash the heap
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


def test_panel_budget_runs_out_at_2000_panels():
    # 400 undeclared kinks need more panels than one integral may hold
    with pytest.raises(NonConvergent, match="with 2000 panels"):
        integrate(lambda s: np.abs(np.sin(400.0 * np.pi * s)), 0, 1)


# -- per-side exponents ------------------------------------------------------

def test_per_side_exponents_within_the_bar():
    # |t|^(-0.3) left of 0 and t^(-0.7) right of it: each cell at 0 takes the
    # Gauss-Jacobi rule of its own side
    spec = QuadratureSpec(singularities=((0.0, (-0.3, -0.7)),))
    calls = []
    value, err = integrate(lambda t: calls.append(np.array(t)) or
                           np.where(t < 0.0, np.abs(t) ** -0.3, np.abs(t) ** -0.7),
                           -1.0, 1.0, spec)
    assert np.array_equal(calls[0], np.concatenate([_panel_nodes(-1.0, 0.0, 0.0, -0.3),
                                                    _panel_nodes(0.0, 1.0, -0.7, 0.0)]))
    assert abs(value - (1.0 / 0.7 + 1.0 / 0.3)) <= err


@pytest.mark.parametrize("sides", [(-1.0, -0.5), (-0.5, -1.0), (-0.5, -1.0 + 1e-10),
                                   (-1.5, 0.0), (0.0, math.nan)])
def test_per_side_exponent_at_or_below_minus_one_is_refused(sides):
    assert convergence_screen(((0.0, sides),)).failing_location == 0.0
    with pytest.raises(ValueError, match="at 0.0 diverges"):
        QuadratureSpec(singularities=((0.0, sides),))


@pytest.mark.parametrize("exponent", [(-0.5, -0.5, -0.5), (-0.5,), "-0.5", None,
                                      ("-0.5", 0.0), ((-0.5, 0.0), 0.0)])
def test_per_side_exponent_is_a_pair(exponent):
    with pytest.raises(ValueError, match="pair"):
        QuadratureSpec(singularities=((0.0, exponent),))


def test_exponent_forms_are_stored_as_float_or_tuple():
    # a list pair is kept as a tuple, so every reader sees one of two forms
    spec = QuadratureSpec(singularities=((0, [-0.25, np.float32(-0.5)]), (1, -0.5)))
    assert spec.singularities == ((0.0, (-0.25, -0.5)), (1.0, -0.5))
    assert type(spec.singularities[0][1]) is tuple
    assert all(type(side) is float for side in spec.singularities[0][1])


# -- a declared exponent off by a rounding -----------------------------------

@pytest.mark.parametrize("gap", [1e-3, 1e-5])
@pytest.mark.parametrize("ulps", [-3, 1, 3])
def test_declared_exponent_off_by_a_rounding_within_the_bar(gap, ulps):
    # int_0^1 t^e dt = 1 / (1 + e), declared a few ulps off e: both Gauss
    # orders miss about ulps * ulp(e) / (1 + e) of the value, which their
    # difference cannot show
    e = -1.0 + gap
    spec = QuadratureSpec(singularities=((0.0, e + ulps * math.ulp(e)),))
    value, err = integrate(lambda t: t ** e, 0.0, 1.0, spec)
    assert abs(value - 1.0 / (1.0 + e)) <= err


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
    # one verify-sweep batch of the benchmark uses 175 distinct (ea, eb)
    # keys; a repeated pass over more than that rebuilds no rule
    keys = [(ea, eb) for ea in np.linspace(-0.95, 2.0, 15) for eb in np.linspace(-0.95, 2.0, 13)]
    assert len(set(keys)) >= 175
    for key in keys:
        _panel_rule(*key)
    misses = _panel_rule.cache_info().misses
    for key in keys:
        _panel_rule(*key)
    assert _panel_rule.cache_info().misses == misses


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
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


# -- the scale-free target ---------------------------------------------------

@pytest.mark.parametrize("k", [-600, -100, 100, 600])
def test_power_of_two_scaling_is_exact(k):
    # the target is relative to the summed |panel values|, so every decision
    # of the refinement scales with f: value and error scale bit for bit
    spec = QuadratureSpec(singularities=((math.inf, -2.0),))
    f = lambda s: s ** -0.5 * np.exp(-s)
    base = integrate(f, 0, math.inf, spec)
    scaled = integrate(lambda s: math.ldexp(1.0, k) * f(s), 0, math.inf, spec)
    assert scaled == (math.ldexp(base.value, k), math.ldexp(base.error, k))


def test_cancelling_integral_is_within_its_bar():
    value, err = integrate(lambda s: s, -1.0, 1.0)
    assert abs(value) <= err


def test_zero_integrand_stops_at_zero():
    assert integrate(np.zeros_like, 0.0, 1.0) == (0.0, 0.0)


def test_spec_has_no_absolute_tolerance():
    with pytest.raises(TypeError):
        QuadratureSpec(abs_tol=1e-14)


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

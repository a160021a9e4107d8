"""Deterministic adaptive quadrature for weakly singular 1-D integrals.

Handles integrands that are analytic between declared singular points,
with algebraic or logarithmic singularities of exponent > -1 at interval
endpoints and singular points (one exponent, or a (left, right) pair for
an integrand that differs on the two sides), and declared power-law tails
on [a, inf):
(inf, e) for f(t) ~ t**e, e < -1, and (inf, -2.0) for faster decay.  The
substitution t = 1/u folds the tail [T, inf) to one more panel (0, 1/T],
with an endpoint exponent -2 - e at u = 0, as in QUADPACK's QAGI.
Building a QuadratureSpec validates its declarations by convergence_screen.

Panels are graded geometrically toward cell boundaries.  A panel that
touches a declared exponent e at x0 integrates with the Gauss-Jacobi rule
for the weight |t - x0|^e (Golub & Welsch 1969), every other panel with
Gauss-Legendre; each panel's error is the difference of two orders, at
least QUADPACK's roundoff floor (Piessens et al. 1983), plus the error
both orders share when a declared exponent e is off by a rounding from the
integrand's true power: about eps |e| / (1 + e) of the panel's value, which
matters only for e near -1.  A singularity that
is not declared must be resolved by grading alone: at x0 != 0 float
spacing stops the grading near widths eps*|x0|, and such a panel raises
NonConvergent.

Integrands must be vectorized and pointwise: f(x) for a float 1-D ndarray x
returns an ndarray of the same shape, and a node's value must not depend on
the rest of its batch.  The initial panels (the cells and the folded tail)
share one call, on the nodes of the 15- and 7-point rules of each in turn.
Refinement runs in rounds: each pops the worst panels until their errors
cover the excess of the summed errors over the target (scipy's quad_vec
rule), cuts them and evaluates all their children in one more call, 22
nodes per child.  A panel whose one cell boundary is a declared location
takes at once the whole geometric mesh toward it that its error asks for,
as hp refinement does toward an algebraic singularity (Schwab 1998):
ceil(log4(error / target) / k) cuts at ratio 0.25, where k >= 1 is the
order error ~ width^k its own cut showed, 1 for an end the weight does not
capture and large for one it captures exactly, which then takes one cut.
Any other panel is cut in two.  Everything here is pure and deterministic;
panel values are summed with math.fsum, so the result does not depend on
refinement order.  Refinement stops when the summed panel errors of the
whole integral are at most rel_tol times the summed |panel values|: a
scale-free target, so scaling f by a power of two scales value and error
exactly.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "QuadratureSpec",
    "ScreenResult",
    "QuadResult",
    "NonConvergent",
    "integrate",
    "convergence_screen",
    "check_tolerance",
]

# Exponents this close to -1 are classified as the logarithmic borderline.
_BORDERLINE_EPS = 1e-9


class NonConvergent(Exception):
    """Subdivision budget exhausted without meeting the error tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class ScreenResult:
    convergent: bool
    failing_location: float | None = None

    def __bool__(self):
        return self.convergent


def _sides(e) -> tuple:
    """The (left, right) exponents of a declaration: a pair as given, one
    exponent for both sides."""
    return e if isinstance(e, tuple) else (e, e)


def _exponent(e):
    """A declared exponent in the one form the rest of this module reads: a
    number as a float, a (left, right) pair of numbers, tuple or list, as a
    tuple of two floats."""
    pair = tuple(e) if isinstance(e, (tuple, list)) else None
    if pair is None and isinstance(e, numbers.Real):
        return float(e)
    if pair is not None and len(pair) == 2 and all(isinstance(x, numbers.Real) for x in pair):
        return tuple(map(float, pair))
    raise ValueError("an exponent is one number or a (left, right) pair")


def convergence_screen(singularities) -> ScreenResult:
    """Decide absolute convergence from (location, exponent) pairs.

    Each pair declares integrand ~ |t - location|**exponent near a finite
    location, or ~ t**exponent as t -> inf for location inf; an exponent
    may be a (left, right) tuple, one for each side of its location, and
    both sides are checked.  Returns Convergent iff all finite-location
    exponents are > -1 and the infinity exponent is < -1; the first failing
    location (in listed order) is reported otherwise.  Exponents within
    1e-9 of -1 are treated as the borderline -1 and classified divergent,
    and a NaN exponent fails.
    """
    for loc, e in singularities:
        tail = math.isinf(loc)
        for side in _sides(e):
            if not (side < -1.0 - _BORDERLINE_EPS if tail else side > -1.0 + _BORDERLINE_EPS):
                return ScreenResult(False, math.inf if tail else loc)
    return ScreenResult(True)


def check_tolerance(*tolerances: float, name: str = "tolerance") -> None:
    """Refuse a tolerance that is not positive and finite: -1 refutes an exact
    0, and inf stops a quadrature at its first estimate.  name labels the
    value in the message."""
    for tol in tolerances:
        if not 0 < tol < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and singularity declarations for one integral: rel_tol
    bounds the summed panel errors relative to the summed |panel values|.
    singularities are (location, exponent) pairs declaring integrand
    ~ |t - location|**exponent there, in increasing order of location; the
    exponent may be a (left, right) pair, tuple or list, for an integrand
    that behaves differently on the two sides; it is stored as a tuple, and
    anything else is a ValueError.  A finite location inside (a, b) becomes
    a cell boundary and is never evaluated; exponent 0.0 marks a plain
    split point (a kink, a jump, or a singularity left to grading).
    (inf, e) declares the decay f(t) ~ t**e that integrate needs for an
    infinite upper limit.  The pairs must pass
    convergence_screen, or ValueError names the first failing location.
    These are the only settings: every integral has the same budget of
    _MAX_PANELS = 2000 panels.
    """

    rel_tol: float = 1e-9
    singularities: tuple = ()

    def __post_init__(self):
        check_tolerance(self.rel_tol)
        entries = tuple((float(loc), _exponent(e)) for loc, e in self.singularities)
        if any(b <= a for (a, _), (b, _) in zip(entries, entries[1:])):
            raise ValueError("singularity locations must be strictly increasing")
        screen = convergence_screen(entries)
        if not screen:
            raise ValueError(f"declared singularity at {screen.failing_location} diverges")
        object.__setattr__(self, "singularities", entries)


class QuadResult(NamedTuple):
    value: float
    error: float


# ---------------------------------------------------------------------------
# panel machinery

_GRADING_RATIO = 0.25          # geometric grading toward singular endpoints
_MAX_PANELS = 2000             # the panel budget of one integral
_RULE_LO, _RULE_HI = 7, 15     # Gauss pair for value/error estimation
_EPS = float(np.finfo(float).eps)
_EXPONENT_ULPS = 8.0           # assumed rounding of a declared exponent, in eps |e|


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


# one seed-4 batch of the benchmark's verify-sweep workload uses 350 distinct keys
@lru_cache(maxsize=1024)
def _rule(order: int, ea: float, eb: float):
    """Gauss-Jacobi nodes on [-1, 1] for the weight (1+x)^ea (1-x)^eb, and
    its weights divided by that weight, so that sum(w * f(x)) integrates f
    itself; Gauss-Legendre when both exponents are 0.

    Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi
    matrix of the monic recurrence, the weights the squared first
    components of its eigenvectors times the weight's mass.
    """
    if ea == 0.0 and eb == 0.0:
        return _gl_rule(order)
    al, be = eb, ea                    # the usual (1-x)^alpha (1+x)^beta
    ab = al + be
    k = np.arange(float(order))
    s = 2.0 * k + ab
    # ab / s at k = 0 and (k + ab) / (s - 1) at k = 1 cancel to 1: ab may be 0, 1 + ab too
    diag = (be - al) * np.divide(ab, s, out=np.ones(order), where=k > 0) / (s + 2.0)
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + al) * (k + be) / (s * s * (s + 1.0))
                  * np.divide(k + ab, s - 1.0, out=np.ones(order - 1), where=k > 1))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = math.exp((ab + 1.0) * math.log(2.0) + math.lgamma(al + 1.0)
                    + math.lgamma(be + 1.0) - math.lgamma(ab + 2.0))
    weights = mass * vectors[0] ** 2 / ((1.0 + nodes) ** ea * (1.0 - nodes) ** eb)
    return nodes, weights


# one seed-4 batch of the benchmark's verify-sweep workload uses 175 distinct keys
@lru_cache(maxsize=1024)
def _panel_rule(ea: float, eb: float):
    """The panel rule for end exponents ea, eb: the 15- then 7-point nodes,
    their weights as the two columns of a (22, 2) matrix (G15 on the first 15
    rows, G7 on the last 7), and the (15, 3) columns |w|, |w|/(1+x) and
    |w|/(1-x) of the 15-point rule, which _Panel.fit's roundoff floor sums."""
    nodes, weights = _rule(_RULE_HI, ea, eb)
    nodes_lo, weights_lo = _rule(_RULE_LO, ea, eb)
    both = np.zeros((_RULE_HI + _RULE_LO, 2))
    both[:_RULE_HI, 0], both[_RULE_HI:, 1] = weights, weights_lo
    size = np.abs(weights)
    return (np.concatenate([nodes, nodes_lo]), both,
            np.stack([size, size / (1.0 + nodes), size / (1.0 - nodes)], axis=1))


@dataclass
class _Panel:
    """A panel [a, b].  left and right are the exponents declared at a and b
    when those are cell boundaries (0.0 when none is declared), and None
    inside a cell.  A folded panel lies in u = 1/t and integrates f(1/u)/u^2.
    declared says which of a and b is a location listed in the spec's
    singularities (u = 0 of the fold stands for inf); only toward such a
    point does cut grade a geometric mesh.  source is the (error, width) of
    the panel this one was cut from, None for an initial panel."""

    a: float
    b: float
    left: float | None
    right: float | None
    folded: bool = False
    declared: tuple = (False, False)
    source: tuple | None = None
    value: float = 0.0
    error: float = math.inf

    def order(self) -> float:
        """The k of error ~ width^k that the cut from the source shows, at
        least 1, the order of an end a(t) + |t - x0|^e b(t) whose a the
        weight |t - x0|^e does not capture; 1 without a source or a finite
        drop.  A weight that captures the end exactly shows a large k."""
        if self.source is None or not 0.0 < self.error < self.source[0] < math.inf:
            return 1.0
        error, width = self.source
        return max(1.0, math.log(error / self.error) / math.log(width / (self.b - self.a)))

    def fit(self, fx, rule) -> None:
        """Value from the 15-point rule for the panel's end exponents, error
        max(|G15 - G7|, roundoff floor) + exponent term, from the integrand's
        values fx at the nodes of its _panel_rule.  The floor is QUADPACK's
        50 eps sum|w f|, each term scaled by the first-order gain
        1 + |e x0 / (t - x0)| of rounding t in |t - x0|^e at a declared end x0.
        The exponent term covers a declared e that is a rounded float: off
        by delta from the integrand's true power, both rules miss about
        delta / (1 + e) of the panel's value, since int_0^1 x^e log x dx is
        -1 / (1 + e)^2; delta is taken as _EXPONENT_ULPS eps |e|.
        """
        half = 0.5 * (self.b - self.a)
        _, weights, floor_weights = rule
        hi, lo = (half * (fx @ weights)).tolist()
        plain, at_a, at_b = (np.abs(fx[:_RULE_HI]) @ floor_weights).tolist()
        left, right = self.left or 0.0, self.right or 0.0
        floor = 50.0 * _EPS * (half * plain + abs(left * self.a) * at_a
                               + abs(right * self.b) * at_b)
        shared = _EXPONENT_ULPS * _EPS * half * plain * (abs(left) / (1.0 + left)
                                                         + abs(right) / (1.0 + right))
        if math.isfinite(hi) and math.isfinite(lo):
            self.value, self.error = hi, max(abs(hi - lo), floor) + shared
        else:
            self.value, self.error = 0.0, math.inf

    def split_point(self) -> float:
        w = self.b - self.a
        if self.left is not None and self.right is None:
            return self.a + _GRADING_RATIO * w
        if self.right is not None and self.left is None:
            return self.b - _GRADING_RATIO * w
        return self.a + 0.5 * w

    def cut(self, depth: int) -> list:
        """The children of cutting at split_point: left before right, or
        with exactly one end a cell boundary, the child away from it first.
        When that end is a declared location the child at it is cut again,
        up to depth cuts in all: a geometric mesh, each cut's far child in
        turn and the end child last.  No cut lands outside its panel or
        splits one at the float width floor, which scales with position:
        toward 0 panels shrink through the subnormals until a cut lands on
        an end.  [] when the first cut cannot be made."""
        if (self.left is None) == (self.right is None) or \
                not self.declared[self.left is None]:
            depth = min(depth, 1)
        children, p, src = [], self, (self.error, self.b - self.a)
        for _ in range(depth):
            cut = p.split_point()
            if not p.a < cut < p.b or p.b - p.a <= 8.0 * _EPS * max(abs(p.a), abs(p.b)):
                break
            lo = _Panel(p.a, cut, p.left, None, p.folded, (p.declared[0], False), src)
            hi = _Panel(cut, p.b, None, p.right, p.folded, (False, p.declared[1]), src)
            far, p = (hi, lo) if p.left is not None and p.right is None else (lo, hi)
            children.append(far)
        return children + [p] if children else []


def _depth(error: float, target: float, order: float = 1.0) -> int:
    """The cuts of a geometric mesh toward a declared point x0: an end panel
    whose error goes as width^order loses a factor 4^order of it per cut at
    _GRADING_RATIO = 0.25, so ceil(log4(error / target) / order) cuts (for
    a(t) + |t - x0|^e b(t), order 1: a factor 4), at least 1, and 1 when
    that ratio is not finite (an error that is not, or a zero target)."""
    ratio = error / target if target > 0.0 else math.inf
    return max(1, math.ceil(0.5 * math.log2(ratio) / order)) if 1.0 < ratio < math.inf else 1


def _evaluate(f, panels) -> None:
    """Fit each panel, from one call of f on the nodes of all of them in turn:
    t = 1/u on a folded panel's nodes u, whose values are divided by u^2."""
    rules = [_panel_rule(p.left or 0.0, p.right or 0.0) for p in panels]
    size = _RULE_HI + _RULE_LO
    with np.errstate(all="ignore"):
        nodes = [0.5 * (p.a + p.b) + 0.5 * (p.b - p.a) * rule[0] for p, rule in zip(panels, rules)]
        t = np.concatenate([1.0 / u if p.folded else u for p, u in zip(panels, nodes)])
        fx = np.asarray(f(t), dtype=float)
        for k, (p, rule, u) in enumerate(zip(panels, rules, nodes)):
            fk = fx[k * size:(k + 1) * size]
            p.fit(fk / (u * u) if p.folded else fk, rule)


def _integrate_cells(f, panels: list, spec: QuadratureSpec) -> QuadResult:
    """Adaptive integration from the initial panels, to one error target.

    Each round pops the worst panels, from the top of a heap keyed
    (-error, folded, a), until their errors cover the excess of the summed
    errors over the target (scipy's quad_vec rule), cuts them all and
    evaluates every child in one call of f: the children of each popped
    panel in pop order, as _Panel.cut lists them, with _depth(error,
    target, order) cuts toward a lone declared cell boundary.  The initial panels share one call too.
    Every child counts toward _MAX_PANELS, and a cascade stops at it.  A
    round stops short of a panel it cannot cut: one at the float width
    floor, one whose cut does not land strictly inside it, or any cut past
    _MAX_PANELS panels.  When that panel is the worst of all, the run
    raises NonConvergent.  Cuts land strictly inside, so the panels on each
    side of the fold keep distinct left ends, and the heap never compares
    two panels.
    """
    _evaluate(f, panels)
    heap = [(-p.error, p.folded, p.a, p) for p in panels]
    heapq.heapify(heap)
    while True:
        values = [p.value for _, _, _, p in heap]
        total = math.fsum(values)
        err = math.fsum(p.error for _, _, _, p in heap)
        target = spec.rel_tol * math.fsum(map(abs, values))
        if err <= target and math.isfinite(total):
            return QuadResult(total, err)
        count, covered, children = len(heap), 0.0, []
        while heap and (not children or covered < err - target):
            p = heap[0][3]
            mesh = p.cut(min(_depth(p.error, target, p.order()), _MAX_PANELS - count))
            if not mesh:
                if children:
                    break
                raise NonConvergent(
                    f"estimated error {err:.3e} above target {target:.3e} with "
                    f"{count} panels", value=total, error=err)
            heapq.heappop(heap)
            count, covered = count + len(mesh) - 1, covered + p.error
            children += mesh
        _evaluate(f, children)
        for child in children:
            heapq.heappush(heap, (-child.error, child.folded, child.a, child))


def integrate(f: Callable, a: float, b: float,
              spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate f over (a, b), b possibly infinite, to the spec tolerance.

    Returns (value, err_estimate) with err_estimate the summed error
    estimates of the panels, at most rel_tol times their summed |values|.
    An infinite range is one run: the cells of [a, T] and the tail folded at
    T = max(a, 2 * the largest interior point), or 1 where that is not
    positive.  Raises NonConvergent when the budget of 2000 panels runs out or
    a panel reaches the float width floor (an undeclared singularity away
    from 0, or a divergent one), and ValueError when b is infinite and spec
    declares no (inf, e) tail.
    """
    spec = spec or QuadratureSpec()
    a, b = float(a), float(b)
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if not b > a:
        raise ValueError("need a < b")
    below = {loc: _sides(e)[0] for loc, e in spec.singularities}
    above = {loc: _sides(e)[1] for loc, e in spec.singularities}
    interior = [s for s in below if a < s < b]
    T, tail = b, []
    if math.isinf(b):
        if math.inf not in below:
            raise ValueError("an infinite upper limit needs a declared (inf, exponent) tail")
        T = max(a, 2.0 * max(interior, default=-math.inf))
        T = T if T > 0.0 else 1.0
        # f(1/u) / u^2 ~ u^(-2 - e) at u = 0 when f(t) ~ t^e; u = 1/T keeps
        # the exponent declared above T, which can only be a = T
        tail = [_Panel(0.0, 1.0 / T, -2.0 - below[math.inf], above.get(T, 0.0), True,
                       (True, T in above))]
    cells = [a, *interior, T] if T > a else []
    return _integrate_cells(f, [_Panel(lo, hi, above.get(lo, 0.0), below.get(hi, 0.0), False,
                                       (lo in above, hi in below))
                                for lo, hi in zip(cells, cells[1:])] + tail, spec)

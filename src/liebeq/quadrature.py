"""Deterministic adaptive quadrature for weakly singular 1-D integrals.

Handles integrands that are analytic between declared singular points,
with algebraic or logarithmic singularities of exponent > -1 at interval
endpoints and singular points, and declared power-law tails on [a, inf):
(inf, e) for f(t) ~ t**e, e < -1, and (inf, -2.0) for faster decay.  The
substitution t = 1/u folds a tail to an endpoint exponent -2 - e at u = 0.
Building a QuadratureSpec validates its declarations by convergence_screen.

Panels are graded geometrically toward cell boundaries.  A panel that
touches a declared exponent e at x0 integrates with the Gauss-Jacobi rule
for the weight |t - x0|^e (Golub & Welsch 1969), every other panel with
Gauss-Legendre; each panel's error is the difference of two orders, at
least QUADPACK's roundoff floor (Piessens et al. 1983).  A singularity that
is not declared must be resolved by grading alone: at x0 != 0 float
spacing stops the grading near widths eps*|x0|, and such a panel raises
NonConvergent.

Integrands must be vectorized and pointwise: f(x) for a float 1-D ndarray x
returns an ndarray of the same shape, and a node's value must not depend on
the rest of its batch.  The initial cells take one call, on the nodes of the
15- and 7-point rules of each in turn, and each split takes one more, on the
44 nodes of its left child, then its right child.  Everything here is pure and
deterministic; panel values are summed with math.fsum, so the result does not
depend on refinement order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

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


def convergence_screen(singularities) -> ScreenResult:
    """Decide absolute convergence from (location, exponent) pairs.

    Each pair declares integrand ~ |t - location|**exponent near a finite
    location, or ~ t**exponent as t -> inf for location inf.  Returns
    Convergent iff all finite-location exponents are > -1 and the infinity
    exponent is < -1; the first failing location (in listed order) is
    reported otherwise.  Exponents within 1e-9 of -1 are treated as the
    borderline -1 and classified divergent, and a NaN exponent fails.
    """
    for loc, e in singularities:
        tail = math.isinf(loc)
        if not (e < -1.0 - _BORDERLINE_EPS if tail else e > -1.0 + _BORDERLINE_EPS):
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
    """Tolerances and singularity declarations for one integral.

    singularities are (location, exponent) pairs declaring integrand
    ~ |t - location|**exponent there, in increasing order of location.  A
    finite location inside (a, b) becomes a cell boundary and is never
    evaluated; exponent 0.0 marks a plain split point (a kink, or a
    singularity left to grading).  (inf, e) declares the decay f(t) ~ t**e
    that integrate needs for an infinite upper limit.  The pairs must pass
    convergence_screen, or ValueError names the first failing location.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    singularities: tuple = ()

    def __post_init__(self):
        check_tolerance(self.rel_tol, self.abs_tol)
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        entries = tuple((float(loc), float(e)) for loc, e in self.singularities)
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
_RULE_LO, _RULE_HI = 7, 15     # Gauss pair for value/error estimation
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


# one batch of the benchmark's verify-sweep workload uses 286 distinct keys
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


# one batch of the benchmark's verify-sweep workload uses about 145 distinct keys
@lru_cache(maxsize=1024)
def _panel_rule(ea: float, eb: float):
    """The 15- then 7-point nodes of the panel rule for end exponents ea, eb,
    the weights of each rule, and 1 + x and 1 - x at the 15 nodes."""
    nodes, weights = _rule(_RULE_HI, ea, eb)
    nodes_lo, weights_lo = _rule(_RULE_LO, ea, eb)
    return (np.concatenate([nodes, nodes_lo]), weights, weights_lo,
            1.0 + nodes, 1.0 - nodes)


@dataclass
class _Panel:
    """A panel [a, b].  left and right are the exponents declared at a and b
    when those are cell boundaries (0.0 when none is declared), and None
    inside a cell."""

    a: float
    b: float
    left: float | None
    right: float | None
    value: float = 0.0
    error: float = math.inf

    def fit(self, fx, rule) -> None:
        """Value from the 15-point rule for the panel's end exponents, error
        max(|G15 - G7|, roundoff floor), from the integrand's values fx at
        the nodes of its _panel_rule.  The floor is QUADPACK's 50 eps
        sum|w f|, each term scaled by the first-order gain
        1 + |e x0 / (t - x0)| of rounding t in |t - x0|^e at a declared end x0.
        """
        half = 0.5 * (self.b - self.a)
        _, weights, weights_lo, plus, minus = rule
        fx, fx_lo = fx[:_RULE_HI], fx[_RULE_HI:]
        hi = half * float(np.dot(weights, fx))
        lo = half * float(np.dot(weights_lo, fx_lo))
        gain = 1.0 + (abs((self.left or 0.0) * self.a) / plus
                      + abs((self.right or 0.0) * self.b) / minus) / half
        floor = 50.0 * _EPS * half * float(np.dot(np.abs(weights * fx), gain))
        if math.isfinite(hi) and math.isfinite(lo):
            self.value, self.error = hi, max(abs(hi - lo), floor)
        else:
            self.value, self.error = 0.0, math.inf

    def split_point(self) -> float:
        w = self.b - self.a
        if self.left is not None and self.right is None:
            return self.a + _GRADING_RATIO * w
        if self.right is not None and self.left is None:
            return self.b - _GRADING_RATIO * w
        return self.a + 0.5 * w


def _evaluate(f, panels) -> None:
    """Fit each panel, from one call of f on the nodes of all of them in turn."""
    rules = [_panel_rule(p.left or 0.0, p.right or 0.0) for p in panels]
    size = _RULE_HI + _RULE_LO
    with np.errstate(all="ignore"):
        fx = np.asarray(f(np.concatenate([0.5 * (p.a + p.b) + 0.5 * (p.b - p.a) * rule[0]
                                          for p, rule in zip(panels, rules)])), dtype=float)
        for k, (p, rule) in enumerate(zip(panels, rules)):
            p.fit(fx[k * size:(k + 1) * size], rule)


def _integrate_cells(f, boundaries: Sequence[float], exponents: dict,
                     spec: QuadratureSpec) -> QuadResult:
    """Adaptive integration over cells whose boundaries may all be singular.

    exponents maps a boundary to the exponent declared there.  The worst
    panel, the top of a heap keyed (-error, a), is split until the error
    target is met; a panel at the float width floor, or one whose cut
    does not land strictly inside it, cannot be split and raises
    NonConvergent; so panels keep distinct left ends, and the heap never
    compares two panels.  The initial cells share one call of f, and so do
    the two children of each split.
    """
    panels = [_Panel(a, b, exponents.get(a, 0.0), exponents.get(b, 0.0))
              for a, b in zip(boundaries, boundaries[1:])]
    _evaluate(f, panels)
    heap = [(-p.error, p.a, p) for p in panels]
    heapq.heapify(heap)
    while True:
        total = math.fsum(p.value for _, _, p in heap)
        err = math.fsum(p.error for _, _, p in heap)
        target = max(spec.rel_tol * abs(total), spec.abs_tol)
        if err <= target and math.isfinite(total):
            return QuadResult(total, err)
        p = heap[0][2]
        cut = p.split_point()
        # the width floor scales with position: toward 0 panels shrink on
        # through the subnormals until the cut lands on an end
        if len(heap) >= spec.max_subdivisions or not p.a < cut < p.b or \
                p.b - p.a <= 8.0 * _EPS * max(abs(p.a), abs(p.b)):
            raise NonConvergent(
                f"estimated error {err:.3e} above target {target:.3e} with "
                f"{len(heap)} panels", value=total, error=err)
        heapq.heappop(heap)
        children = (_Panel(p.a, cut, p.left, None), _Panel(cut, p.b, None, p.right))
        _evaluate(f, children)
        for child in children:
            heapq.heappush(heap, (-child.error, child.a, child))


def integrate(f: Callable, a: float, b: float,
              spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate f over (a, b), b possibly infinite, to the spec tolerances.

    Returns (value, err_estimate) with err_estimate the summed error
    estimates of the panels.  Raises NonConvergent when the subdivision
    budget runs out or a panel reaches the float width floor (an undeclared
    singularity away from 0, or a divergent one), and ValueError when b is
    infinite and spec declares no (inf, e) tail.
    """
    spec = spec or QuadratureSpec()
    a, b = float(a), float(b)
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    if not b > a:
        raise ValueError("need a < b")
    exponents = dict(spec.singularities)
    interior = [s for s in exponents if a < s < b]

    if math.isfinite(b):
        return _integrate_cells(f, [a, *interior, b], exponents, spec)
    if math.inf not in exponents:
        raise ValueError("an infinite upper limit needs a declared (inf, exponent) tail")

    # infinite upper limit: finite part up to T, then fold [T, inf) to (0, 1/T]
    T = max(1.0, 2.0 * max(interior, default=0.0), a)

    def folded(u):
        u = np.asarray(u, dtype=float)
        return np.asarray(f(1.0 / u), dtype=float) / (u * u)

    # f(1/u) / u^2 ~ u^(-2 - e) at u = 0 when f(t) ~ t^e; u = 1/T keeps the
    # exponent declared at T, which can only be a = T
    folded_exponents = {0.0: -2.0 - exponents[math.inf],
                        1.0 / T: exponents.get(T, 0.0)}
    tail = _integrate_cells(folded, [0.0, 1.0 / T], folded_exponents, spec)
    if T == a:
        return tail
    head = _integrate_cells(f, [a, *interior, T], exponents, spec)
    return QuadResult(head.value + tail.value, head.error + tail.error)

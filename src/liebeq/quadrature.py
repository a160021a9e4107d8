"""Deterministic adaptive quadrature for weakly singular 1-D integrals.

Handles integrands that are analytic between declared singular points,
with algebraic or logarithmic singularities of exponent > -1 at interval
endpoints and singular points, and power-law tails on [a, inf).  Infinite
tails are folded to a finite cell by the substitution t = 1/u, which turns
a power tail into an algebraic endpoint singularity at u = 0.

Panels are graded geometrically toward cell boundaries.  A panel that
touches a declared exponent e at x0 integrates with the Gauss-Jacobi rule
for the weight |t - x0|^e (Golub & Welsch 1969), every other panel with
Gauss-Legendre; each panel's error is the difference of two orders, at
least QUADPACK's roundoff floor (Piessens et al. 1983).  A singularity that
is not declared must be resolved by grading alone: at x0 != 0 float
spacing stops the grading near widths eps*|x0|, and such a panel raises
NonConvergent.

Integrands must be vectorized: f(x) for a float 1-D ndarray x returns an
ndarray of the same shape.  Everything here is pure and deterministic;
panel values are summed with math.fsum, so the result does not depend on
refinement order.
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
    "SingularityBudget",
    "ScreenResult",
    "QuadResult",
    "NonConvergent",
    "DivergentTail",
    "integrate",
    "convergence_screen",
]

# Exponents this close to -1 are classified as the logarithmic borderline.
_BORDERLINE_EPS = 1e-9


class NonConvergent(Exception):
    """Subdivision budget exhausted without meeting the error tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class DivergentTail(Exception):
    """The integrand decays too slowly at infinity (exponent >= -1)."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and singularity declarations for one integral.

    singularities are (location, exponent) pairs, as in SingularityBudget,
    declaring integrand ~ |t - location|**exponent there, in increasing
    order of location.  A finite location inside (a, b) becomes a cell
    boundary and is never evaluated; exponent 0.0 marks a plain split point
    (a kink, or a singularity left to grading), and a finite exponent must
    be > -1.  (inf, e) declares the decay f(t) ~ t**e of a tail; without it
    an automatic geometric probe estimates the decay.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    singularities: tuple = ()

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        entries = tuple((float(loc), float(e)) for loc, e in self.singularities)
        if any(b <= a for (a, _), (b, _) in zip(entries, entries[1:])):
            raise ValueError("singularity locations must be strictly increasing")
        if any(math.isfinite(loc) and e <= -1.0 for loc, e in entries):
            raise ValueError("a finite singularity needs an exponent > -1")
        object.__setattr__(self, "singularities", entries)


class QuadResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class SingularityBudget:
    """Local power exponents of an integrand at its singular locations.

    Each entry is (location, exponent) with location a finite float or
    math.inf, describing integrand ~ |t - t0|**e near t0 (respectively
    ~ t**e as t -> inf).  The integral converges absolutely iff every
    finite exponent is > -1 and the infinity exponent is < -1; an exponent
    of exactly -1 anywhere is the divergent logarithmic borderline.
    """

    local_exponents: tuple = ()

    def __post_init__(self):
        entries = tuple((float(loc), float(e)) for loc, e in self.local_exponents)
        object.__setattr__(self, "local_exponents", entries)


@dataclass(frozen=True)
class ScreenResult:
    convergent: bool
    failing_location: float | None = None

    def __bool__(self):
        return self.convergent


def convergence_screen(budget: SingularityBudget) -> ScreenResult:
    """Decide absolute convergence from a singularity budget.

    Returns Convergent iff all finite-location exponents are > -1 and the
    infinity exponent is < -1; the first failing location (in listed
    order) is reported otherwise.  Exponents within 1e-9 of -1 are treated
    as the borderline -1 and classified divergent.
    """
    for loc, e in budget.local_exponents:
        if math.isinf(loc):
            if e >= -1.0 - _BORDERLINE_EPS:
                return ScreenResult(False, math.inf)
        else:
            if e <= -1.0 + _BORDERLINE_EPS:
                return ScreenResult(False, loc)
    return ScreenResult(True, None)


# ---------------------------------------------------------------------------
# panel machinery

_GRADING_RATIO = 0.25          # geometric grading toward singular endpoints
_RULE_LO, _RULE_HI = 7, 15     # Gauss pair for value/error estimation
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


@lru_cache(maxsize=256)
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

    def evaluate(self, f) -> None:
        """Value from the 15-point rule for the panel's end exponents, error
        max(|G15 - G7|, roundoff floor).  The floor is QUADPACK's
        50 eps sum|w f|, each term scaled by the first-order gain
        1 + |e x0 / (t - x0)| of rounding t in |t - x0|^e at a declared end x0.
        """
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        ea, eb = self.left or 0.0, self.right or 0.0
        vals = []
        for order in (_RULE_HI, _RULE_LO):
            nodes, weights = _rule(order, ea, eb)
            with np.errstate(all="ignore"):
                fx = np.asarray(f(mid + half * nodes), dtype=float)
                vals.append(half * float(np.dot(weights, fx)))
                if order == _RULE_HI:
                    gain = 1.0 + (abs(ea * self.a) / (1.0 + nodes)
                                  + abs(eb * self.b) / (1.0 - nodes)) / half
                    floor = 50.0 * _EPS * half * float(np.dot(np.abs(weights * fx), gain))
        hi, lo = vals
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


def _integrate_cells(f, boundaries: Sequence[float], exponents: dict,
                     spec: QuadratureSpec) -> QuadResult:
    """Adaptive integration over cells whose boundaries may all be singular.

    exponents maps a boundary to the exponent declared there.  The worst
    panel, the top of a heap keyed (-error, a), is split until the error
    target is met; a panel at the float width floor cannot be split and
    raises NonConvergent.
    """
    heap = []
    for a, b in zip(boundaries, boundaries[1:]):
        p = _Panel(a, b, exponents.get(a, 0.0), exponents.get(b, 0.0))
        p.evaluate(f)
        heap.append((-p.error, a, p))
    heapq.heapify(heap)
    while True:
        total = math.fsum(p.value for _, _, p in heap)
        err = math.fsum(p.error for _, _, p in heap)
        target = max(spec.rel_tol * abs(total), spec.abs_tol)
        if err <= target and math.isfinite(total):
            return QuadResult(total, err)
        p = heap[0][2]
        # the width floor scales with position: toward 0 panels shrink on
        if len(heap) >= spec.max_subdivisions or \
                p.b - p.a <= 8.0 * _EPS * max(abs(p.a), abs(p.b)):
            raise NonConvergent(
                f"estimated error {err:.3e} above target {target:.3e} with "
                f"{len(heap)} panels", value=total, error=err)
        heapq.heappop(heap)
        cut = p.split_point()
        for child in (_Panel(p.a, cut, p.left, None), _Panel(cut, p.b, None, p.right)):
            child.evaluate(f)
            heapq.heappush(heap, (-child.error, child.a, child))


def _probe_tail_exponent(f, T: float) -> float:
    """Estimate the power-law decay exponent of f by geometric sampling."""
    ts = T * 4.0 ** np.arange(8)
    with np.errstate(all="ignore"):
        vals = np.abs(np.asarray(f(ts), dtype=float))
    good = np.isfinite(vals) & (vals > 0)
    if not good.any() or vals[good][-1] == 0.0:
        return -math.inf  # identically tiny tail: treat as fast decay
    est = []
    for i in range(len(ts) - 1):
        if good[i] and good[i + 1]:
            est.append(math.log(vals[i + 1] / vals[i]) / math.log(4.0))
    if not est:
        return -math.inf
    return max(est[-3:])  # conservative: slowest recent decay


def integrate(f: Callable, a: float, b: float,
              spec: QuadratureSpec | None = None) -> QuadResult:
    """Integrate f over (a, b), b possibly infinite, to the spec tolerances.

    Returns (value, err_estimate) with err_estimate the summed error
    estimates of the panels.  Raises NonConvergent when the subdivision
    budget runs out or a panel reaches the float width floor (an undeclared
    singularity away from 0, or a divergent one), and DivergentTail when b
    is infinite and the declared or probed decay exponent is >= -1.
    """
    spec = spec or QuadratureSpec()
    a = float(a)
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")
    infinite = math.isinf(b)
    if not infinite:
        b = float(b)
        if b <= a:
            raise ValueError("need a < b")
    exponents = dict(spec.singularities)
    interior = [s for s in exponents if a < s < b]

    if not infinite:
        return _integrate_cells(f, [a, *interior, b], exponents, spec)

    # infinite upper limit: finite part up to T, then fold [T, inf) to (0, 1/T]
    T = max(1.0, 2.0 * max(interior, default=0.0), a)
    declared = math.inf in exponents
    tail_exp = exponents[math.inf] if declared else _probe_tail_exponent(f, T)
    if not convergence_screen(SingularityBudget(((math.inf, tail_exp),))):
        raise DivergentTail(
            f"tail decay exponent {tail_exp:.6g} is >= -1; integral diverges at infinity")

    def folded(u):
        u = np.asarray(u, dtype=float)
        return np.asarray(f(1.0 / u), dtype=float) / (u * u)

    # f(1/u) / u^2 ~ u^(-2 - e) at u = 0 when f(t) ~ t^e; u = 1/T keeps the
    # exponent declared at T, which can only be a = T
    folded_exponents = {0.0: -2.0 - tail_exp if declared else 0.0,
                        1.0 / T: exponents.get(T, 0.0)}
    tail = _integrate_cells(folded, [0.0, 1.0 / T], folded_exponents, spec)
    if T == a:
        return tail
    head = _integrate_cells(f, [a, *interior, T], exponents, spec)
    return QuadResult(head.value + tail.value, head.error + tail.error)

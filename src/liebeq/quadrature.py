"""Deterministic adaptive quadrature for weakly singular 1-D integrals.

Handles integrands that are analytic between declared split points, with
algebraic or logarithmic singularities of exponent > -1 at interval
endpoints and split points, and power-law tails on [a, inf).  Infinite
tails are folded to a finite cell by the substitution t = 1/u, which turns
a power tail into an algebraic endpoint singularity at u = 0.

Panels are graded geometrically toward cell boundaries.  Next to a boundary
x0 != 0 float spacing ends the grading at widths near eps*|x0|; the panels
on both sides of x0 then become a settled zone, whose mass is the limit of
a dyadic ladder's partial sums by Wynn's epsilon algorithm, as in QUADPACK's
QAGS (Wynn 1956; Piessens et al. 1983).

Integrands must be vectorized: f(x) for a float 1-D ndarray x returns an
ndarray of the same shape.  Everything here is pure and deterministic;
panel and zone values are summed with math.fsum, so the result does not
depend on refinement order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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

    split_points are interior locations where the integrand is singular or
    non-smooth; they become cell boundaries and are never evaluated.
    tail_exponent_hint, when given for an infinite upper limit, asserts the
    asymptotic power-law decay f(t) ~ t**hint and must be < -1; without it
    an automatic geometric probe estimates the decay.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    split_points: tuple = ()
    tail_exponent_hint: float | None = None

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        pts = tuple(float(s) for s in self.split_points)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("split_points must be strictly increasing")
        object.__setattr__(self, "split_points", pts)

    def with_tail(self, exponent: float) -> "QuadratureSpec":
        return QuadratureSpec(self.rel_tol, self.abs_tol, self.max_subdivisions,
                              self.split_points, float(exponent))


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
_RULE_LO, _RULE_HI = 7, 15     # Gauss-Legendre pair for value/error estimation
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


@dataclass
class _Panel:
    a: float
    b: float
    left_singular: bool
    right_singular: bool
    value: float = 0.0
    error: float = math.inf

    def evaluate(self, f) -> None:
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        vals = {}
        for order in (_RULE_HI, _RULE_LO):
            nodes, weights = _gl_rule(order)
            with np.errstate(all="ignore"):
                fx = np.asarray(f(mid + half * nodes), dtype=float)
            vals[order] = half * float(np.dot(weights, fx))
        self.value = vals[_RULE_HI]
        if math.isfinite(self.value) and math.isfinite(vals[_RULE_LO]):
            self.error = abs(vals[_RULE_HI] - vals[_RULE_LO])
        else:
            self.value = 0.0
            self.error = math.inf

    def split_point(self) -> float:
        w = self.b - self.a
        if self.left_singular and not self.right_singular:
            return self.a + _GRADING_RATIO * w
        if self.right_singular and not self.left_singular:
            return self.b - _GRADING_RATIO * w
        return self.a + 0.5 * w


def _ladder(f, x0: float, side: int, depth: float):
    """Masses and |G31 - G15| errors of f on ratio-2 rungs from x0 + side*depth
    toward x0, outermost first.

    The 8 to 60 rungs stop near sqrt(eps)*|x0|: closer in, x0 + d no longer
    resolves the distance d, and the integrand's own arguments lose digits.
    """
    floor = max(math.sqrt(_EPS) * abs(x0), 1e-280)
    count = min(max(int(math.log2(depth / floor)), 8), 60)
    edges = depth * 0.5 ** np.arange(count + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[:-1] - edges[1:])
    masses = []
    for order in (31, 15):
        nodes, weights = _gl_rule(order)
        with np.errstate(all="ignore"):
            fx = np.asarray(f(x0 + side * (mid[:, None] + half[:, None] * nodes).ravel()),
                            dtype=float)
        masses.append(half * (fx.reshape(count, order) @ weights))
    return masses[0], np.abs(masses[0] - masses[1])


def _wynn_epsilon(partial_sums) -> tuple:
    """Limit of a sequence by Wynn's epsilon algorithm (Wynn 1956).

    Each even column k >= 2 of the epsilon table accelerates the sequence;
    the newest entry of the column whose newest two entries agree best is
    the limit, and their spread its error.
    """
    best = (math.nan, math.inf)
    prev, col = np.zeros(len(partial_sums) + 1), np.asarray(partial_sums, dtype=float)
    k = 0
    while len(col) > 1:
        with np.errstate(all="ignore"):
            prev, col = col, prev[1:len(col)] + 1.0 / np.diff(col)
        k += 1
        if k % 2 == 0 and len(col) > 1:
            spread = abs(col[-1] - col[-2])
            if spread < best[1]:
                best = (float(col[-1]), float(spread))
    return best


def _settle(f, panels: list, boundaries: Sequence[float], x0: float):
    """Take the panels on both sides of the cell boundary x0 out of the panel
    list and return their masses as (value, error) pairs, or None when a side
    does not decay geometrically toward x0 (a divergent singularity).

    A side's zone reaches from x0 to the first panel edge at least a quarter
    of the neighbouring cell away.  Its mass is Wynn's limit of the ladder's
    partial sums, its error the limit's spread plus the rung errors.  The
    decay is checked on the inner half of the rungs, where a smooth factor
    of the integrand no longer bends the ratios.
    """
    at = boundaries.index(x0)
    zones, taken = [], []
    for side in (-1, 1):
        if not 0 <= at + side < len(boundaries):
            continue
        reach = 0.25 * abs(boundaries[at + side] - x0)
        edge, depth = x0, 0.0
        for i in range(len(panels))[::side]:
            near, far = (panels[i].a, panels[i].b)[::side]
            if depth < reach and near == edge:
                taken.append(i)
                edge, depth = far, abs(far - x0)
        if depth == 0.0:
            continue
        masses, errors = _ladder(f, x0, side, depth)
        inner = masses[len(masses) // 2:]
        with np.errstate(all="ignore"):
            ratios = inner[1:] / inner[:-1]
        limit, spread = _wynn_epsilon(np.cumsum(masses))
        if not (math.isfinite(spread) and np.all((ratios > 0) & (ratios < 0.97))):
            return None
        zones.append((limit, spread + math.fsum(errors)))
    for i in sorted(taken, reverse=True):
        del panels[i]
    return zones


def _integrate_cells(f, boundaries: Sequence[float], spec: QuadratureSpec) -> QuadResult:
    """Adaptive integration over cells whose boundaries may all be singular.

    The worst panel is split until the error target is met.  A panel at the
    float width floor cannot be split; when it touches a cell boundary, the
    panels on both sides of that boundary become settled zones, summed by
    _settle and never refined again.
    """
    panels = []
    for a, b in zip(boundaries, boundaries[1:]):
        p = _Panel(a, b, True, True)
        p.evaluate(f)
        panels.append(p)
    settled = []
    while True:
        total = math.fsum(chain((p.value for p in panels), (v for v, _ in settled)))
        err = math.fsum(chain((p.error for p in panels), (e for _, e in settled)))
        target = max(spec.rel_tol * abs(total), spec.abs_tol)
        if err <= target and math.isfinite(total):
            return QuadResult(total, err)
        held = math.fsum(e for _, e in settled)  # no refinement lowers it
        if panels and len(panels) < spec.max_subdivisions and held <= target:
            worst = max(range(len(panels)), key=lambda i: (panels[i].error, -panels[i].a))
            p = panels[worst]
            # the width floor scales with position: toward 0 panels shrink on
            if p.b - p.a > 8.0 * _EPS * max(abs(p.a), abs(p.b)):
                cut = p.split_point()
                left = _Panel(p.a, cut, p.left_singular, False)
                right = _Panel(cut, p.b, False, p.right_singular)
                left.evaluate(f)
                right.evaluate(f)
                panels[worst:worst + 1] = [left, right]
                continue
            x0 = p.a if p.a in boundaries else p.b
            zones = _settle(f, panels, boundaries, x0) if x0 in boundaries else None
            if zones is not None:
                settled += zones
                continue
        raise NonConvergent(
            f"estimated error {err:.3e} above target {target:.3e} with "
            f"{len(panels)} panels", value=total, error=err)


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
    estimates of the panels and settled zones.  It is meant to overestimate
    the error, but the |G15 - G7| difference of a panel at an algebraic
    singularity can fall short of it.  Raises NonConvergent when the
    subdivision budget runs out or a singularity does not decay, and
    DivergentTail when b is infinite and the declared or probed decay
    exponent is >= -1.
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
    interior = [s for s in spec.split_points if s > a and (infinite or s < b)]

    if not infinite:
        cells = [a] + interior + [b]
        return _integrate_cells(f, cells, spec)

    # infinite upper limit: finite part up to T, then fold [T, inf) to (0, 1/T]
    s_max = max(interior) if interior else 0.0
    T = max(1.0, 2.0 * s_max, a)
    if spec.tail_exponent_hint is not None:
        tail_exp = float(spec.tail_exponent_hint)
    else:
        tail_exp = _probe_tail_exponent(f, T)
    if not convergence_screen(SingularityBudget(((math.inf, tail_exp),))):
        raise DivergentTail(
            f"tail decay exponent {tail_exp:.6g} is >= -1; integral diverges at infinity")

    def folded(u):
        u = np.asarray(u, dtype=float)
        return np.asarray(f(1.0 / u), dtype=float) / (u * u)

    tail = _integrate_cells(folded, [0.0, 1.0 / T], spec)
    if T == a:
        return tail
    cells = [a] + interior + [T]
    head = _integrate_cells(f, cells, spec)
    return QuadResult(head.value + tail.value, head.error + tail.error)

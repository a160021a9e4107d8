"""Constant-coefficient differential forms and the integral identities
connecting solutions of the Lieb equation.

For solutions f, g and multi-indices alpha, beta the following hold
whenever the integrals converge absolutely (certified here by exponent
screening before any quadrature is attempted):

  cross commutativity:   int D_beta(g) D_alpha(f^(p-1))
                            = int D_alpha(f) D_beta(g^(p-1))
  signed symmetry:       (-1)^|beta| int D_beta(f) D_alpha(f^(p-1))
                            = (-1)^|alpha| int D_alpha(f) D_beta(f^(p-1))
  odd orthogonality:     both integrals vanish when (-1)^(|alpha|+|beta|) = -1

and their composite-form versions for Lambda = Lambda_even + Lambda_odd.

Identity integrals run on the line (n = 1) with exact closed-form
derivatives of the two solution families; the alpha = beta = 0 instances
are also available in higher dimension through the radial reduction.
Both known solutions are even, so odd-total instances are zero by parity
alone; reports carry a parity_forced flag to keep that honest.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import quadrature
from .quadrature import QuadratureSpec, ScreenResult, convergence_screen
from .radial_riesz import RadialProfile
from .solutions import (INCONCLUSIVE, NOT_APPLICABLE, REFUTED, VERIFIED, certify,
                        check_tolerance)
from .specfun import Params, sphere_surface_area

__all__ = [
    "MultiIndex",
    "DifferentialForm",
    "IdentityReport",
    "SolutionDescriptor",
    "solution_descriptor",
    "parse_form",
    "apply_form",
    "parity_split",
    "check_commutativity",
    "check_orthogonality",
    "check_composite",
    "cutoff_pair_integral",
    "VERIFIED",
    "REFUTED",
    "INCONCLUSIVE",
    "NOT_APPLICABLE",
]

MAX_DERIVATIVE_ORDER = 6


@dataclass(frozen=True)
class MultiIndex:
    """Differentiation multi-index (alpha_1, ..., alpha_n)."""

    components: tuple

    def __post_init__(self):
        comps = tuple(int(c) for c in self.components)
        if any(c < 0 for c in comps):
            raise ValueError("multi-index components must be nonnegative")
        object.__setattr__(self, "components", comps)

    @property
    def order(self) -> int:
        return sum(self.components)

    @property
    def parity(self) -> int:
        """(-1)^|alpha|: +1 for even total order, -1 for odd."""
        return -1 if self.order % 2 else 1

    @property
    def dimension(self) -> int:
        return len(self.components)


def _as_index(alpha, dimension: int) -> MultiIndex:
    if isinstance(alpha, MultiIndex):
        idx = alpha
    elif isinstance(alpha, int):
        idx = MultiIndex((alpha,) + (0,) * (dimension - 1))
    else:
        idx = MultiIndex(tuple(alpha))
    if idx.dimension != dimension:
        raise ValueError(f"multi-index {idx.components} does not match dimension {dimension}")
    return idx


@dataclass(frozen=True)
class DifferentialForm:
    """Constant-coefficient linear differential form  sum_a coeff_a D_a.

    Terms are canonicalized: duplicate indices merged, zero coefficients
    pruned, and the term list sorted, so equal forms compare equal and all
    downstream reports are independent of term ordering.
    """

    terms: tuple
    dimension: int

    def __post_init__(self):
        merged = {}
        for coeff, idx in self.terms:
            idx = _as_index(idx, self.dimension)
            merged[idx.components] = merged.get(idx.components, 0.0) + float(coeff)
        canon = tuple(sorted(
            ((c, MultiIndex(comps)) for comps, c in merged.items() if c != 0.0),
            key=lambda t: t[1].components))
        object.__setattr__(self, "terms", canon)

    @classmethod
    def from_terms(cls, dimension: int, *terms) -> "DifferentialForm":
        """Build from (coefficient, index) pairs; index may be an int order
        (dimension 1), a component tuple, or a MultiIndex."""
        return cls(tuple(terms), dimension)

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return DifferentialForm(self.terms + other.terms, self.dimension)


def parity_split(form: DifferentialForm):
    """Split a form into its even and odd parts; they partition the terms
    and sum back to the input."""
    return tuple(DifferentialForm(tuple(t for t in form.terms if t[1].parity == sign),
                                  form.dimension) for sign in (1, -1))


_TERM_RE = re.compile(r"^(?P<sign>-?)(?:(?P<coeff>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\*?)?"
                      r"(?:d(?P<axes>\d*))?$")
_TERM_START = re.compile(r"(?<![eE])(?=[+-])")


def parse_form(text: str, dimension: int) -> DifferentialForm:
    """Parse the CLI form syntax, e.g. "1.0*d1 + 2.0*d11 - 0.5*d2".

    Each term is coefficient*dAXES where every digit names one axis to
    differentiate once (d11 = second derivative along axis 1); a bare
    coefficient or "d" with no digits is the identity term.  Axes are
    1-based and limited to dimensions 1..9.
    """
    if not 1 <= dimension <= 9:
        raise ValueError("form syntax supports dimensions 1..9")
    # a term starts at each sign, except the sign of an exponent as in 1e-3;
    # the only empty term allowed is the one in front of a leading sign
    pieces = _TERM_START.split(text.replace(" ", ""))
    if len(pieces) > 1 and not pieces[0]:
        pieces = pieces[1:]
    terms = []
    for piece in pieces:
        m = _TERM_RE.match(piece.removeprefix("+"))
        if not m or (m.group("coeff") is None and m.group("axes") is None):
            raise ValueError(f"cannot parse form term {piece!r} in {text!r}")
        coeff = float(m.group("sign") + (m.group("coeff") or "1"))
        comps = [0] * dimension
        axes = m.group("axes")
        if axes:
            for digit in axes:
                axis = int(digit)
                if not 1 <= axis <= dimension:
                    raise ValueError(f"axis {axis} out of range for dimension {dimension}")
                comps[axis - 1] += 1
        terms.append((coeff, MultiIndex(tuple(comps))))
    return DifferentialForm(tuple(terms), dimension)


# ---------------------------------------------------------------------------
# derivative evaluation

@lru_cache(maxsize=None)
def _central_weights(order: int):
    """Symmetric central finite-difference offsets and weights for the given
    derivative order, on half-width order//2 + 2 (accuracy >= 4)."""
    halfwidth = order // 2 + 2
    offsets = np.arange(-halfwidth, halfwidth + 1, dtype=float)
    v = np.vander(offsets, increasing=True).T
    rhs = np.zeros(len(offsets))
    rhs[order] = math.factorial(order)
    return offsets, np.linalg.solve(v, rhs)


def _fd_derivative(func, x: np.ndarray, index: MultiIndex,
                   reach: float = math.inf) -> float:
    """Nested central differences for D_index func at point x (accuracy
    order >= 4), with no stencil point farther than reach from x along an
    axis."""
    k = index.order
    if k > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order {k} exceeds the cap {MAX_DERIVATIVE_ORDER}")
    scale = max(1.0, float(np.max(np.abs(x))))
    widest = _central_weights(max(index.components))[0][-1]
    h = min(np.finfo(float).eps ** (1.0 / (k + 2)) * scale, reach / widest)

    def recurse(point, comps):
        for axis, order in enumerate(comps):
            if order > 0:
                offsets, weights = _central_weights(order)
                rest = comps[:axis] + (0,) + comps[axis + 1:]
                acc = 0.0
                for off, wgt in zip(offsets, weights):
                    shifted = np.array(point, dtype=float)
                    shifted[axis] += off * h
                    acc += wgt * recurse(shifted, rest)
                return acc / h ** order
        return float(func(point if point.size > 1 else point[0]))

    return recurse(np.atleast_1d(np.asarray(x, dtype=float)), index.components)


def apply_form(form: DifferentialForm, f, x):
    """Evaluate (sum_a coeff_a D_a f)(x), for derivative orders up to 6.

    f may be a RadialProfile or a SolutionDescriptor (exact, by
    RadialProfile.partial, at an n-vector x or an array of them, or of
    abscissae on the line), or a plain callable of an n-vector (central
    differences of order >= 4 with step eps^(1/(|a|+2)) * scale(x)).  The
    origin is a domain error where the form's top order of f is singular.
    """
    if isinstance(f, SolutionDescriptor):
        f = f.base
    n = form.dimension
    top = max((idx.order for _, idx in form.terms), default=0)
    if top > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order {top} exceeds the cap {MAX_DERIVATIVE_ORDER}")
    if isinstance(f, RadialProfile):
        points = np.asarray(x, dtype=float)
        if n == 1:
            points = points[..., None]
        if f.exponent_at_zero(top) < 0.0 and not np.all(np.any(points != 0.0, axis=-1)):
            raise ValueError("the origin is a singular point of this profile")
        return sum((coeff * f.partial(points, idx.components) for coeff, idx in form.terms), 0.0)
    point = np.atleast_1d(np.asarray(x, dtype=float))
    if point.size != n:
        raise ValueError(f"point has dimension {point.size}, form has {n}")
    return math.fsum(coeff * _fd_derivative(f, point, idx) for coeff, idx in form.terms)


# ---------------------------------------------------------------------------
# solution descriptors

@dataclass(frozen=True)
class SolutionDescriptor:
    """A solution profile together with its (p-1) power, ready for identity
    integrals; each profile gives the exponents of its own derivatives."""

    base: RadialProfile
    power: RadialProfile
    params: Params
    label: str = ""


def solution_descriptor(profile: RadialProfile, params: Params,
                        label: str = "") -> SolutionDescriptor:
    """Wrap a solution profile for use in identity checks."""
    return SolutionDescriptor(profile, profile.pow(params.pm1), params, label)


# ---------------------------------------------------------------------------
# pair integrals: int D_beta(g) * D_alpha(f) over R^n for factors (g, beta), (f, alpha)

@dataclass(frozen=True)
class _PairResult:
    """A certified integral (or weighted sum of pair integrals) with its screen.

    scale is the sum of the magnitudes of the pieces that were added to
    give value (half-lines, form terms); it bounds |value|, and dividing
    by it makes a gap independent of the amplitudes.
    """

    value: float
    error: float
    screen: ScreenResult
    parity_forced: bool
    scale: float = math.nan


def _pair_integrand(u: tuple, v: tuple, n: int):
    """D_beta(g) * D_alpha(f) for factors u = (g, beta), v = (f, alpha) as a
    radial integrand on R^n, at unit amplitude, and the product of the two
    amplitudes it leaves out (the integral is bilinear)."""
    (g, beta), (f, alpha) = u, v
    g_unit, f_unit = replace(g, amplitude=1.0), replace(f, amplitude=1.0)

    def integrand(x):
        x = np.asarray(x, dtype=float)
        out = g_unit.derivative_1d(x, beta) * f_unit.derivative_1d(x, alpha)
        if n > 1:
            out = out * sphere_surface_area(n) * x ** (n - 1)
        return out

    return integrand, g.amplitude * f.amplitude


def _pair_integral(u: tuple, v: tuple, params: Params,
                   quad: QuadratureSpec) -> _PairResult:
    """Certified integral of D_beta(g) * D_alpha(f) over R^n for the factors
    u = (g, beta) and v = (f, alpha), each a RadialProfile and an order.

    On the line the positive half-line is integrated and the negative one
    taken by parity: both factors are even, and derivative_1d(-x, k) is
    (-1)^k derivative_1d(x, k) exactly.  Otherwise the radius is
    integrated; the radial reduction covers alpha = beta = 0 in higher
    dimension.  Returns value NaN with the screen attached when the screen
    rejects the (location, exponent) pairs.
    """
    n = params.n
    (g, beta), (f, alpha) = u, v
    if n > 1 and (alpha or beta):
        raise ValueError("derivative identities run on the line; higher "
                         "dimensions support only the order-zero radial case")
    at_zero = g.exponent_at_zero(beta) + f.exponent_at_zero(alpha) + (n - 1)
    tail = g.exponent_at_infinity(beta) + f.exponent_at_infinity(alpha) + (n - 1)
    singularities = ((0.0, at_zero), (math.inf, tail))
    screen = convergence_screen(singularities)
    parity_forced = (alpha + beta) % 2 == 1  # even profiles, odd integrand
    if not screen:
        return _PairResult(math.nan, math.nan, screen, parity_forced)

    integrand, amplitude = _pair_integrand(u, v, n)
    h = quadrature.integrate(integrand, 0.0, math.inf, replace(quad, singularities=singularities))
    # the line integrand has the parity of alpha + beta, bit for bit, and the
    # quadrature commutes with negation: the mirror half-line doubles an
    # even integrand (2 x == x + x exactly) and cancels an odd one
    halves = 2.0 if n == 1 else 1.0
    value = 0.0 if parity_forced else halves * h.value
    return _PairResult(amplitude * value, amplitude * (halves * h.error), screen,
                       parity_forced, amplitude * (halves * abs(h.value)))


def _pair_table(params: Params, quad: QuadratureSpec):
    """_pair_integral for one check call, each distinct integral computed once.

    The key is the unordered pair of factors.  Swapping the factors only
    swaps the operands of the integrand's product, of the amplitude
    product and of the screen's and tail's exponent sums, which changes
    no bit.
    """
    table = {}

    def pair(u, v):
        key = frozenset((u, v))
        if key not in table:
            table[key] = _pair_integral(u, v, params, quad)
        return table[key]

    return pair


def _sum(terms) -> _PairResult:
    """The weighted sum of (coefficient, part) terms, built left to right.

    Values add with their coefficients, errors and scales with the
    coefficients' magnitudes.  The first part the screen rejects stands for
    the whole sum, and no later part is read; the empty sum is an exact 0.
    """
    value = error = scale = 0.0
    forced = True
    for coeff, part in terms:
        if not part.screen:
            return part
        value += coeff * part.value
        error += abs(coeff) * part.error
        scale += abs(coeff) * part.scale
        forced = forced and part.parity_forced
    return _PairResult(value, error, ScreenResult(True), forced, scale)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class IdentityReport:
    """One certified identity instance.

    conditioning is the larger scale of the two sides (the sum of the
    magnitudes of the pieces each side adds up), and every gap is relative
    to it: rel_gap is |lhs-rhs| / conditioning, and for zero targets
    max(|lhs|, |rhs|) / conditioning, so scaling a solution by any factor
    leaves rel_gap and the verdict unchanged.  An exact 0/0 reads as 0.  A
    divergent screen forces the NotApplicable verdict (a contract outcome,
    not a fault).  parity_forced flags instances that vanish by evenness
    of the solutions alone.
    """

    identity_id: str
    description: str
    lhs: float
    rhs: float
    screen: ScreenResult
    rel_gap: float
    verdict: str
    tolerance: float
    conditioning: float
    zero_target: bool = False
    parity_forced: bool = False
    err_lhs: float = 0.0
    err_rhs: float = 0.0


def _relative(x: float, scale: float) -> float:
    """x / scale, reading an exact 0/0 as 0 (an empty form part sums to 0
    with scale 0)."""
    return x / scale if x else 0.0


def _report(identity_id: str, description: str, lhs: _PairResult, rhs: _PairResult,
            tolerance: float, zero_target: bool = False) -> IdentityReport:
    for side in (lhs, rhs):
        if not side.screen:
            return IdentityReport(identity_id, description, math.nan, math.nan,
                                  side.screen, math.nan, NOT_APPLICABLE, tolerance,
                                  math.nan, zero_target, lhs.parity_forced)
    a, b = lhs.value, rhs.value
    conditioning = max(lhs.scale, rhs.scale)
    gap = _relative(max(abs(a), abs(b)) if zero_target else abs(a - b), conditioning)
    verdict = certify(gap, [_relative(lhs.error + rhs.error, conditioning)], tolerance)
    return IdentityReport(identity_id, description, a, b, lhs.screen, gap, verdict,
                          tolerance, conditioning, zero_target,
                          lhs.parity_forced and rhs.parity_forced,
                          lhs.error, rhs.error)


def check_commutativity(f: SolutionDescriptor, g: SolutionDescriptor,
                        alpha, beta, params: Params,
                        quad: QuadratureSpec | None = None,
                        tolerance: float = 1e-6) -> IdentityReport:
    """Certify  int D_beta(g) D_alpha(f^(p-1)) = int D_alpha(f) D_beta(g^(p-1)).

    The order-zero instance with the singular and bounded solutions is the
    zeroth cross identity between the two; a divergent screen on either
    side yields NotApplicable.
    """
    check_tolerance(tolerance)
    pair = _pair_table(params, quad or QuadratureSpec())
    a, b = _as_index(alpha, params.n).order, _as_index(beta, params.n).order
    lhs = pair((g.base, b), (f.power, a))
    rhs = pair((f.base, a), (g.power, b))
    desc = (f"int D{b}[{g.label or 'g'}] D{a}[{f.label or 'f'}^(p-1)] = "
            f"int D{a}[{f.label or 'f'}] D{b}[{g.label or 'g'}^(p-1)]")
    return _report("cross-commutativity", desc, lhs, rhs, tolerance)


def check_orthogonality(f: SolutionDescriptor, alpha, beta, params: Params,
                        quad: QuadratureSpec | None = None,
                        tolerance: float = 1e-6,
                        zero_tolerance: float = 1e-8) -> IdentityReport:
    """Single-solution instance: for odd |alpha|+|beta| both integrals are
    certified zero relative to their conditioning; for even totals the
    signed equality (-1)^|beta| I(beta, alpha) = (-1)^|alpha| I(alpha, beta)
    is certified.
    """
    check_tolerance(tolerance, zero_tolerance)
    pair = _pair_table(params, quad or QuadratureSpec())
    a, b = _as_index(alpha, params.n).order, _as_index(beta, params.n).order
    lhs = pair((f.base, b), (f.power, a))
    rhs = pair((f.base, a), (f.power, b))
    name = f.label or "f"
    if (a + b) % 2 == 1:
        desc = (f"int D{b}[{name}] D{a}[{name}^(p-1)] = "
                f"int D{a}[{name}] D{b}[{name}^(p-1)] = 0")
        return _report("odd-orthogonality", desc, lhs, rhs, zero_tolerance,
                       zero_target=True)
    desc = (f"(-1)^{b} int D{b}[{name}] D{a}[{name}^(p-1)] = "
            f"(-1)^{a} int D{a}[{name}] D{b}[{name}^(p-1)]")
    return _report("signed-self-commutativity", desc, _sum([((-1.0) ** b, lhs)]),
                   _sum([((-1.0) ** a, rhs)]), tolerance)


def check_composite(f: SolutionDescriptor, g: SolutionDescriptor,
                    lam_form: DifferentialForm, omega_form: DifferentialForm,
                    params: Params, quad: QuadratureSpec | None = None,
                    tolerance: float = 1e-6, zero_tolerance: float = 1e-8) -> list:
    """Composite-form identities, expanded into certified term-pair integrals.

    With distinct solutions this emits the form commutativity report plus
    the two even/odd zero integrals of Lambda on f; with f and g the same
    descriptor it emits the three-way parity expansion chain instead of the
    plain commutativity.  Singleton forms reproduce check_commutativity and
    check_orthogonality values exactly (same code path).
    """
    check_tolerance(tolerance, zero_tolerance)
    pair = _pair_table(params, quad or QuadratureSpec())

    def side(lam: DifferentialForm, x: RadialProfile,
             om: DifferentialForm, y: RadialProfile) -> _PairResult:
        """int Lam(x) Om(y) as the weighted sum of its term-pair integrals."""
        return _sum((cl * co, pair((y, io.order), (x, il.order)))
                    for cl, il in lam.terms for co, io in om.terms)

    lam_e, lam_o = parity_split(lam_form)
    om_e, om_o = parity_split(omega_form)
    reports = []
    if f != g:
        reports.append(_report(
            "composite-commutativity",
            "int Lam(f) Om(g^(p-1)) = int Lam(f^(p-1)) Om(g)",
            side(lam_form, f.base, omega_form, g.power),
            side(lam_form, f.power, omega_form, g.base), tolerance))
    else:
        A = side(lam_form, f.base, omega_form, f.power)
        B = side(lam_form, f.power, omega_form, f.base)
        C = _sum([(1.0, side(lam_e, f.base, om_e, f.power)),
                  (1.0, side(lam_o, f.base, om_o, f.power))])
        D = _sum([(1.0, side(lam_e, f.power, om_e, f.base)),
                  (1.0, side(lam_o, f.power, om_o, f.base))])
        reports.append(_report(
            "parity-chain-direct",
            "int Lam(f) Om(f^(p-1)) = int Lam(f^(p-1)) Om(f)",
            A, B, tolerance))
        reports.append(_report(
            "parity-chain-even-odd",
            "int Lam(f) Om(f^(p-1)) = even-even + odd-odd expansion",
            A, C, tolerance))
        reports.append(_report(
            "parity-chain-swapped",
            "even-even + odd-odd expansion equals its (f, f^(p-1)) swap",
            C, D, tolerance))

    reports.append(_report(
        "composite-orthogonality",
        "int Lam_e(f) Lam_o(f^(p-1)) = 0",
        side(lam_e, f.base, lam_o, f.power), _sum([]), zero_tolerance, zero_target=True))
    reports.append(_report(
        "composite-orthogonality",
        "int Lam_e(f^(p-1)) Lam_o(f) = 0",
        side(lam_e, f.power, lam_o, f.base), _sum([]), zero_tolerance, zero_target=True))
    return reports


def cutoff_pair_integral(f: SolutionDescriptor, alpha, g: SolutionDescriptor,
                         beta, params: Params, R: float,
                         quad: QuadratureSpec | None = None) -> float:
    """Force-integrate D_beta(g) D_alpha(f^(p-1)) over the radial annulus
    [1/R, R], bypassing the convergence screen.

    This is the screen-soundness diagnostic: instances the screen rejects
    must show non-stabilizing values as R grows.  (The annulus is radial;
    a symmetric cutoff on the line would let odd divergences cancel.)
    """
    quad = quad or QuadratureSpec(rel_tol=1e-9, abs_tol=1e-15)
    if R <= 1.0:
        raise ValueError("cutoff R must exceed 1")
    a, b = _as_index(alpha, params.n).order, _as_index(beta, params.n).order
    integrand, amplitude = _pair_integrand((g.base, b), (f.power, a), params.n)
    return amplitude * quadrature.integrate(integrand, 1.0 / R, R, quad).value

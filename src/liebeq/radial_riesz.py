"""Radial evaluation of the Riesz potential (Tf)(x) = int |x-y|^(-lam) f(y) dy.

For radially symmetric f the n-dimensional convolution collapses to one
radial integral against the angular kernel

    K(r, s) = int over S^(n-1) of |r e1 - s w|^(-lam) dsigma(w),

a two-term sum on the line and, for n >= 2, the hypergeometric closed form
|S^(n-1)| (r+s)^(-lam) 2F1(lam/2, (n-1)/2; n-1; 4rs/(r+s)^2), evaluated as
one of two truncated power series: in (min(r,s)/max(r,s))^2 up to a
switch point (min/max = sqrt(2) - 1 in n <= 5, nearer the diagonal where
that series would lose digits), and beyond it in w = (d/(r+s))^2 with the
exact diagonal distance d = |s - r|, through the z -> 1 - z connection
formula (A&S 15.3.6) that also covers its log case.  The kernel has an
integrable singularity on the diagonal s = r.  For r > 0 the potential is
one quadrature run over a signed variable v in [-r/2, inf) whose zero is
both the origin s = 0 (approached from v < 0) and the diagonal d = 0
(approached from v > 0), so each sits at an exact zero with its own
exponent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .quadrature import QuadratureSpec, QuadResult, check_tolerance, convergence_screen
from .specfun import Params, sphere_surface_area

__all__ = [
    "RadialProfile",
    "ScreenRejected",
    "angular_kernel",
    "riesz_potential_radial",
]

POWER_SINGULAR = "power_singular"
LIEB = "lieb"


class ScreenRejected(Exception):
    """The convergence screen rejected the potential's singularities."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class RadialProfile:
    """Closed-form radially symmetric function descriptor.

    kind "power_singular":  amplitude * r^(-exponent)
    kind "lieb":            amplitude * (1 + r^2)^(-exponent)
    """

    kind: str
    amplitude: float = 1.0
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in (POWER_SINGULAR, LIEB):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not (0.0 < self.amplitude < math.inf and math.isfinite(self.exponent)):
            raise ValueError("amplitude must be positive and finite, exponent finite")

    # -- constructors -------------------------------------------------------

    @classmethod
    def power_singular(cls, amplitude: float, exponent: float) -> "RadialProfile":
        return cls(POWER_SINGULAR, amplitude=float(amplitude), exponent=float(exponent))

    @classmethod
    def lieb(cls, amplitude: float, exponent: float) -> "RadialProfile":
        return cls(LIEB, amplitude=float(amplitude), exponent=float(exponent))

    # -- evaluation ---------------------------------------------------------

    def value(self, r):
        """Profile value at radius r (scalar or ndarray; r > 0, r = 0 if finite
        there); a scalar is evaluated as a one-element batch, for a batch's bits."""
        r = np.asarray(r, dtype=float)
        out = self._rung(r if r.ndim else r[None], self.exponent)
        return out if r.ndim else float(out[0])

    def _rung(self, r, exponent: float):
        """The profile of this kind and amplitude with the given exponent, at
        an ndarray of radii r."""
        if self.kind == POWER_SINGULAR:
            with np.errstate(divide="ignore"):
                return self.amplitude * r ** (-exponent)
        return self.amplitude * (1.0 + r * r) ** (-exponent)

    def __call__(self, r):
        return self.value(r)

    def pow(self, q: float) -> "RadialProfile":
        """Pointwise power f^q, closed under both families."""
        return RadialProfile(self.kind, amplitude=self.amplitude ** q,
                             exponent=self.exponent * q)

    # -- exponent bookkeeping for convergence screens ------------------------

    def exponent_at_zero(self, order: int = 0) -> float:
        """Power of r governing D^order of the profile as r -> 0: each
        derivative of a power costs one power, and a Lieb profile is smooth
        and even, so its odd derivatives vanish like r."""
        return -self.exponent - order if self.kind == POWER_SINGULAR else float(order % 2)

    def exponent_at_infinity(self, order: int = 0) -> float:
        """Power of r governing D^order of the profile as r -> infinity."""
        decay = -self.exponent if self.kind == POWER_SINGULAR else -2.0 * self.exponent
        return decay - order

    # -- derivatives ----------------------------------------------------------

    def partial(self, x, index):
        """D^index f(|x|) at points x of shape (..., n), exact.  With t = r^2/2
        and f = A (c + r^2)^(-e) (c = 0, e = exponent/2 for the power kind;
        c = 1, e = exponent for Lieb), (d/dt)^i f = A (-2)^i (e)_i (c + r^2)^(-e-i)
        is a profile of the same kind, and D^a f = sum_(j <= a/2) prod_i a_i! /
        (j_i! (a_i-2j_i)! 2^j_i) |x_i|^(a_i-2j_i) (d/dt)^(|a|-|j|) f, times the
        signs of the odd components: D^0 f is value() and D^a f(-x) =
        (-1)^|a| D^a f(x), bit for bit.  The rungs of that sum depend on the
        kind, the exponent and the index only (see _ladder_plan), and are built
        once for each.  A single point is evaluated as a one-point batch."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (len(index),) or min(index, default=0) < 0:
            raise ValueError(f"need points of dimension {len(index)} and orders >= 0")
        single = x.ndim == 1
        x = x[None] if single else x
        absx = np.abs(x)
        r = absx[..., 0] if len(index) == 1 else np.hypot.reduce(x, axis=-1)
        rungs, bare_at_zero = _ladder_plan(self.kind, self.exponent, tuple(index))
        out, bare = np.zeros(r.shape), 0.0
        for coef, exponent, powers in rungs:
            term = math.prod([absx[..., axis] ** k for axis, k in powers],
                             start=coef * self._rung(r, exponent))
            bare = bare if powers else term
            out = out + term
        if bare_at_zero and not r.all():                    # bare is D^a f(0)
            out = np.where(r > 0.0, out, bare)
        for axis in [axis for axis, a in enumerate(index) if a % 2]:
            out = out * np.sign(x[..., axis])
        return float(out[0]) if single else out

    def derivative_1d(self, x, order: int):
        """d^k/dx^k of the even extension f(|x|) on the line: partial with n = 1."""
        return self.partial(np.asarray(x, dtype=float)[..., None], (int(order),))

    def rungs(self, order: int) -> tuple:
        """D^order f on x > 0 as (c, q, e) triples, the sum of the rungs
        c x^q (1 + x^2)^(-e) of partial's ladder: a power rung x^(-e') has
        q = k - e' and e = 0, and the amplitude is in c."""
        rungs, _ = _ladder_plan(self.kind, self.exponent, (int(order),))
        power = self.kind == POWER_SINGULAR
        return tuple((self.amplitude * coef, sum(k for _, k in powers) - (e if power else 0.0),
                      0.0 if power else e) for coef, e, powers in rungs)


# one batch of the benchmark's identity-sweep workload uses 416 distinct keys
@lru_cache(maxsize=1024)
def _ladder_plan(kind: str, exponent: float, index: tuple) -> tuple:
    """The rungs of RadialProfile.partial for a profile of this kind and
    exponent, at any amplitude: (coefficient, rung exponent, ((axis, power
    of |x_axis|), ...)) for each nonzero term of its sum, and whether the
    term without a power of |x| stands for D^index f at r = 0 (a power
    profile that is finite there)."""
    per_e = 2.0 if kind == POWER_SINGULAR else 1.0
    order, rising = sum(index), [1.0]                   # rising[i] = (-2)^i (e)_i
    for q in range(order):
        rising.append(rising[-1] * -2.0 * (exponent / per_e + q))
    rungs = []
    for j in itertools.product(*(range(a // 2 + 1) for a in index)):
        coef, powers = rising[order - sum(j)], []
        for axis, (a, b) in enumerate(zip(index, j)):
            coef *= math.factorial(a) // math.factorial(a - 2 * b) // math.factorial(b) >> b
            if a > 2 * b:
                powers.append((axis, a - 2 * b))
        if coef:
            rungs.append((coef, exponent + per_e * (order - sum(j)), tuple(powers)))
    finite = RadialProfile(kind, exponent=exponent).exponent_at_zero(order) >= 0.0
    return tuple(rungs), kind == POWER_SINGULAR and finite


# ---------------------------------------------------------------------------
# angular kernel

# Switch points rho_s = min(r,s)/max(r,s), tried in order: below rho_s the
# kernel is a series in rho^2, above it a series in w = (d/(r+s))^2, and
# d/(r+s) = (1-rho)/(1+rho).  At sqrt(2) - 1 both arguments meet at
# 3 - 2 sqrt(2) = 0.1716; the series in w loses digits as n grows, so larger
# n move the switch toward the diagonal.
_SWITCHES = (math.sqrt(2.0) - 1.0, 0.5, 0.6, 0.7, 0.8, 0.9)
_MAX_GAIN = 32.0                        # accepted rounding gain sum|term| / |sum|
_PSI_FROM = 10.0                        # _digamma is good to rounding from 9.5 on
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _digamma(x):
    """psi(x) for x >= 9.5: log x - 1/(2x) - sum B_2k / (2k x^2k), k <= 8,
    whose first omitted term is below 1e-17."""
    inv2, tail = 1.0 / (x * x), 0.0
    for k in range(len(_BERNOULLI), 0, -1):
        tail = (tail + _BERNOULLI[k - 1] / (2 * k)) * inv2
    return np.log(x) - 0.5 / x - tail


def _expm1_over(y, eps: float):
    """expm1(eps y) / eps, which is y at eps = 0."""
    return np.expm1(eps * y) / eps if eps else y


def _lgamma_slope(x, eps: float):
    """(lnGamma(x + eps) - lnGamma(x)) / eps for x > 0 and x + eps > 0, psi(x)
    at eps = 0: steps lnGamma(y+1) = lnGamma(y) + log y up to y >= 10, each a
    log1p(eps/y)/eps, then the mean of psi over [y, y + eps] by 12-point
    Gauss-Legendre."""
    x = np.asarray(x, dtype=float)
    y = x[:, None] + np.arange(_PSI_FROM)
    below = y < _PSI_FROM
    steps = np.where(below, np.log1p(eps / y) / eps if eps else 1.0 / y, 0.0)
    shifted = x + below.sum(axis=1)
    nodes, weights = quadrature._gl_rule(12)
    mean = 0.5 * _digamma(shifted[:, None] + 0.5 * eps * (1.0 + nodes)) @ weights
    return mean - steps.sum(axis=1)


def _hyp_terms(p: float, q: float, c: float, count: int) -> np.ndarray:
    """(p)_k (q)_k / ((c)_k k!) for k < count >= 1, the terms of 2F1(p, q; c; x)."""
    k = np.arange(count - 1.0)
    return np.cumprod(np.concatenate([[1.0], (p + k) * (q + k) / ((c + k) * (1.0 + k))]))


def _coefficients(n: int, lam: float):
    """(eps, m, far, alpha, beta): the first 300 + 50n coefficients of the
    two kernel series in dimension n >= 2, far in rho^2 and alpha, beta in w.

    With a = lam/2, b = (n-1)/2, c = n - 1, z = 4rs/(r+s)^2 and 1 - z = w,
    K = |S^(n-1)| (r+s)^(-lam) 2F1(a, b; c; z) (DLMF 15.8).  Far from the
    diagonal this is the Gegenbauer form |S^(n-1)| max(r,s)^(-lam)
    2F1(a, 1 + (lam-n)/2; n/2; rho^2).  Near it, A&S 15.3.6 about
    m = round(delta), eps = delta - m, delta = c - a - b = (n-1-lam)/2 gives
    2F1 = sum alpha_k w^k + E(w) sum beta_k w^k, E(w) = expm1(eps log w)/eps:
    alpha_k (k < m) is the finite first sum; for k >= m, beta_k = -CQ_k and
    alpha_k = CQ_k expm1(L_k)/eps, where the 1/eps poles of the two halves
    of 15.3.6 have cancelled.  So one rule holds at every lam, exact at
    integer delta (the log case, DLMF 15.8.10) and stable next to it.
    """
    a, b, c = 0.5 * lam, 0.5 * (n - 1), n - 1.0
    delta = 0.5 * (n - 1 - lam)
    m = round(delta)
    eps = delta - m
    count = 300 + 50 * n               # k^(n-2) 0.81^k is < 1e-36 past it
    far = _hyp_terms(a, 1.0 + a - 0.5 * n, 0.5 * n, count)
    alpha, beta = np.zeros(count), np.zeros(count)
    if m:   # k < m: Gamma(c) Gamma(delta) / (Gamma(c-a) Gamma(c-b)) (a)_k (b)_k / ((1-delta)_k k!)
        alpha[:m] = (math.gamma(c) * math.gamma(delta)
                     / (math.gamma(b + delta) * math.gamma(a + delta))
                     * _hyp_terms(a, b, 1.0 - delta, m))
    # k = m + j: CQ_k = (-1)^m Gamma(c) Gamma(1-eps) / (Gamma(a) Gamma(b) (1+eps)_m)
    # (a+delta)_j (b+delta)_j / ((1+delta)_j j!), and L_k = lnGamma-ratio of
    # Gamma(a+k) Gamma(b+k) Gamma(1+k+eps) Gamma(1+j) over the same shifted by eps
    j = np.arange(count - m, dtype=float)
    k = j + m
    cq = ((-1.0) ** m * math.gamma(c) * math.gamma(1.0 - eps)
          / (math.gamma(a) * math.gamma(b) * math.prod(1.0 + eps + i for i in range(m)))
          * _hyp_terms(a + delta, b + delta, 1.0 + delta, j.size))
    slope = (_lgamma_slope(1.0 + k, eps) + _lgamma_slope(1.0 + j, -eps)
             - _lgamma_slope(a + k, eps) - _lgamma_slope(b + k, eps))
    alpha[m:] = cq * _expm1_over(slope, eps)
    beta[m:] = -cq
    return eps, m, far, alpha, beta


@lru_cache(maxsize=1024)
def _series_table(n: int, lam: float):
    """(eps, spread_s, table) for the kernel in dimension n >= 2: rows with
    d/(r+s) < spread_s take the series in w, the others the series in
    rho^2; table rows are the coefficients of the series in rho^2 and of
    alpha and beta in w (see _coefficients).

    The switch is the first of _SWITCHES at which both series sum with a
    rounding gain sum|term| / |sum| <= 32 at their largest argument, else
    the one of least gain.  Where every gain exceeds 1e6 (an error near
    1e-10), or a coefficient overflows, ValueError is raised: from about
    n = 120 on.  Each series stops where a bound on its tail over its
    arguments falls below eps/8 of the smallest value of its 2F1
    ((1 + rho^2)^(-lam/2) by Jensen, and 1 near the diagonal).
    """
    refused = ValueError(f"the angular kernel series lose digits in dimension {n}")
    try:
        with np.errstate(all="ignore"):     # an overflow shows as a gain that is not finite
            eps, m, far, alpha, beta = _coefficients(n, lam)
    except OverflowError:                   # Gamma(n - 1) beyond the float range
        raise refused from None
    k = np.arange(float(far.size))

    def series_at(rho):
        """(bound on each term, smallest 2F1 value, rounding gain) of each
        series at its largest argument, x = rho^2 and w = ((1-rho)/(1+rho))^2."""
        x, w = rho * rho, ((1.0 - rho) / (1.0 + rho)) ** 2
        far_terms, w_k = far * x ** k, w ** k
        e_w = _expm1_over(math.log(w), eps)
        # |E(w)| w^k <= |log w| max(1, w^eps) w^k, which grows on (0, w] for k >= 1
        e_max = -math.log(w) * max(1.0, w ** eps)
        with np.errstate(all="ignore"):
            return ((np.abs(far_terms), (1.0 + x) ** (-0.5 * lam),
                     np.abs(far_terms).sum() / abs(far_terms.sum())),
                    ((np.abs(alpha) + e_max * np.abs(beta)) * w_k, 1.0,
                     ((np.abs(alpha) + abs(e_w) * np.abs(beta)) * w_k).sum()
                     / abs(((alpha + e_w * beta) * w_k).sum())))

    def worst_gain(rho):
        gains = [gain for _, _, gain in series_at(rho)]
        return max(gains) if all(gain <= 1e6 for gain in gains) else math.inf  # nan too

    rho = next((r for r in _SWITCHES if worst_gain(r) <= _MAX_GAIN),
               min(_SWITCHES, key=worst_gain))
    if worst_gain(rho) == math.inf:
        raise refused
    lengths = [m + 1]
    for bound, smallest, _ in series_at(rho):
        tail = np.cumsum(bound[::-1])[::-1]
        lengths.append(int(np.argmax(tail <= 0.125 * quadrature._EPS * smallest)))
    size = max(lengths)
    return eps, (1.0 - rho) / (1.0 + rho), np.stack([far[:size], alpha[:size], beta[:size]])


def _kernel_from_distance(n: int, lam: float, r: float, s: np.ndarray,
                          d: np.ndarray) -> np.ndarray:
    """Angular kernel K(r, s) at 1-D arrays s with the diagonal distance
    d = |s - r| supplied exactly by the caller, so accuracy survives d far
    below eps * r.  Pointwise: each value depends on its own s and d only."""
    s = np.asarray(s, dtype=float)
    d = np.asarray(d, dtype=float)
    if r == 0.0:
        with np.errstate(divide="ignore"):
            return sphere_surface_area(n) * s ** (-lam)
    if n == 1:
        return d ** (-lam) + (r + s) ** (-lam)
    eps, spread_switch, table = _series_table(n, lam)
    spread = d / (r + s)
    near = spread < spread_switch
    big = np.maximum(r, s)
    x = np.where(near, spread, np.minimum(r, s) / big) ** 2
    # einsum sums each row alone; a BLAS matrix product can round a row
    # differently with the batch size
    sums = np.einsum("bk,jk->bj", np.vander(x, table.shape[1], increasing=True), table)
    series = np.where(near, sums[:, 1] + _expm1_over(2.0 * np.log(spread), eps) * sums[:, 2],
                      sums[:, 0])
    return sphere_surface_area(n) * series * np.where(near, r + s, big) ** (-lam)


def angular_kernel(n: int, lam: float, r: float, s: float):
    """Surface integral of |r e1 - s w|^(-lam) over the unit sphere.

    n = 1 gives |r-s|^(-lam) + (r+s)^(-lam).  For n >= 2 it is
    |S^(n-1)| (r+s)^(-lam) 2F1(lam/2, (n-1)/2; n-1; 4rs/(r+s)^2), summed as
    a power series in rho^2, rho = min(r,s)/max(r,s), up to a switch point
    and in (|r-s|/(r+s))^2, with its log or power singularity at s = r in
    closed form, above it.  The switch is rho = sqrt(2) - 1, where both
    arguments are 3 - 2 sqrt(2), in n <= 5, and nearer the diagonal where
    the series in (|r-s|/(r+s))^2 would lose digits; the coefficients and
    the switch are built once per (n, lam).  Where no switch keeps the
    series accurate, from about n = 120 on, ValueError is raised.  Requires
    nonnegative radii with s != r (the diagonal singularity is integrable
    but must be declared to the quadrature by callers).
    """
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if r < 0 or np.any(s_arr < 0):
        raise ValueError("radii must be nonnegative")
    if r > 0.0 and np.any(s_arr == r):
        raise ValueError("angular kernel is singular on the diagonal r = s")
    if r == 0.0 and np.any(s_arr == 0.0):
        raise ValueError("angular kernel is singular at r = s = 0")
    out = _kernel_from_distance(n, lam, float(r), s_arr, np.abs(s_arr - r))
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# the radial Riesz potential

def riesz_potential_radial(f: RadialProfile, params: Params, r: float,
                           rel_tol: float = 1e-9) -> QuadResult:
    """(Tf)(r) = int_0^inf f(s) s^(n-1) K(r, s) ds for radial f, to rel_tol.

    The potential is one run over v in [-r/2, inf): the inner piece s = -v
    for v < 0, the band |s - r| <= r/2 folded in the exact diagonal
    distance d = v on [0, r/2] (s = r + v and r - v), and the outer piece
    s = r + v, d = v beyond.  The origin and the diagonal sit at the exact
    zero v = 0, declared with the pair (origin exponent, diagonal exponent),
    so graded panels resolve both to full precision, and the kernel keeps
    its exact d.  The three pieces share one heap and one target, relative
    to the summed |panel values|, so scaling f by a power of two scales
    value and error exactly.  At r = 0 only the outer piece is left: v = s
    = d in [0, inf), where the kernel is exactly |S^(n-1)| s^(-lam) and 0
    carries one exponent.  The declarations are screened first: ScreenRejected
    names the failing point in s, 0, r (right of v = 0) or inf.
    """
    check_tolerance(rel_tol)
    if not 0.0 <= r < math.inf:
        raise ValueError("radius must be nonnegative and finite")
    n, lam = params.n, params.lam
    r = float(r)
    half = 0.5 * r
    origin = f.exponent_at_zero() + (n - 1)
    tail = (math.inf, f.exponent_at_infinity() - lam + (n - 1))
    singularities = (((0.0, origin - lam), tail) if r == 0.0 else
                     ((0.0, (origin, min(0.0, (n - 1) - lam))), (half, 0.0), tail))
    screen = convergence_screen(singularities)
    if not screen:
        at = screen.failing_location
        if at == 0.0 < r and convergence_screen(((0.0, origin),)):
            at = r
        raise ScreenRejected(f"potential integral diverges at {at}", location=at)

    def integrand(v):
        # v < 0: s = -v, d = r + v; 0 <= v <= r/2: s = r + v and r - v, d = v;
        # v > r/2: s = r + v, d = v.  Batches in one piece skip the masks.
        v = np.asarray(v, dtype=float)
        lo, hi = v.min(), v.max()
        if hi < 0.0:
            s, d = -v, r + v
        elif lo < 0.0:
            inner = v < 0.0
            s, d = np.where(inner, -v, r + v), np.where(inner, r + v, v)
        else:
            s, d = r + v, v
        band = (None if hi < 0.0 or lo > half else slice(None) if lo >= 0.0 and hi <= half
                else (v >= 0.0) & (v <= half))
        if band is not None:
            s, d = np.concatenate([s, r - v[band]]), np.concatenate([d, v[band]])
        values = f.value(s) * s ** (n - 1) * _kernel_from_distance(n, lam, r, s, d)
        out = values[:v.size]
        if band is not None:
            out[band] += values[v.size:]
        return out

    return quadrature.integrate(integrand, -half, math.inf,
                                QuadratureSpec(rel_tol, singularities))

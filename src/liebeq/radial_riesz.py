"""Radial evaluation of the Riesz potential (Tf)(x) = int |x-y|^(-lam) f(y) dy.

For radially symmetric f the n-dimensional convolution collapses to one
radial integral against the angular kernel

    K(r, s) = int over S^(n-1) of |r e1 - s w|^(-lam) dsigma(w),

which is closed-form in dimensions 1 and 3 and a one-dimensional angular
integral otherwise.  The kernel has an integrable singularity on the
diagonal s = r, which the quadrature sees at d = 0 of the diagonal distance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from .quadrature import QuadratureSpec, convergence_screen
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
    """The convergence screen rejected the potential's singularity budget."""

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
        """Profile value at radius r (scalar or ndarray; r > 0, r = 0 if finite there)."""
        r = np.asarray(r, dtype=float)
        if self.kind == POWER_SINGULAR:
            with np.errstate(divide="ignore"):
                out = self.amplitude * r ** (-self.exponent)
        else:
            out = self.amplitude * (1.0 + r * r) ** (-self.exponent)
        return out if out.ndim else float(out)

    def __call__(self, r):
        return self.value(r)

    def pow(self, q: float) -> "RadialProfile":
        """Pointwise power f^q, closed under both families."""
        return RadialProfile(self.kind, amplitude=self.amplitude ** q,
                             exponent=self.exponent * q)

    # -- exponent bookkeeping for convergence screens ------------------------

    def exponent_at_zero(self, order: int = 0) -> float:
        """Power of r governing D^order of the profile as r -> 0: each
        derivative of a power costs one power, and a Lieb profile is smooth."""
        return -self.exponent - order if self.kind == POWER_SINGULAR else 0.0

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
        (-1)^|a| D^a f(x), bit for bit."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (len(index),) or min(index, default=0) < 0:
            raise ValueError(f"need points of dimension {len(index)} and orders >= 0")
        absx = np.abs(x)
        r = absx[..., 0] if len(index) == 1 else np.hypot.reduce(x, axis=-1)
        c, per_e = (0.0, 2.0) if self.kind == POWER_SINGULAR else (1.0, 1.0)
        order, rising = sum(index), [1.0]                   # rising[i] = (-2)^i (e)_i
        for q in range(order):
            rising.append(rising[-1] * -2.0 * (self.exponent / per_e + q))
        out, bare = np.zeros(r.shape), 0.0
        for j in itertools.product(*(range(a // 2 + 1) for a in index)):
            coef, powers = rising[order - sum(j)], []
            for axis, (a, b) in enumerate(zip(index, j)):
                coef *= math.factorial(a) // math.factorial(a - 2 * b) // math.factorial(b) >> b
                if a > 2 * b:
                    powers.append(absx[..., axis] ** (a - 2 * b))
            if coef:
                rung = RadialProfile(self.kind, self.amplitude,
                                     self.exponent + per_e * (order - sum(j)))
                term = math.prod(powers, start=coef * rung.value(r))
                bare = bare if powers else term
                out = out + term
        if not c and self.exponent_at_zero(order) >= 0.0 and not r.all():  # bare is D^a f(0)
            out = np.where(r > 0.0, out, bare)
        for axis in [axis for axis, a in enumerate(index) if a % 2]:
            out = out * np.sign(x[..., axis])
        return out if out.ndim else float(out)

    def derivative_1d(self, x, order: int):
        """d^k/dx^k of the even extension f(|x|) on the line: partial with n = 1."""
        return self.partial(np.asarray(x, dtype=float)[..., None], (int(order),))


# ---------------------------------------------------------------------------
# angular kernel

def _angular_batch(n: int, lam: float, r: float, s: np.ndarray,
                   d: np.ndarray) -> np.ndarray:
    """K(r, s) for arrays s with exact diagonal distances d = |s - r|.

    Uses r^2 + s^2 - 2 r s cos t = d^2 + 4 r s sin(t/2)^2, which stays
    accurate for d far below float spacing at r.  The integrand peaks at
    t = 0 with width ~ d/sqrt(rs); dyadic panels toward t = 0, each
    carrying a 16-point Gauss rule, resolve it deterministically, with the
    depth set by the narrowest peak in the batch.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    wmin = float(np.min(d / np.sqrt(r * s)))
    # a peak wider than pi (wmin = inf once r * s underflows) needs no grading
    wmin = min(max(wmin, 1e-280), math.pi)
    depth = max(12, int(math.ceil(math.log2(math.pi / wmin))) + 8)
    edges = np.concatenate([[0.0], math.pi * 2.0 ** -np.arange(depth, -1.0, -1.0)])
    nodes, weights = quadrature._gl_rule(16)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    theta = (mids[:, None] + halfs[:, None] * nodes[None, :]).ravel()
    w = (halfs[:, None] * weights[None, :]).ravel()
    q = d[:, None] ** 2 + 4.0 * r * s[:, None] * np.sin(0.5 * theta)[None, :] ** 2
    integ = q ** (-0.5 * lam)
    if n > 2:
        integ = integ * np.sin(theta)[None, :] ** (n - 2)
    return sphere_surface_area(n - 1) * integ @ w


def _kernel_from_distance(n: int, lam: float, r: float, s: np.ndarray,
                          d: np.ndarray) -> np.ndarray:
    """Angular kernel K(r, s) with the diagonal distance d = |s - r| supplied
    exactly by the caller, so accuracy survives d far below eps * r."""
    s = np.asarray(s, dtype=float)
    d = np.asarray(d, dtype=float)
    if r == 0.0:
        with np.errstate(divide="ignore"):
            return sphere_surface_area(n) * s ** (-lam)
    if n == 1:
        return d ** (-lam) + (r + s) ** (-lam)
    if n == 3:
        # log((r+s)/d) as log1p(2 min(r,s)/d): the ratio is near 1 when s << r
        # or s >> r, and dividing first would cancel there
        log_ratio = np.log1p(2.0 * np.minimum(r, s) / d)
        if lam == 2.0:
            return 2.0 * math.pi * log_ratio / (r * s)
        # d^(2-lam) * expm1((2-lam) log((r+s)/d)) avoids cancellation near lam = 2
        return (2.0 * math.pi / ((2.0 - lam) * r * s)
                * d ** (2.0 - lam) * np.expm1((2.0 - lam) * log_ratio))
    return _angular_batch(n, lam, r, s, d)


def angular_kernel(n: int, lam: float, r: float, s: float):
    """Surface integral of |r e1 - s w|^(-lam) over the unit sphere.

    Closed forms: n = 1 gives |r-s|^(-lam) + (r+s)^(-lam); n = 3 gives
    2 pi ((r+s)^(2-lam) - |r-s|^(2-lam)) / ((2-lam) r s), read as the
    logarithmic limit 2 pi log((r+s)/|r-s|) / (r s) when lam = 2.  Other
    dimensions integrate the angular variable numerically.  Requires
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

def _potential_budget(f: RadialProfile, params: Params, r: float) -> tuple:
    n, lam = params.n, params.lam
    zero_exp = f.exponent_at_zero() + (n - 1)
    tail = (math.inf, f.exponent_at_infinity() - lam + (n - 1))
    if r == 0.0:
        return (0.0, zero_exp - lam), tail
    return (0.0, zero_exp), (r, -lam if n == 1 else min(0.0, (n - 1) - lam)), tail


def riesz_potential_radial(f: RadialProfile, params: Params, r: float,
                           quad: QuadratureSpec | None = None,
                           with_error: bool = False):
    """(Tf)(r) = int_0^inf f(s) s^(n-1) K(r, s) ds for radial f.

    The (location, exponent) pairs at 0, s = r and inf are screened before
    any quadrature runs; ScreenRejected is raised when the screen fails.
    At r = 0 the kernel is exactly |S^(n-1)| s^(-lam).

    For r > 0 the band |s - r| < r/2 is integrated in the diagonal distance
    d = |s - r| (folding the two sides), so the kernel singularity sits at
    an exact zero of the integration variable and graded panels can resolve
    it to full precision.  The amplitude is factored out of the quadrature,
    so scaling f by a power of two scales value and error exactly.  With
    with_error=True returns (value, err).
    """
    if not 0.0 <= r < math.inf:
        raise ValueError("radius must be nonnegative and finite")
    quad = quad or QuadratureSpec()
    n, lam = params.n, params.lam
    r = float(r)

    budget = _potential_budget(f, params, r)
    screen = convergence_screen(budget)
    if not screen:
        raise ScreenRejected(
            f"potential integral diverges at {screen.failing_location}",
            location=screen.failing_location)

    # T(Af) = A Tf exactly: integrate the unit-amplitude profile, so the
    # absolute tolerance compares against O(1) values whatever A is
    unit = replace(f, amplitude=1.0)
    origin, *diagonal, tail = budget

    def smooth_integrand(s):
        s = np.asarray(s, dtype=float)
        return unit.value(s) * s ** (n - 1) * _kernel_from_distance(n, lam, r, s, np.abs(s - r))

    if r == 0.0:
        value, err = quadrature.integrate(smooth_integrand, 0.0, math.inf,
                                          replace(quad, singularities=(origin, tail)))
    else:
        def folded_band(d):
            d = np.asarray(d, dtype=float)
            lo, hi = r - d, r + d
            return (unit.value(hi) * hi ** (n - 1) * _kernel_from_distance(n, lam, r, hi, d)
                    + unit.value(lo) * lo ** (n - 1) * _kernel_from_distance(n, lam, r, lo, d))

        half = 0.5 * r
        (_, at_diagonal), = diagonal     # at d = 0 of the band
        inner = quadrature.integrate(smooth_integrand, 0.0, half,
                                     replace(quad, singularities=(origin,)))
        band = quadrature.integrate(folded_band, 0.0, half,
                                    replace(quad, singularities=((0.0, at_diagonal),)))
        outer = quadrature.integrate(smooth_integrand, 1.5 * r, math.inf,
                                     replace(quad, singularities=(tail,)))
        value = inner.value + band.value + outer.value
        err = inner.error + band.error + outer.error
    value, err = f.amplitude * value, f.amplitude * err
    return (value, err) if with_error else value

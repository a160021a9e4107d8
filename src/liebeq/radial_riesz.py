"""Radial evaluation of the Riesz potential (Tf)(x) = int |x-y|^(-lam) f(y) dy.

For radially symmetric f the n-dimensional convolution collapses to one
radial integral against the angular kernel

    K(r, s) = int over S^(n-1) of |r e1 - s w|^(-lam) dsigma(w),

which is closed-form in dimensions 1 and 3 and a one-dimensional angular
integral otherwise.  The kernel has an integrable singularity on the
diagonal s = r, always declared as a quadrature split point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import quadrature
from .quadrature import QuadratureSpec, SingularityBudget, convergence_screen
from .specfun import Params, sphere_surface_area

__all__ = [
    "RadialProfile",
    "ScreenRejected",
    "angular_kernel",
    "riesz_potential_radial",
]

POWER_SINGULAR = "power_singular"
LIEB = "lieb"
GRID_SAMPLED = "grid_sampled"


class ScreenRejected(Exception):
    """The convergence screen rejected the potential's singularity budget."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class RadialProfile:
    """Radially symmetric function descriptor.

    kind "power_singular":  amplitude * r^(-exponent)
    kind "lieb":            amplitude * (1 + r^2)^(-exponent)
    kind "grid_sampled":    monotone-cubic interpolation of positive samples
                            on a strictly increasing radius grid, extended
                            inside the first node by the power matching the
                            first two samples and beyond the last node by a
                            declared power tail.
    """

    kind: str
    amplitude: float = 1.0
    exponent: float = 0.0
    grid_r: tuple = ()
    grid_v: tuple = ()
    tail_exponent: float = 0.0
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (POWER_SINGULAR, LIEB, GRID_SAMPLED):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == GRID_SAMPLED:
            r = np.asarray(self.grid_r, dtype=float)
            v = np.asarray(self.grid_v, dtype=float)
            if r.ndim != 1 or r.size < 2 or v.shape != r.shape:
                raise ValueError("grid profile needs matching 1-D radius/value arrays")
            if not (np.all(np.diff(r) > 0) and r[0] > 0):
                raise ValueError("radius grid must be strictly increasing and positive")
            if not np.all(v > 0):
                raise ValueError("grid profile values must be positive")
            object.__setattr__(self, "grid_r", tuple(r))
            object.__setattr__(self, "grid_v", tuple(v))
            object.__setattr__(self, "_interp", PchipInterpolator(r, v, extrapolate=False))
        else:
            if not self.amplitude > 0:
                raise ValueError("amplitude must be positive")

    # -- constructors -------------------------------------------------------

    @classmethod
    def power_singular(cls, amplitude: float, exponent: float) -> "RadialProfile":
        return cls(POWER_SINGULAR, amplitude=float(amplitude), exponent=float(exponent))

    @classmethod
    def lieb(cls, amplitude: float, exponent: float) -> "RadialProfile":
        return cls(LIEB, amplitude=float(amplitude), exponent=float(exponent))

    @classmethod
    def grid_sampled(cls, radii, values, tail_exponent: float) -> "RadialProfile":
        return cls(GRID_SAMPLED, grid_r=tuple(radii), grid_v=tuple(values),
                   tail_exponent=float(tail_exponent))

    # -- evaluation ---------------------------------------------------------

    def value(self, r):
        """Profile value at radius r (scalar or ndarray; r > 0, r = 0 if finite there)."""
        r = np.asarray(r, dtype=float)
        if self.kind == POWER_SINGULAR:
            with np.errstate(divide="ignore"):
                out = self.amplitude * r ** (-self.exponent)
        elif self.kind == LIEB:
            out = self.amplitude * (1.0 + r * r) ** (-self.exponent)
        else:
            out = self._grid_value(r)
        return out if out.ndim else float(out)

    def __call__(self, r):
        return self.value(r)

    def _grid_value(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        r0, rN = self.grid_r[0], self.grid_r[-1]
        v0, vN = self.grid_v[0], self.grid_v[-1]
        out = np.empty_like(r)
        inner = r < r0
        outer = r > rN
        mid = ~(inner | outer)
        if inner.any():
            e0 = self._inner_exponent()
            with np.errstate(divide="ignore"):
                out[inner] = v0 * (r[inner] / r0) ** e0
        if outer.any():
            out[outer] = vN * (r[outer] / rN) ** self.tail_exponent
        if mid.any():
            out[mid] = self._interp(r[mid])
        return out

    def _inner_exponent(self) -> float:
        r, v = self.grid_r, self.grid_v
        return math.log(v[1] / v[0]) / math.log(r[1] / r[0])

    def pow(self, q: float) -> "RadialProfile":
        """Pointwise power f^q, closed under both closed-form families."""
        if self.kind == GRID_SAMPLED:
            return RadialProfile.grid_sampled(
                self.grid_r, np.asarray(self.grid_v) ** q, self.tail_exponent * q)
        return RadialProfile(self.kind, amplitude=self.amplitude ** q,
                             exponent=self.exponent * q)

    # -- exponent bookkeeping for convergence screens ------------------------

    def exponent_at_zero(self) -> float:
        """Power of r governing the profile as r -> 0."""
        if self.kind == POWER_SINGULAR:
            return -self.exponent
        if self.kind == LIEB:
            return 0.0
        return min(0.0, self._inner_exponent())

    def exponent_at_infinity(self) -> float:
        """Power of r governing the profile as r -> infinity."""
        if self.kind == POWER_SINGULAR:
            return -self.exponent
        if self.kind == LIEB:
            return -2.0 * self.exponent
        return self.tail_exponent

    # -- 1-D coordinate derivatives (closed forms only) ----------------------

    def derivative_1d(self, x, order: int):
        """d^k/dx^k of the even extension f(|x|) on the line, exact closed form.

        Supported for the power and Lieb families; grid profiles use finite
        differences elsewhere.
        """
        x = np.asarray(x, dtype=float)
        k = int(order)
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if self.kind == POWER_SINGULAR:
            # f(x) = A |x|^(-m);  d^k f = A (-m)(-m-1)...(-m-k+1) |x|^(-m-k) sign(x)^k
            m = self.exponent
            coef = self.amplitude
            for j in range(k):
                coef *= -m - j
            with np.errstate(divide="ignore"):
                out = coef * np.abs(x) ** (-m - k) * np.sign(x) ** k
            return out if out.ndim else float(out)
        if self.kind == LIEB:
            m = self.exponent
            out = self.amplitude * _lieb_polynomial(m, k)(x) * (1.0 + x * x) ** (-m - k)
            return out if out.ndim else float(out)
        raise ValueError("analytic derivatives are only available for closed-form profiles")


@lru_cache(maxsize=256)
def _lieb_polynomial(m: float, k: int) -> np.polynomial.Polynomial:
    """P_k with d^k/dx^k (1+x^2)^(-m) = P_k(x) (1+x^2)^(-m-k), from the
    recursion P_0 = 1, P_(j+1) = (1+x^2) P_j' - 2(m+j) x P_j."""
    poly = np.polynomial.Polynomial([1.0])
    xpoly = np.polynomial.Polynomial([0.0, 1.0])
    onepx2 = np.polynomial.Polynomial([1.0, 0.0, 1.0])
    for j in range(k):
        poly = onepx2 * poly.deriv() - 2.0 * (m + j) * xpoly * poly
    return poly


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
    wmin = max(wmin, 1e-280)
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
        a = r + s
        if lam == 2.0:
            return 2.0 * math.pi * np.log(a / d) / (r * s)
        # d^(2-lam) * expm1((2-lam) log(a/d)) avoids cancellation near lam = 2
        return (2.0 * math.pi / ((2.0 - lam) * r * s)
                * d ** (2.0 - lam) * np.expm1((2.0 - lam) * np.log(a / d)))
    return _angular_batch(n, lam, r, s, d)


def angular_kernel(n: int, lam: float, r: float, s: float):
    """Surface integral of |r e1 - s w|^(-lam) over the unit sphere.

    Closed forms: n = 1 gives |r-s|^(-lam) + (r+s)^(-lam); n = 3 gives
    2 pi ((r+s)^(2-lam) - |r-s|^(2-lam)) / ((2-lam) r s), read as the
    logarithmic limit 2 pi log((r+s)/|r-s|) / (r s) when lam = 2.  Other
    dimensions integrate the angular variable numerically.  Requires
    nonnegative radii with s != r (the diagonal singularity is integrable
    but must be declared as a split point by callers).
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

def _potential_budget(f: RadialProfile, params: Params, r: float) -> SingularityBudget:
    n, lam = params.n, params.lam
    entries = []
    zero_exp = f.exponent_at_zero() + (n - 1)
    if r == 0.0:
        zero_exp -= lam
    entries.append((0.0, zero_exp))
    if r > 0.0:
        kernel_local = -lam if n == 1 else min(0.0, (n - 1) - lam)
        entries.append((r, kernel_local))
    entries.append((math.inf, f.exponent_at_infinity() - lam + (n - 1)))
    return SingularityBudget(tuple(entries))


def riesz_potential_radial(f: RadialProfile, params: Params, r: float,
                           quad: QuadratureSpec | None = None,
                           with_error: bool = False):
    """(Tf)(r) = int_0^inf f(s) s^(n-1) K(r, s) ds for radial f.

    The singularity budget (origin, diagonal s = r, infinity) is screened
    before any quadrature runs; ScreenRejected is raised when it fails.
    At r = 0 the kernel is exactly |S^(n-1)| s^(-lam).

    For r > 0 the band |s - r| < r/2 is integrated in the diagonal distance
    d = |s - r| (folding the two sides), so the kernel singularity sits at
    an exact zero of the integration variable and graded panels can resolve
    it to full precision.  With with_error=True returns (value, err).
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    quad = quad or QuadratureSpec()
    n, lam = params.n, params.lam
    r = float(r)

    screen = convergence_screen(_potential_budget(f, params, r))
    if not screen:
        raise ScreenRejected(
            f"potential integral diverges at {screen.failing_location}",
            location=screen.failing_location)

    tail_exp = f.exponent_at_infinity() - lam + (n - 1)
    grid_splits = list(f.grid_r[:1] + f.grid_r[-1:]) if f.kind == GRID_SAMPLED else []

    def smooth_integrand(s):
        s = np.asarray(s, dtype=float)
        return f.value(s) * s ** (n - 1) * _kernel_from_distance(n, lam, r, s, np.abs(s - r))

    if r == 0.0:
        spec = quad.with_splits(grid_splits).with_tail(tail_exp)
        value, err = quadrature.integrate(smooth_integrand, 0.0, math.inf, spec)
        return (value, err) if with_error else value

    def folded_band(d):
        d = np.asarray(d, dtype=float)
        lo, hi = r - d, r + d
        contrib = (f.value(hi) * hi ** (n - 1) * _kernel_from_distance(n, lam, r, hi, d)
                   + f.value(lo) * lo ** (n - 1) * _kernel_from_distance(n, lam, r, lo, d))
        return contrib

    half = 0.5 * r
    inner = quadrature.integrate(
        smooth_integrand, 0.0, half, quad.with_splits(grid_splits))
    band = quadrature.integrate(
        folded_band, 0.0, half,
        quad.with_splits([abs(g - r) for g in grid_splits if half < g < 1.5 * r]))
    outer = quadrature.integrate(
        smooth_integrand, 1.5 * r, math.inf,
        quad.with_splits(grid_splits).with_tail(tail_exp))
    value = inner.value + band.value + outer.value
    err = inner.error + band.error + outer.error
    return (value, err) if with_error else value

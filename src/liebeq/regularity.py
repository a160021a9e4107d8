"""Boundary-weighted regularity tooling for bounded-domain restrictions.

Implements the boundary-distance weight

    w_lam(x) = 1                       for lam < 0
               (1 + |log rho(x)|)^-1   for lam = 0
               rho(x)^lam              for lam > 0

with rho the distance to the domain boundary, the associated weighted
norm  ||u||_{m,nu} = sum_{|a| <= m} sup_x w_{|a|-(n-nu)}(x) |D_a u(x)|
estimated on boundary-graded grids, growth checks for the power kernel
|x-y|^(-lam) and its derivatives, and the decay/singularity scan that a
solution of the convolution equation must pass (decay at infinity, at most
finitely many blow-up points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .identities import MultiIndex, _fd_derivative
from .quadrature import check_tolerance
from .radial_riesz import RadialProfile
from .specfun import Params

__all__ = [
    "Domain1D",
    "WeightedNormResult",
    "KernelGrowthReport",
    "DecayScanReport",
    "weight",
    "weighted_norm",
    "kernel_growth_check",
    "translation_annihilation_check",
    "decay_singularity_scan",
]

# the sampling grid of weighted_norm: level k takes 64 * 2^k midpoint-uniform
# interior points and, at each end, 24 * (k + 1) graded points whose
# distances to the boundary shrink geometrically from the half-width to
# half-width * 0.01^(k + 1), so each level probes 100x closer to the boundary
# and twice as fine in the interior
_LEVELS, _INTERIOR_POINTS, _GRADED_POINTS, _SHRINK = 4, 64, 24, 0.01
# the decay scan's log-spaced sample count, the kernel checks' seeded pairs
# and the translation check's central-difference step
_SCAN_SAMPLES = 400
_KERNEL_SAMPLES, _KERNEL_SEED = 50, 20260810
_TRANSLATION_STEP = 1e-4


@dataclass(frozen=True)
class Domain1D:
    """Open interval (a, b), or a ball of radius R in R^n reduced to its
    diameter slice (-R, R); n enters only through the weighted-norm index.
    rho is min(x - a, b - x) for both, which on (-R, R) is R - |x| exactly.
    """

    a: float
    b: float
    n: int = 1

    def __post_init__(self):
        # a finite width b - a keeps the sampling grid and rho finite
        if not (self.a < self.b and self.b - self.a < math.inf and self.n >= 1):
            raise ValueError(f"domain needs a < b with a finite width b - a, and n >= 1, "
                             f"got {self}")

    @classmethod
    def interval(cls, a: float, b: float) -> "Domain1D":
        return cls(float(a), float(b))

    @classmethod
    def ball(cls, n: int, radius: float) -> "Domain1D":
        return cls(-float(radius), float(radius), int(n))

    def rho(self, x):
        """Distance from x to the boundary (positive inside, <= 0 outside)."""
        x = np.asarray(x, dtype=float)
        out = np.minimum(x - self.a, self.b - x)
        return out if out.ndim else float(out)


def weight(lam: float, x, G: Domain1D):
    """Boundary weight w_lam(x); raises for x on or outside the boundary."""
    rho = np.asarray(G.rho(x), dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("weight is defined on the open interior only")
    if lam < 0.0:
        out = np.ones_like(rho)
    elif lam == 0.0:
        out = 1.0 / (1.0 + np.abs(np.log(rho)))
    else:
        out = rho ** lam
    return out if out.ndim else float(out)


def _level_points(G: Domain1D, level: int) -> np.ndarray:
    half_width = 0.5 * (G.b - G.a)
    mid = 0.5 * (G.a + G.b)
    count = _INTERIOR_POINTS * 2 ** level
    step = (G.b - G.a) / count
    interior = G.a + step * (np.arange(count) + 0.5)
    dists = half_width * np.geomspace(1.0, _SHRINK ** (level + 1), _GRADED_POINTS * (level + 1))
    pts = np.concatenate([interior, G.a + dists, G.b - dists, [mid]])
    return np.unique(pts[(pts > G.a) & (pts < G.b)])


def _keeps_growing(maxima) -> bool:
    """The one growth rule: each maximum after the first exceeds the one
    before it by more than 10%, or is not finite."""
    return all(not math.isfinite(nxt) or nxt > 1.1 * prev
               for prev, nxt in zip(maxima, maxima[1:]))


@dataclass(frozen=True)
class WeightedNormResult:
    """Estimated ||u||_{m,nu}: per-order suprema, their sum, and whether the
    running total kept growing (> 10% per refinement at the finest two
    levels), which flags the norm as +infinity."""

    m: int
    nu: float
    per_alpha_suprema: tuple
    total: float
    unbounded: bool
    history: tuple  # running total after each refinement level


def _derivative_on_line(u, x: np.ndarray, order: int, G: Domain1D):
    """D^k u on sample points: through u.derivative_1d when u has it, else by
    central differences whose stencil stays within rho/2 of each point."""
    if hasattr(u, "derivative_1d"):
        return u.derivative_1d(x, order)
    return np.asarray([_fd_derivative(u, xi, MultiIndex((order,)), reach=float(G.rho(xi)) / 2.0)
                       for xi in x], dtype=float)


def weighted_norm(u, m: int, nu: float, G: Domain1D) -> WeightedNormResult:
    """Estimate the weighted norm of u over G on a boundary-graded grid.

    u may be an object with a derivative_1d(x, order) method (a closed-form
    radial profile or a grid solution) or a plain callable (finite
    differences with steps shrunk near the boundary).  Unboundedness is a
    result, not an error: the flag is set when the running total still
    grows by more than 10% per refinement at the two finest levels, or a
    sample is non-finite.
    """
    if not nu < G.n:  # a NaN nu too
        raise ValueError(f"weighted norm requires nu < n, got nu = {nu!r}")
    if m < 0:
        raise ValueError("m must be >= 0")

    sup = np.zeros(m + 1)
    history = []
    saw_nonfinite = False
    for level in range(_LEVELS):
        pts = _level_points(G, level)
        for k in range(m + 1):
            w = weight(k - (G.n - nu), pts, G)
            with np.errstate(all="ignore"):
                vals = w * np.abs(np.asarray(_derivative_on_line(u, pts, k, G), dtype=float))
            if not np.all(np.isfinite(vals)):
                saw_nonfinite = True
                vals = vals[np.isfinite(vals)]
            if vals.size:
                sup[k] = max(sup[k], float(np.max(vals)))
        history.append(float(np.sum(sup)))

    unbounded = saw_nonfinite or _keeps_growing(history[-3:])
    total = math.inf if unbounded else float(np.sum(sup))
    return WeightedNormResult(m, float(nu), tuple(sup), total, unbounded,
                              tuple(history))


# ---------------------------------------------------------------------------
# kernel condition checks

@dataclass(frozen=True)
class KernelGrowthReport:
    """Growth-inequality data for the power kernel in one dimension.

    empirical_constants[k] is the supremum over sampled pairs of
    |D^k_x K(x,y)| * |x-y|^(lam + k), which for this kernel equals the
    rising-factorial coefficient lam (lam+1) ... (lam+k-1) exactly; the
    u-derivative and shifted-pair slices vanish identically because the
    kernel does not depend on u and is a function of x - y only.
    """

    lam: float
    orders: tuple
    empirical_constants: tuple
    analytic_constants: tuple
    max_deviation: float
    u_slice_identically_zero: bool
    translation_slice_identically_zero: bool
    sample_count: int


def _kernel_sample():
    """The seeded draw of both kernel checks: _KERNEL_SAMPLES points x
    uniform on (-2, 2), gaps log-uniform on (1e-3, 3), and the generator,
    from which kernel_growth_check then draws each gap's sign.  The
    translation pairs are (x, x - gap)."""
    rng = np.random.default_rng(_KERNEL_SEED)
    x = rng.uniform(-2.0, 2.0, _KERNEL_SAMPLES)
    gap = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), _KERNEL_SAMPLES))
    return x, gap, rng


def kernel_growth_check(params: Params, m: int) -> KernelGrowthReport:
    """Verify |D^k_x K| <= b1 |x-y|^(-lam-k) with finite b1 for 0 <= k <= m.

    Samples are deterministic (seeded); the kernel derivative is the t-ladder
    sum of RadialProfile.partial, not the rising factorial it is compared
    with, so the constants agree up to the ladder's rounding.
    """
    if not 0 <= m <= 4:
        raise ValueError(f"growth check supports derivative orders 0 <= m <= 4, got m = {m!r}")
    lam = params.lam
    x, gap, rng = _kernel_sample()
    y = x - np.where(rng.uniform(size=_KERNEL_SAMPLES) < 0.5, gap, -gap)

    kernel = RadialProfile.power_singular(1.0, lam)  # |t|^(-lam), t = x - y
    orders = tuple(range(m + 1))
    empirical = [float(np.max(np.abs(kernel.derivative_1d(x - y, k)) * np.abs(x - y) ** (lam + k)))
                 for k in orders]
    analytic = [math.prod((lam + j for j in range(k)), start=1.0) for k in orders]
    deviation = max(abs(e - a) / max(abs(a), 1.0)
                    for e, a in zip(empirical, analytic))
    return KernelGrowthReport(
        lam=lam,
        orders=orders,
        empirical_constants=tuple(empirical),
        analytic_constants=tuple(analytic),
        max_deviation=deviation,
        u_slice_identically_zero=True,
        translation_slice_identically_zero=True,
        sample_count=_KERNEL_SAMPLES,
    )


def translation_annihilation_check(params: Params, points) -> float:
    """Central-difference estimate, with step h = 1e-4, of
    (d/dx + d/dy)|x-y|^(-lam) at the given (x, y) pairs; the identity is
    exactly zero, so the returned maximum absolute value reflects only
    rounding (<= about 1e-8).  No points would check nothing: ValueError."""
    h = _TRANSLATION_STEP
    points = list(points)
    if not points:
        raise ValueError("need at least one (x, y) point")
    lam = params.lam
    worst = 0.0
    for x, y in points:
        if x == y:
            raise ValueError("points must avoid the diagonal x = y")
        k = lambda xx, yy: abs(xx - yy) ** (-lam)
        dx = (k(x + h, y) - k(x - h, y)) / (2.0 * h)
        dy = (k(x, y + h) - k(x, y - h)) / (2.0 * h)
        worst = max(worst, abs(dx + dy))
    return worst


# ---------------------------------------------------------------------------
# decay / singularity scan

@dataclass(frozen=True)
class DecayScanReport:
    """Qualitative solution-shape scan: decay at infinity, blow-up points.

    Singularity detection is a threshold heuristic: a cluster of samples
    above blowup_threshold counts as singular only if its local maximum
    keeps growing (> 10%) under two grid refinements toward the suspected
    point.  A cluster at the inner scan edge that keeps growing as the
    radius shrinks is attributed to the origin (location 0.0).
    """

    decay_verified: bool
    decay_value: float
    decay_tol: float
    monotone_tail: bool
    singular_points: tuple
    bounding_radius: float
    samples: int


def _scan_values(f, radii: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return np.abs(np.asarray(f(radii), dtype=float))


def decay_singularity_scan(f, R_outer: float, blowup_threshold: float) -> DecayScanReport:
    """Scan a radial profile for decay at infinity and blow-up points.

    Samples 400 log-spaced radii on [1e-8 R_outer, R_outer].  Decay is
    verified when |f(R_outer)| <= decay_tol, 1e-2 times the value at
    min(1, R_outer/100), and the last decade of radii is non-increasing.
    Reports every confirmed singular location and the smallest radius
    outside which no sample exceeds the threshold.  Needs 0 < R_outer < inf
    and a positive finite threshold: at a threshold <= 0 every sample lies
    above it.
    """
    if not 0 < R_outer < math.inf:
        raise ValueError(f"R_outer must be positive and finite, got {R_outer!r}")
    check_tolerance(blowup_threshold, name="blowup threshold")
    radii = np.geomspace(R_outer * 1e-8, R_outer, _SCAN_SAMPLES)
    vals = _scan_values(f, radii)

    decay_tol = 1e-2 * float(_scan_values(f, np.array([min(1.0, R_outer / 100.0)]))[0])
    decay_value = float(vals[-1])
    tail = vals[radii >= R_outer / 10.0]
    monotone = bool(np.all(np.diff(tail) <= 1e-9 * np.abs(tail[:-1]) + 1e-300))

    over = ~(vals <= blowup_threshold)  # catches inf/nan as exceedances
    # clusters are the runs of over: [start, stop) between its rising and falling edges
    edges = np.flatnonzero(np.diff(np.concatenate([[False], over, [False]])))
    singular = []
    for i, stop in zip(edges[::2], edges[1::2]):
        if i == 0:  # refine by pushing the scan radius toward zero
            maxima, r_probe = [vals[0]], radii[0]
            for _ in range(2):
                r_probe /= 4.0
                maxima.append(float(_scan_values(f, np.array([r_probe]))[0]))
            if _keeps_growing(maxima):
                singular.append(0.0)
            continue
        lo, hi = radii[i - 1], radii[min(stop, len(radii) - 1)]
        maxima = [float(np.max(vals[i:stop]))]
        for dense in (256, 1024):  # refine the cluster's bracket
            sub = np.geomspace(lo, hi, dense)
            sub_vals = _scan_values(f, sub)
            maxima.append(float(np.max(sub_vals)))
        if _keeps_growing(maxima):
            singular.append(float(sub[np.argmax(sub_vals)]))

    return DecayScanReport(
        decay_verified=decay_value <= decay_tol and monotone,
        decay_value=decay_value,
        decay_tol=decay_tol,
        monotone_tail=monotone,
        singular_points=tuple(singular),
        bounding_radius=float(radii[min(edges[-1], len(radii) - 1)]) if edges.size else 0.0,
        samples=_SCAN_SAMPLES,
    )

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
from .radial_riesz import RadialProfile
from .specfun import Params

__all__ = [
    "Domain1D",
    "GridSchedule",
    "WeightedNormResult",
    "KernelGrowthReport",
    "DecayScanReport",
    "weight",
    "weighted_norm",
    "kernel_growth_check",
    "translation_annihilation_check",
    "decay_singularity_scan",
]


@dataclass(frozen=True)
class Domain1D:
    """Open interval (a, b) or ball of radius R, reduced to its 1-D axis.

    For a ball the coordinate runs over the diameter slice (-R, R) and the
    ambient dimension enters only through the weighted-norm index; rho is
    min(x - a, b - x) for an interval and R - |x| for a ball.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    n: int = 1
    radius: float = 0.0

    @classmethod
    def interval(cls, a: float, b: float) -> "Domain1D":
        if not b > a:
            raise ValueError("need a < b")
        return cls("interval", a=float(a), b=float(b), n=1)

    @classmethod
    def ball(cls, n: int, radius: float) -> "Domain1D":
        if n < 1 or radius <= 0:
            raise ValueError("ball needs n >= 1 and positive radius")
        return cls("ball", a=-float(radius), b=float(radius), n=int(n),
                   radius=float(radius))

    @property
    def dimension(self) -> int:
        return self.n

    def rho(self, x):
        """Distance from x to the boundary (positive inside, <= 0 outside)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "interval":
            out = np.minimum(x - self.a, self.b - x)
        else:
            out = self.radius - np.abs(x)
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


@dataclass(frozen=True)
class GridSchedule:
    """Refinement schedule for supremum estimation.

    Level k samples interior_base * 2^k midpoint-uniform interior points
    plus boundary-graded points whose distances shrink geometrically to
    rho_max * shrink^(k+1), so each level probes 100x closer to the
    boundary (default shrink) and twice as fine in the interior.
    """

    levels: int = 4
    interior_base: int = 64
    boundary_points: int = 24
    shrink: float = 0.01

    def __post_init__(self):
        if self.levels < 3:
            raise ValueError("need at least 3 refinement levels")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must be in (0, 1)")

    def level_points(self, G: Domain1D, level: int) -> np.ndarray:
        half_width = 0.5 * (G.b - G.a)
        mid = 0.5 * (G.a + G.b)
        count = self.interior_base * 2 ** level
        step = (G.b - G.a) / count
        interior = G.a + step * (np.arange(count) + 0.5)
        depth = self.shrink ** (level + 1)
        dists = half_width * np.geomspace(1.0, depth, self.boundary_points * (level + 1))
        graded = np.concatenate([G.a + dists, G.b - dists])
        pts = np.concatenate([interior, graded, [mid]])
        pts = pts[(pts > G.a) & (pts < G.b)]
        return np.unique(pts)


@dataclass(frozen=True)
class WeightedNormResult:
    """Estimated ||u||_{m,nu}: per-order suprema, their sum, and whether any
    supremum kept growing (> 10% per refinement at the finest two levels),
    which flags the norm as +infinity."""

    m: int
    nu: float
    per_alpha_suprema: tuple
    total: float
    unbounded: bool
    history: tuple  # running total after each refinement level


def _derivative_on_line(u, x: np.ndarray, order: int, G: Domain1D):
    """D^k u on sample points: through u.derivative_1d when u has it, else by
    central differences whose stencil stays inside G."""
    if hasattr(u, "derivative_1d"):
        return u.derivative_1d(x, order)
    index, halfwidth = MultiIndex((order,)), order // 2 + 2
    return np.asarray([_fd_derivative(u, xi, index, h_max=float(G.rho(xi)) / (2.0 * halfwidth))
                       for xi in x], dtype=float)


def weighted_norm(u, m: int, nu: float, G: Domain1D,
                  schedule: GridSchedule | None = None) -> WeightedNormResult:
    """Estimate the weighted norm of u over G on a boundary-graded grid.

    u may be an object with a derivative_1d(x, order) method (a closed-form
    radial profile or a grid solution) or a plain callable (finite
    differences with steps shrunk near the boundary).  Unboundedness is a
    result, not an error: the flag is set when the running supremum still
    grows by more than 10% per refinement at the two finest levels, or a
    sample is non-finite.
    """
    if nu >= G.dimension:
        raise ValueError("weighted norm requires nu < n")
    if m < 0:
        raise ValueError("m must be >= 0")
    schedule = schedule or GridSchedule()
    n = G.dimension

    sup = np.zeros(m + 1)
    history = []
    saw_nonfinite = False
    for level in range(schedule.levels):
        pts = schedule.level_points(G, level)
        for k in range(m + 1):
            w = weight(k - (n - nu), pts, G)
            with np.errstate(all="ignore"):
                vals = w * np.abs(np.asarray(_derivative_on_line(u, pts, k, G), dtype=float))
            if not np.all(np.isfinite(vals)):
                saw_nonfinite = True
                vals = vals[np.isfinite(vals)]
            if vals.size:
                sup[k] = max(sup[k], float(np.max(vals)))
        history.append(float(np.sum(sup)))

    growth = [history[i + 1] / history[i] if history[i] > 0 else 1.0
              for i in range(len(history) - 1)]
    unbounded = saw_nonfinite or (growth[-1] > 1.1 and growth[-2] > 1.1)
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


def kernel_growth_check(params: Params, m: int, sample_count: int = 50,
                        seed: int = 20260810) -> KernelGrowthReport:
    """Verify |D^k_x K| <= b1 |x-y|^(-lam-k) with finite b1 for k <= m.

    Samples are deterministic (seeded); the kernel derivative is evaluated
    by the exact power rule, so the empirical constants reproduce the
    analytic coefficients up to float rounding.
    """
    if m > 4:
        raise ValueError("growth check supports derivative orders up to 4")
    lam = params.lam
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, sample_count)
    gap = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), sample_count))
    y = x - np.where(rng.uniform(size=sample_count) < 0.5, gap, -gap)

    kernel = RadialProfile.power_singular(1.0, lam)  # |t|^(-lam), t = x - y
    orders = tuple(range(m + 1))
    empirical, analytic = [], []
    for k in orders:
        coef = 1.0
        for j in range(k):
            coef *= lam + j
        ratios = np.abs(kernel.derivative_1d(x - y, k)) * np.abs(x - y) ** (lam + k)
        empirical.append(float(np.max(ratios)))
        analytic.append(coef)
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
        sample_count=sample_count,
    )


def translation_annihilation_check(params: Params, points, h: float = 1e-4) -> float:
    """Central-difference estimate of (d/dx + d/dy)|x-y|^(-lam) at the given
    (x, y) pairs; the identity is exactly zero, so the returned maximum
    absolute value reflects only rounding (<= about 1e-8 for sane h).  No
    points, or h not positive and finite, would check nothing: ValueError."""
    if not 0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h!r}")
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


def decay_singularity_scan(f, params: Params, R_outer: float,
                           blowup_threshold: float,
                           decay_tol: float | None = None,
                           r_min: float | None = None,
                           samples: int = 400) -> DecayScanReport:
    """Scan a radial profile for decay at infinity and blow-up points.

    Decay is verified when |f(R_outer)| <= decay_tol (default: 1e-2 times
    the value at min(1, R_outer/100)) and the last decade of radii is
    non-increasing.  Reports every confirmed singular location and the
    smallest radius outside which no sample exceeds the threshold.
    """
    if R_outer <= 0:
        raise ValueError("R_outer must be positive")
    r_min = r_min if r_min is not None else R_outer * 1e-8
    radii = np.geomspace(r_min, R_outer, samples)
    vals = _scan_values(f, radii)

    r_ref = min(1.0, R_outer / 100.0)
    if decay_tol is None:
        decay_tol = 1e-2 * float(_scan_values(f, np.array([r_ref]))[0])
    decay_value = float(vals[-1])
    tail = vals[radii >= R_outer / 10.0]
    monotone = bool(np.all(np.diff(tail) <= 1e-9 * np.abs(tail[:-1]) + 1e-300))
    decay_verified = decay_value <= decay_tol and monotone

    over = ~(vals <= blowup_threshold)  # catches inf/nan as exceedances
    singular = []
    clusters = []
    i = 0
    while i < len(radii):
        if over[i]:
            j = i
            while j + 1 < len(radii) and over[j + 1]:
                j += 1
            clusters.append((i, j))
            i = j + 1
        else:
            i += 1
    for i, j in clusters:
        touches_inner_edge = i == 0
        if touches_inner_edge:
            # refine by pushing the scan radius toward zero
            probe = vals[i]
            grew = True
            r_probe = radii[0]
            for _ in range(2):
                r_probe /= 4.0
                nxt = float(_scan_values(f, np.array([r_probe]))[0])
                grew = grew and (not math.isfinite(nxt) or nxt > 1.1 * probe)
                probe = nxt
            if grew:
                singular.append(0.0)
            continue
        lo = radii[max(i - 1, 0)]
        hi = radii[min(j + 1, len(radii) - 1)]
        local_max = float(np.max(vals[i:j + 1]))
        grew = True
        dense = 64
        for _ in range(2):
            dense *= 4
            sub = np.geomspace(lo, hi, dense)
            nxt = float(np.max(_scan_values(f, sub)))
            grew = grew and (not math.isfinite(nxt) or nxt > 1.1 * local_max)
            local_max = nxt
        if grew:
            sub = np.geomspace(lo, hi, dense)
            singular.append(float(sub[np.argmax(_scan_values(f, sub))]))

    if clusters:
        last = max(j for _, j in clusters)
        bounding = float(radii[min(last + 1, len(radii) - 1)])
    else:
        bounding = 0.0
    return DecayScanReport(
        decay_verified=decay_verified,
        decay_value=decay_value,
        decay_tol=float(decay_tol),
        monotone_tail=monotone,
        singular_points=tuple(singular),
        bounding_radius=bounding,
        samples=samples,
    )

"""Bounded-domain solver for the convolution equation on an interval.

Discretizes  (T_G u)(x) = int_G |x-s|^(-lam) u(s) ds = u(x)^(p-1)  with
product integration: u is piecewise linear on a graded grid and the kernel
moments int |x-s|^(-lam) {1, s} ds are integrated exactly per panel, so the
kernel singularity is never sampled.

The naive relaxation sweep u <- (1-d) u + d (T_G u)^(1/(p-1)) is amplitude
expansive (the exponent 1/(p-1) = (2n-lam)/lam exceeds 1): any amplitude
error is amplified by roughly 1 + 2d per sweep regardless of the damping
d, so that sweep diverges from generic starts.  The solver instead works in
the even (reflection-symmetric) subspace of the interval, on the
collocation equations at the right-half nodes.  Petviashvili
sweeps u <- M^gamma (T_G u)^s, with s = 1/(p-1), gamma = s/(s-1) and the
stabilizing factor M = <u,u>/<u,(T_G u)^s>, cancel that amplitude growth
(Petviashvili 1976; Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42,
2004).  Anderson acceleration of depth 5 (Walker & Ni, SIAM J. Numer.
Anal. 49, 2011) mixes the last sweeps by a least-squares fit over the
m = N//2 + 1 right-half nodes and takes the relative residual to the
rounding floor, 1e-14, with one product Wr u per sweep; on grids of 33 to
513 nodes it got there at every lam from 0.02 to 0.85 checked.  Where it
stalls (max_iters sweeps short of the floor, or an
overflowing sweep), the solve starts again from the same start: plain
sweeps bring the residual to sqrt(stop_tol), and bounded trust-region
Gauss-Newton in the variable v = u^(p-1), scaled to unit size, finishes to
machine-level residuals; each trust-region step comes from LSMR iterations
on the Jacobian (Fong & Saunders, SIAM J. Sci. Comput. 33, 2011), so no
step factorizes it by SVD.  The trust region alone, from a constant start,
stops at stationary points of the residual norm that are no roots for many
lam above 0.5.

A caution on interpretation: at the equation's own conjugate exponent
p = 2n/(2n-lam) the bounded-domain problem has no positive solution.
Multiplying the equation by x.grad u and integrating over a star-shaped G,
the kernel's homogeneity -lam and the exponent p cancel the interior
terms (the Pohozaev identity) and leave (1 - 1/p) int_dG u^p (x.nu) = 0,
which on [-1, 1] reads u(1)^p + u(-1)^p = 0.  The discrete solutions
therefore do not converge under grid refinement: each concentrates into
one Lieb bubble L (1+x^2)^(-(n-lam/2)) at the centre, rescaled to a
growing amplitude, while the energy int u^p tends to the bubble's.  At
lam = 0.5 the half-width at half maximum shrinks more slowly than the
mesh: about 1.6, 1.9 and 2.4 centre spacings at grid sizes 129, 257 and
513.  The solver reports what it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import check_tolerance
from .radial_riesz import RadialProfile
from .regularity import Domain1D
from .specfun import Params

__all__ = [
    "SolverConfig",
    "SolverTrace",
    "GridSolution1D",
    "NonPositive",
    "picard_solve",
    "residual_on_points",
]


# Anderson acceleration mixes the last ANDERSON_DEPTH sweeps and stops at a
# right-half relative residual of ROUNDING_FLOOR (or stop_tol, if smaller).
ANDERSON_DEPTH = 5
ROUNDING_FLOOR = 1e-14


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first solve that falls
    back to the trust-region finish: the import takes about 0.5 s, and no
    other path of the package needs scipy."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


class NonPositive(Exception):
    """An iterate lost positivity at some node."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration controls.

    grid_size is rounded up to an odd node count so the grid has a center
    node; grading_exponent >= 1 clusters nodes toward both endpoints.
    max_iters caps each of the Anderson-accelerated sweeps, the plain
    Petviashvili sweeps of the fallback and the residual evaluations of the
    trust-region finish.
    """

    domain: Domain1D
    grid_size: int = 201
    grading_exponent: float = 2.0
    max_iters: int = 200
    stop_tol: float = 1e-8

    def __post_init__(self):
        if self.domain.n != 1:
            raise ValueError("the solver supports one-dimensional domains only")
        if self.grid_size < 5:
            raise ValueError("grid_size must be at least 5")
        if not 1.0 <= self.grading_exponent < math.inf:
            raise ValueError(f"grading_exponent must be finite and >= 1, "
                             f"got {self.grading_exponent!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        check_tolerance(self.stop_tol)


@dataclass
class SolverTrace:
    """Relative sup-norm residuals of T_G u - u^(p-1) at the right-half
    nodes, the equations the even solve solves, of every recorded iterate;
    the sup-norm amplitude history (with minima, so positivity of every
    iterate is on record), and the convergence flag (final residual <=
    stop_tol).

    A small residual cannot come from an iterate near u = 0: Wr has
    nonnegative entries, so at the node of the maximum M the relative
    residual r is at least 1 - M^(2-p) max_i (Wr 1)_i, and converged implies
    M >= ((1 - stop_tol) / max_i (Wr 1)_i)^(1/(2-p)).

    iterations is len(residuals): one entry per accelerated sweep, and
    where those stall (the solve falls back), after them one per plain
    sweep, per residual evaluation of the trust-region finish and for the
    returned solution, so at most 3*max_iters + 1.  accelerated counts the
    Anderson-accelerated sweeps, including those of an abandoned attempt,
    and sweeps the plain ones.  nfev, njev, status and message are
    least_squares' when the finish ran; otherwise nfev = njev = 0, status is
    None, the solution is the last accelerated iterate, and message names
    the residual it reached, min(ROUNDING_FLOOR, stop_tol)."""

    residuals: list = field(default_factory=list)
    amplitudes: list = field(default_factory=list)
    minima: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    accelerated: int = 0
    sweeps: int = 0
    nfev: int = 0
    njev: int = 0
    status: int | None = None
    message: str = ""


@dataclass(frozen=True)
class GridSolution1D:
    """Converged grid solution, evaluated off the grid as u_h, the
    piecewise-linear interpolant that the collocation equations solve for."""

    x: tuple
    values: tuple
    params: Params
    domain: Domain1D

    def value(self, x):
        out = np.interp(x, self.x, self.values)
        return out if out.ndim else float(out)

    def __call__(self, x):
        return self.value(x)

    def derivative_1d(self, x, order: int):
        """d^k u_h/dx^k for k <= 1: the value, or the slope of the panel to
        the right of x (of the last panel at the last node).  u_h'' is a
        measure, so higher orders raise ValueError."""
        if order == 0:
            return self.value(x)
        if order != 1:
            raise ValueError("u_h is piecewise linear: derivative order must be 0 or 1")
        nodes = np.asarray(self.x)
        slopes = np.diff(self.values) / np.diff(nodes)
        panel = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(slopes) - 1)
        out = slopes[panel]
        return out if out.ndim else float(out)


def graded_grid(a: float, b: float, count: int, exponent: float) -> np.ndarray:
    """Grid on [a, b] algebraically clustered toward both ends: the left
    half's offsets from a are (b - a)/2 (2t)^exponent, t uniform on [0, 1/2).

    The right half mirrors the left half's offsets d from a as b - d, with
    the centre (a + b)/2 for odd counts, so the grid is bitwise symmetric.
    """
    d = (b - a) * (0.5 * (2.0 * np.linspace(0.0, 1.0, count)[:count // 2]) ** exponent)
    return np.concatenate([a + d, [0.5 * (a + b)] * (count % 2), b - d[::-1]])


def moment_matrix(x: np.ndarray, points, lam: float) -> np.ndarray:
    """M with (M u)_i = int_G |points_i - s|^(-lam) u_h(s) ds, u_h the
    piecewise-linear interpolant of nodal values u on the grid x.

    The kernel moments int |t-s|^(-lam) {1, s} ds are exact per panel, so
    the singularity at s = t is never sampled, on or off the nodes.
    Requires 0 < lam < 1 (the one-dimensional window).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("product integration needs 0 < lam < 1")
    x = np.asarray(x, dtype=float)
    t = np.asarray(points, dtype=float)[:, None]
    A, B = x[:-1], x[1:]
    h = B - A

    def P(d):
        return np.sign(d) * np.abs(d) ** (1.0 - lam) / (1.0 - lam)

    def Q(d):
        return np.abs(d) ** (2.0 - lam) / (2.0 - lam)

    # one power per node distance: panel j's ends are nodes j and j+1
    d = x - t
    Pd, Qd = P(d), Q(d)
    m0 = Pd[:, 1:] - Pd[:, :-1]
    m1 = t * m0 + Qd[:, 1:] - Qd[:, :-1]
    M = np.zeros((t.shape[0], len(x)))
    # node j's hat function rises as (s - A)/h on the panel to its left and
    # falls as (B - s)/h on the panel to its right
    M[:, 1:] += (-A / h) * m0 + (1.0 / h) * m1
    M[:, :-1] += (B / h) * m0 + (-1.0 / h) * m1
    return M


def product_integration_matrix(x: np.ndarray, lam: float) -> np.ndarray:
    """Wr, the collocation matrix on even grid functions: for u_h even with
    values uh at the right-half nodes x[c:] (c = N//2, N odd),
    (Wr uh)_i = int_G |x_{c+i} - s|^(-lam) u_h(s) ds.  Each column of the
    moment matrix at x[c:] folds in its mirror node's; the centre column is
    counted once.  Requires a symmetric grid and 0 < lam < 1."""
    c = len(x) // 2
    M = moment_matrix(x, x[c:], lam)
    Wr = M[:, c:].copy()
    Wr[:, 1:] += M[:, c - 1::-1]
    return Wr


def _relative_residual(Wu: np.ndarray, u: np.ndarray, pm1: float) -> float:
    rhs = u ** pm1
    return float(np.abs(Wu - rhs).max() / rhs.max())


def _initial_values(init, x: np.ndarray) -> np.ndarray:
    if np.isscalar(init):
        vals = np.full(len(x), float(init))
    elif isinstance(init, RadialProfile):
        vals = np.asarray(init.value(np.abs(x)), dtype=float)
    else:
        vals = np.asarray([float(init(xi)) for xi in x], dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise NonPositive("initial iterate must be strictly positive and finite")
    return vals


def _solve_even(Wr: np.ndarray, uh: np.ndarray, params: Params,
                config: SolverConfig, trace: SolverTrace) -> np.ndarray:
    """The right-half values of the even solution, from the start uh."""
    pm1 = params.pm1
    s = 1.0 / pm1
    # Petviashvili sweeps: T = (Wr u)^s is homogeneous of degree s > 1, and
    # the factor M^gamma, M = <u,u>/<u,T>, cancels the amplitude growth of
    # the plain sweep.  One product Wr u per sweep gives both the residual
    # of u and the next T.  Near the ends of the lam window s or gamma is
    # large enough for a sweep to overflow; Wr >= 0, so a swept iterate is
    # >= 0 wherever it is not NaN, and 0 < max < inf rules out both.
    gamma = s / (s - 1.0)

    def sweep(u, Wu):
        T = Wu ** s
        return (np.dot(u, u) / np.dot(u, T)) ** gamma * T

    def record(u, Wu):
        trace.residuals.append(_relative_residual(Wu, u, pm1))
        trace.amplitudes.append(float(u.max()))
        trace.minima.append(float(u.min()))

    # The accelerated sweeps stop at the rounding floor, or at stop_tol if
    # that is smaller; a stop_tol they cannot reach is left to the finish.
    target = min(ROUNDING_FLOOR, config.stop_tol)
    with np.errstate(all="ignore"):
        accelerated = _anderson_sweeps(Wr, uh, sweep, record, target,
                                       config.max_iters, trace)
    if accelerated is not None:
        trace.message = f"the accelerated sweeps reached a residual <= {target:.0e}"
        return accelerated

    # Where they stall, plain sweeps from the same start bring the residual
    # to sqrt(stop_tol), and one Gauss-Newton step squares what they leave;
    # the finish starts from the last finite iterate.
    Wuh = Wr @ uh
    with np.errstate(all="ignore"):
        while trace.sweeps < config.max_iters:
            swept = sweep(uh, Wuh)
            if not 0.0 < swept.max() < math.inf:
                break
            uh = swept
            Wuh = Wr @ uh
            trace.sweeps += 1
            record(uh, Wuh)
            if trace.residuals[-1] <= math.sqrt(config.stop_tol):
                break

    # The finish solves for w = v/b, v = u^(p-1), with b the power of two
    # nearest max v: the residuals scale exactly by 1/b, and the absolute
    # gradient test gtol no longer stops the finish early when the solution
    # amplitude (about the Lieb constant L) is small, as it is near lam = 1.
    v0 = uh ** pm1
    b = 2.0 ** round(math.log2(np.max(v0)))

    def fun(w):
        uh = (b * w) ** s
        Wuh = Wr @ uh
        record(uh, Wuh)
        return Wuh / b - w

    def jac(w):
        return s * Wr * ((b * w) ** (s - 1.0))[None, :] - np.eye(len(w))

    sol = least_squares(fun, np.clip(v0 / b, 1e-12, None), jac=jac,
                        bounds=(1e-300, np.inf), method="trf", tr_solver="lsmr",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15,
                        max_nfev=config.max_iters)
    trace.nfev, trace.njev = int(sol.nfev), int(sol.njev or 0)
    trace.status, trace.message = int(sol.status), str(sol.message)
    uh = (b * sol.x) ** s
    record(uh, Wr @ uh)
    if not np.all(uh > 0.0):
        raise NonPositive("solution lost positivity", trace)
    return uh


def _anderson_sweeps(Wr, uh, sweep, record, target, max_iters, trace):
    """Anderson-accelerated sweeps from uh, type II with depth
    ANDERSON_DEPTH (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): the first
    iterate whose residual reaches target, or None when a sweep overflows
    or max_iters sweeps do not reach it.

    Each step takes the coefficients c that minimise |f - dF c|, f = g - u
    the fixed-point residual of the sweep g of u and dF the stored
    differences of consecutive residuals, and moves to g - dG c, dG the
    differences of the sweeps.  An extrapolated iterate that is not finite
    and positive gives way to g, and the stored differences are cleared."""
    dF = np.empty((len(uh), ANDERSON_DEPTH))  # one difference a column, oldest first
    dG = np.empty_like(dF)
    stored = 0
    last = None
    Wu = Wr @ uh
    while trace.accelerated < max_iters:
        g = sweep(uh, Wu)
        if not 0.0 < g.max() < math.inf:
            return None
        f = g - uh
        uh = g
        if last is not None:
            if stored == ANDERSON_DEPTH:
                dF[:, :-1], dG[:, :-1] = dF[:, 1:], dG[:, 1:]
            else:
                stored += 1
            dF[:, stored - 1] = f - last[0]
            dG[:, stored - 1] = g - last[1]
            coef = np.linalg.lstsq(dF[:, :stored], f, rcond=None)[0]
            mixed = g - dG[:, :stored] @ coef
            if 0.0 < mixed.min() and mixed.max() < math.inf:
                uh = mixed
            else:
                stored = 0
        last = f, g
        Wu = Wr @ uh
        trace.accelerated += 1
        record(uh, Wu)
        if trace.residuals[-1] <= target:
            return uh
    return None


def picard_solve(config: SolverConfig, params: Params, init=1.0):
    """Solve the equation restricted to the interval and return
    (GridSolution1D, SolverTrace).

    init is a positive constant, callable, or radial profile evaluated on
    the grid, and symmetrized.  The solve reaches residuals near machine
    precision; the converged flag records final residual <= stop_tol.  A
    start that is not strictly positive raises NonPositive, and so, with
    the trace attached, does a solution that lost positivity.
    """
    if params.n != 1:
        raise ValueError("the bounded-domain solver runs in dimension 1")
    G = config.domain
    count = config.grid_size if config.grid_size % 2 == 1 else config.grid_size + 1
    x = graded_grid(G.a, G.b, count, config.grading_exponent)
    Wr = product_integration_matrix(x, params.lam)
    u0 = _initial_values(init, x)
    c = count // 2

    trace = SolverTrace()
    uh = _solve_even(Wr, 0.5 * (u0[c:] + u0[c::-1]), params, config, trace)
    trace.iterations = len(trace.residuals)
    trace.converged = trace.residuals[-1] <= config.stop_tol
    solution = GridSolution1D(tuple(x), tuple(np.concatenate([uh[:0:-1], uh])), params, G)
    return solution, trace


def residual_on_points(solution: GridSolution1D, points) -> float:
    """Max relative residual |T_G u_h - u_h^(p-1)| / |u_h^(p-1)| at arbitrary
    probe points, with u_h the piecewise-linear grid interpolant and T_G u_h
    evaluated exactly through the panel moments."""
    x = np.asarray(solution.x)
    u = np.asarray(solution.values)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    lhs = moment_matrix(x, pts, solution.params.lam) @ u
    rhs = np.interp(pts, x, u) ** solution.params.pm1
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs), initial=0.0))

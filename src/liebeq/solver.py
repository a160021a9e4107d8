"""Bounded-domain solver for the convolution equation on an interval.

Discretizes  (T_G u)(x) = int_G |x-s|^(-lam) u(s) ds = u(x)^(p-1)  with
product integration: u is piecewise linear on a graded grid and the kernel
moments int |x-s|^(-lam) {1, s} ds are integrated exactly per panel, so the
kernel singularity is never sampled.

The naive relaxation sweep u <- (1-d) u + d (T_G u)^(1/(p-1)) is amplitude
expansive (the exponent 1/(p-1) = (2n-lam)/lam exceeds 1): any amplitude
error is amplified by roughly 1 + 2d per sweep regardless of the damping
d, so that scheme diverges from generic starts.  It is kept available as
scheme="direct" for exactly that failure mode.  The default scheme works in
the even (reflection-symmetric) subspace of the interval.  Petviashvili
sweeps u <- M^gamma (T_G u)^s, with s = 1/(p-1), gamma = s/(s-1) and the
stabilizing factor M = <u,u>/<u,(T_G u)^s>, cancel that amplitude growth
(Petviashvili 1976; Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42,
2004) and bring the relative residual to sqrt(stop_tol).  Bounded
trust-region Gauss-Newton in the variable v = u^(p-1), scaled to unit
size, then finishes to machine-level residuals; each trust-region step
comes from LSMR iterations on the Jacobian (Fong & Saunders, SIAM J. Sci.
Comput. 33, 2011), so no step factorizes it by SVD.  The trust region alone,
from a constant start, stops at stationary points of the residual norm
that are no roots for many lam above 0.5.

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

from .radial_riesz import RadialProfile
from .regularity import Domain1D
from .specfun import Params

__all__ = [
    "SolverConfig",
    "SolverTrace",
    "GridSolution1D",
    "Diverged",
    "NonPositive",
    "picard_solve",
    "residual_on_points",
]


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first solve: the import
    takes about 0.5 s, and no other path of the package needs scipy."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


class Diverged(Exception):
    """Residual grew for five consecutive sweeps (or blew up outright)."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


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
    damping enters the explicit scheme="direct" sweep only.
    """

    domain: Domain1D
    grid_size: int = 201
    grading_exponent: float = 2.0
    max_iters: int = 200
    stop_tol: float = 1e-8
    damping: float = 0.5
    scheme: str = "newton"

    def __post_init__(self):
        if self.domain.kind != "interval" and self.domain.dimension != 1:
            raise ValueError("the solver supports one-dimensional domains only")
        if self.grid_size < 5:
            raise ValueError("grid_size must be at least 5")
        if self.grading_exponent < 1.0:
            raise ValueError("grading_exponent must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.stop_tol <= 0:
            raise ValueError("stop_tol must be positive")
        if self.scheme not in ("newton", "direct"):
            raise ValueError("scheme must be 'newton' or 'direct'")


@dataclass
class SolverTrace:
    """Relative sup-norm residuals of T_G u - u^(p-1) of every recorded
    iterate, the sup-norm amplitude history (with minima, so positivity of
    every iterate is on record), and the convergence flag (final residual
    <= stop_tol).

    A small residual cannot come from an iterate near u = 0: W has
    nonnegative entries, so at the node of the maximum M the relative
    residual r is at least 1 - M^(2-p) max_i (W 1)_i, and converged implies
    M >= ((1 - stop_tol) / max_i (W 1)_i)^(1/(2-p)).

    iterations is len(residuals): one entry per sweep, per residual
    evaluation of the trust-region finish and for the returned solution, so
    at most 2*max_iters + 1.  sweeps counts the fixed-point sweeps; nfev,
    njev, status and message are least_squares' (zero, zero, None and ""
    for scheme="direct")."""

    residuals: list = field(default_factory=list)
    amplitudes: list = field(default_factory=list)
    minima: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
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
    """Grid on [a, b] geometrically clustered toward both ends.

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
    """W with (W u)_i = int_G |x_i - s|^(-lam) u_h(s) ds: the moment matrix
    at the grid nodes.  Requires 0 < lam < 1."""
    return moment_matrix(x, x, lam)


def _relative_residual(Wu: np.ndarray, u: np.ndarray, pm1: float) -> float:
    rhs = u ** pm1
    return float(np.max(np.abs(Wu - rhs)) / np.max(np.abs(rhs)))


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


def _even_matrix(W: np.ndarray):
    """(Wr, half, mirror): W restricted to even grid functions, which are
    fixed by their values on the right half, nodes half = c..N-1 with mirror
    images mirror = c..0.  The centre column is counted once."""
    N = W.shape[0]
    c = N // 2
    half = np.arange(c, N)
    mirror = N - 1 - half
    Wr = W[np.ix_(half, half)]
    Wr[:, 1:] += W[np.ix_(half, mirror[1:])]
    return Wr, half, mirror


def _solve_newton(W: np.ndarray, u0: np.ndarray, params: Params,
                  config: SolverConfig, trace: SolverTrace) -> np.ndarray:
    pm1 = params.pm1
    s = 1.0 / pm1
    N = len(u0)
    Wr, half, mirror = _even_matrix(W)

    def record(u, Wu):
        trace.residuals.append(_relative_residual(Wu, u, pm1))
        trace.amplitudes.append(float(np.max(u)))
        trace.minima.append(float(np.min(u)))

    # Petviashvili sweeps: T = (Wr u)^s is homogeneous of degree s > 1, and
    # the factor M^gamma, M = <u,u>/<u,T>, cancels the amplitude growth of
    # the plain sweep; one Gauss-Newton step squares the residual they leave.
    # One product Wr u per sweep gives both the residual of u and the next T.
    # Near the ends of the lam window s or gamma is large enough to overflow;
    # the finish then starts from the last finite iterate.
    gamma = s / (s - 1.0)
    uh = 0.5 * (u0[half] + u0[mirror])
    Wuh = Wr @ uh
    while trace.sweeps < config.max_iters:
        with np.errstate(all="ignore"):
            T = Wuh ** s
            swept = (np.dot(uh, uh) / np.dot(uh, T)) ** gamma * T
        if not (np.all(np.isfinite(swept)) and np.max(swept) > 0.0):
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
        return s * Wr * ((b * w) ** (s - 1.0))[None, :] - np.eye(len(half))

    sol = least_squares(fun, np.clip(v0 / b, 1e-12, None), jac=jac,
                        bounds=(1e-300, np.inf), method="trf", tr_solver="lsmr",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15,
                        max_nfev=config.max_iters)
    trace.nfev, trace.njev = int(sol.nfev), int(sol.njev or 0)
    trace.status, trace.message = int(sol.status), str(sol.message)
    u = np.empty(N)
    u[half] = u[mirror] = (b * sol.x) ** s
    record(u, W @ u)
    if not np.all(u > 0.0):
        raise NonPositive("solution lost positivity", trace)
    return u


def _solve_direct(W: np.ndarray, u0: np.ndarray, params: Params,
                  config: SolverConfig, trace: SolverTrace) -> np.ndarray:
    """The literal damped relaxation sweep; diverges in practice (see module
    docstring) and exists to exercise exactly that contract."""
    pm1 = params.pm1
    s = 1.0 / pm1
    d = config.damping
    u = u0.copy()
    growth_streak = 0
    prev = math.inf
    for _ in range(config.max_iters):
        with np.errstate(all="ignore"):
            u = (1.0 - d) * u + d * (W @ u) ** s
        if not np.all(np.isfinite(u)):
            raise Diverged("iterate overflowed", trace)
        if np.any(u <= 0.0):
            raise NonPositive("iterate lost positivity", trace)
        trace.sweeps += 1
        res = _relative_residual(W @ u, u, pm1)
        trace.residuals.append(res)
        trace.amplitudes.append(float(np.max(u)))
        trace.minima.append(float(np.min(u)))
        growth_streak = growth_streak + 1 if res > prev else 0
        if growth_streak >= 5:
            raise Diverged(
                f"residual grew for 5 consecutive sweeps (now {res:.3e})", trace)
        prev = res
        if res <= config.stop_tol:
            break
    return u


def picard_solve(config: SolverConfig, params: Params, init=1.0):
    """Solve the equation restricted to the interval and return
    (GridSolution1D, SolverTrace).

    init is a positive constant, callable, or radial profile evaluated on
    the grid.  The default scheme reaches residuals near machine precision;
    the converged flag records final residual <= stop_tol.  scheme="direct"
    runs the explicit damped sweep instead and raises Diverged or
    NonPositive when it fails, with the trace attached.
    """
    if params.n != 1:
        raise ValueError("the bounded-domain solver runs in dimension 1")
    lam = params.lam
    G = config.domain
    count = config.grid_size if config.grid_size % 2 == 1 else config.grid_size + 1
    x = graded_grid(G.a, G.b, count, config.grading_exponent)
    W = product_integration_matrix(x, lam)
    u0 = _initial_values(init, x)

    trace = SolverTrace()
    if config.scheme == "direct":
        u = _solve_direct(W, u0, params, config, trace)
    else:
        u = _solve_newton(W, u0, params, config, trace)
    trace.iterations = len(trace.residuals)
    trace.converged = bool(trace.residuals and trace.residuals[-1] <= config.stop_tol)
    solution = GridSolution1D(tuple(x), tuple(u), params, G)
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

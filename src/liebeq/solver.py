"""Bounded-domain solver for the convolution equation on an interval.

Discretizes  (T_G u)(x) = int_G |x-s|^(-lam) u(s) ds = u(x)^(p-1)  with
product integration: u is piecewise linear on a graded grid, and the kernel
moment of each hat function is exact, a second divided difference of
|d|^(2-lam) over the node distances d, so the kernel singularity is never
sampled.  Its rounding is largest on far, narrow panels, about 2e-9 of a
row's largest entry at 513 nodes; rows sum to the moment of 1 within 1e-15.

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
Anal. 49, 2011) mixes the last sweeps by the normal equations of the Gram
matrix of their residual differences over the m = N//2 + 1 right-half
nodes, and takes the relative residual to the rounding floor, 1e-14, with
one product Wr u per sweep.  The sweeps start
from the shape the solutions take (see below), the whole-line bubble
dilated to the centre spacing; M cancels its amplitude.  On grids of 33
to 257 nodes they got there at every lam from 0.02 to 0.98 checked, and
at 513 and 1025 nodes up to 0.97.  Where they stall (MAX_ITERS sweeps short of
the floor, or an overflowing sweep), Newton steps in the variable
v = u^(p-1), with Levenberg-Marquardt steps where a Newton step fails,
finish from the sweeps' best iterate to the same floor, or as near it as
rounding lets them.

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
from types import SimpleNamespace

import numpy as np

from .quadrature import check_tolerance
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
# MAX_ITERS caps both the sweeps and the residual evaluations of the finish;
# the grid clusters nodes toward both ends with GRADING_EXPONENT.
ANDERSON_DEPTH = 5
ROUNDING_FLOOR = 1e-14
MAX_ITERS = 200
GRADING_EXPONENT = 2.0


def least_squares(fun, x0, jac, max_nfev, inside, done):
    """Newton steps on fun(x) = 0 from x0 (Nocedal & Wright, Numerical
    Optimization, ch. 10).  Where a Newton step leaves the domain (inside
    false) or does not reduce |fun| (by math.hypot, which cannot underflow),
    Levenberg-Marquardt steps scaled by diag(J^T J) (More, LNM 630, 1978)
    take its place, mu rising x10 on each rejected one and falling /10 on an
    accepted one.  Stops when done() holds after an evaluation it accepts
    (x0's included), at a step <= 1e-15 max x, after max_nfev evaluations
    of fun, or when no step with mu <= 1e12 reduces |fun|; returns the last
    accepted x, nfev, njev and how it stopped."""
    def result(message):
        return SimpleNamespace(x=x, nfev=nfev, njev=njev, message=message)

    x, F = x0, fun(x0)
    nfev, njev, mu = 1, 0, 1e-3
    while True:
        if done():
            return result("the finish reached the sweeps' target residual")
        J, JtJ = jac(x), None
        njev += 1
        step = np.linalg.solve(J, -F)
        while True:
            if np.max(np.abs(step)) <= 1e-15 * np.max(x):
                return result("the finish stopped at a step <= 1e-15 max v")
            if nfev == max_nfev:
                return result(f"the finish ran {max_nfev} residual evaluations")
            trial = x + step
            if inside(trial):
                Ft = fun(trial)
                nfev += 1
                if math.hypot(*Ft) < math.hypot(*F):
                    x, F = trial, Ft
                    if JtJ is not None:
                        mu /= 10.0
                    break
            if JtJ is None:
                JtJ = J.T @ J
            else:
                mu *= 10.0
            if mu > 1e12:
                return result("no Levenberg-Marquardt step with mu <= 1e12 reduced the residual")
            step = np.linalg.solve(JtJ + mu * np.diag(np.diag(JtJ)), -(J.T @ F))


class NonPositive(Exception):
    """An iterate lost positivity at some node."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """The interval, the grid and the convergence target of one solve.

    grid_size is rounded up to an odd node count so the grid has a center
    node, graded toward both ends with GRADING_EXPONENT; the solve is
    converged at a final residual <= stop_tol.  The iteration budget,
    MAX_ITERS, is the same for every solve.
    """

    domain: Domain1D
    grid_size: int = 201
    stop_tol: float = 1e-8

    def __post_init__(self):
        if self.domain.n != 1:
            raise ValueError("the solver supports one-dimensional domains only")
        if self.grid_size < 5:
            raise ValueError("grid_size must be at least 5")
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
    where those stall, after them one per residual evaluation of the finish
    and one for the returned solution, so at most 2*MAX_ITERS + 1.
    accelerated counts the Anderson-accelerated sweeps, and nfev and njev
    the finish's residual and Jacobian evaluations (0 where it did not
    run).  message says how the solve ended: the residual the accelerated
    sweeps reached, min(ROUNDING_FLOOR, stop_tol), or the finish's stop."""

    residuals: list = field(default_factory=list)
    amplitudes: list = field(default_factory=list)
    minima: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    accelerated: int = 0
    nfev: int = 0
    njev: int = 0
    message: str = ""


@dataclass(frozen=True)
class GridSolution1D:
    """Converged grid solution, evaluated off the grid as u_h, the
    piecewise-linear interpolant that the collocation equations solve for."""

    x: tuple
    values: tuple
    params: Params

    def value(self, x):
        out = np.interp(x, self.x, self.values)
        return out if out.ndim else float(out)

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

    R(d) = |d|^(2-lam)/((1-lam)(2-lam)) has R'' = |d|^(-lam), so two
    integrations by parts make node j's hat-function moment a second divided
    difference S_{j+1} - S_j (Atkinson, 1997, sec. 4.2), S the slopes of
    R(. - t): R' at x_0, the secants (R(x_{j+1}-t) - R(x_j-t))/h_j, R' at
    x_{N-1}.  One power per node distance, and s = t is never sampled.
    Rows telescope to the moment of 1; an entry's rounding is about
    eps d^2/h^2 of it (d from t, h its panel's width), 2e-9 of its row's
    largest at N = 513.  Requires 0 < lam < 1.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("product integration needs 0 < lam < 1")
    x = np.asarray(x, dtype=float)
    d = x - np.asarray(points, dtype=float)[:, None]
    S = np.empty((len(d), len(x) + 1))
    ends = d[:, [0, -1]]
    S[:, [0, -1]] = np.sign(ends) * np.abs(ends) ** (1.0 - lam) / (1.0 - lam)
    # in place: a fresh m x N array costs more than a pass over one
    R = np.power(np.abs(d, out=d), 2.0 - lam, out=d)
    R /= (1.0 - lam) * (2.0 - lam)
    np.subtract(R[:, 1:], R[:, :-1], out=S[:, 1:-1])
    S[:, 1:-1] /= np.diff(x)
    return np.subtract(S[:, 1:], S[:, :-1], out=R)


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


def _solve_even(Wr: np.ndarray, uh: np.ndarray, params: Params,
                stop_tol: float, trace: SolverTrace) -> np.ndarray:
    """The right-half values of the even solution, from the start uh.

    Anderson-accelerated sweeps, type II with depth ANDERSON_DEPTH (Walker
    & Ni, SIAM J. Numer. Anal. 49, 2011), run until the residual reaches
    min(ROUNDING_FLOOR, stop_tol).  Each takes the coefficients c that
    minimise |f - dF^T c| from the normal equations (dF dF^T) c = dF f,
    f = g - u the fixed-point residual of the sweep g of u and the rows of
    dF the stored differences of consecutive residuals, and moves to
    g - dG^T c, dG the differences of the sweeps.  Each sweep fills one row
    of these rings and one row and column of the Gram matrix dF dF^T
    (Eyert, J. Comp. Phys. 124, 1996).  A singular Gram matrix, or an
    extrapolated iterate that is not finite and positive, gives way to g,
    and the stored differences are cleared.  Where MAX_ITERS sweeps stop
    short or a sweep overflows, the finish starts from the iterate of least
    residual and stops at the same residual target, unless another of its
    stops comes first."""
    pm1 = params.pm1
    s = 1.0 / pm1
    # Petviashvili sweeps: T = (Wr u)^s is homogeneous of degree s > 1, and
    # the factor M^gamma, M = <u,u>/<u,T>, cancels the amplitude growth of
    # the plain sweep.  One product Wr u per sweep gives both the residual
    # of u and the next T.  Near the ends of the lam window s or gamma is
    # large enough for a sweep to overflow; Wr >= 0, so a swept iterate is
    # >= 0 wherever it is not NaN, and 0 < max < inf rules out both.
    gamma = s / (s - 1.0)

    def record(u, Wu):
        rhs = u ** pm1
        trace.residuals.append(float(np.abs(Wu - rhs).max() / rhs.max()))
        trace.amplitudes.append(float(u.max()))
        trace.minima.append(float(u.min()))

    # The finish solves F(v) = Wr v^s - v = 0 for v = u^(p-1).
    def fun(v):
        uh = v ** s
        Wuh = Wr @ uh
        record(uh, Wuh)
        return Wuh - v

    def jac(v):
        return s * Wr * (v ** (s - 1.0))[None, :] - np.eye(len(v))

    target = min(ROUNDING_FLOOR, stop_tol)
    # rings of differences, one a row; rows [:stored] hold the history
    dF = np.empty((ANDERSON_DEPTH, len(uh)))
    dG = np.empty_like(dF)
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))  # dF dF^T
    stored, slot, last = 0, 0, None
    best, best_residual = uh, math.inf
    Wu = Wr @ uh
    with np.errstate(all="ignore"):
        while trace.accelerated < MAX_ITERS:
            T = Wu ** s
            g = (np.dot(uh, uh) / np.dot(uh, T)) ** gamma * T
            if not 0.0 < g.max() < math.inf:
                break
            f = g - uh
            uh = g
            if last is not None:
                dF[slot], dG[slot] = f - last[0], g - last[1]
                stored = min(stored + 1, ANDERSON_DEPTH)
                gram[slot, :stored] = gram[:stored, slot] = dF[:stored] @ dF[slot]
                slot = (slot + 1) % ANDERSON_DEPTH
                try:
                    coef = np.linalg.solve(gram[:stored, :stored], dF[:stored] @ f)
                    mixed = g - coef @ dG[:stored]
                    mixes = 0.0 < mixed.min() and mixed.max() < math.inf
                except np.linalg.LinAlgError:
                    mixes = False
                if mixes:
                    uh = mixed
                else:
                    stored = slot = 0
            last = f, g
            Wu = Wr @ uh
            trace.accelerated += 1
            record(uh, Wu)
            if trace.residuals[-1] <= target:
                trace.message = f"the accelerated sweeps reached a residual <= {target:.0e}"
                return uh
            if trace.residuals[-1] < best_residual:
                best, best_residual = uh, trace.residuals[-1]
        sol = least_squares(fun, best ** pm1, jac=jac, max_nfev=MAX_ITERS,
                            inside=lambda v: v.min() > 0.0 and (v ** s).min() > 0.0,
                            done=lambda: trace.residuals[-1] <= target)
        uh = sol.x ** s
        record(uh, Wr @ uh)
    trace.nfev, trace.njev, trace.message = sol.nfev, sol.njev, sol.message
    if not np.all(uh > 0.0):
        raise NonPositive("solution lost positivity", trace)
    return uh


def picard_solve(config: SolverConfig, params: Params):
    """Solve the equation restricted to the interval and return
    (GridSolution1D, SolverTrace).

    The sweeps start from the whole-line Lieb bubble
    (1 + ((x - x_c)/h)^2)^(-(n - lam/2)) dilated to the centre spacing
    h = x_(c+1) - x_c, the shape every discrete solution concentrates into,
    and reach residuals near machine precision; the converged flag records
    final residual <= stop_tol.  A solution that lost positivity raises
    NonPositive with the trace attached.
    """
    if params.n != 1:
        raise ValueError("the bounded-domain solver runs in dimension 1")
    count = config.grid_size if config.grid_size % 2 == 1 else config.grid_size + 1
    x = graded_grid(config.domain.a, config.domain.b, count, GRADING_EXPONENT)
    Wr = product_integration_matrix(x, params.lam)

    # the sweeps' factor M cancels the start's amplitude, so none is chosen
    c = count // 2
    start = (1.0 + ((x[c:] - x[c]) / (x[c + 1] - x[c])) ** 2) ** -params.solution_exponent
    trace = SolverTrace()
    uh = _solve_even(Wr, start, params, config.stop_tol, trace)
    trace.iterations = len(trace.residuals)
    trace.converged = trace.residuals[-1] <= config.stop_tol
    solution = GridSolution1D(tuple(x), tuple(np.concatenate([uh[:0:-1], uh])), params)
    return solution, trace


def residual_on_points(solution: GridSolution1D, points) -> float:
    """Max relative residual |T_G u_h - u_h^(p-1)| / |u_h^(p-1)| at probe
    points in [x_0, x_(N-1)], with u_h the piecewise-linear grid interpolant
    and T_G u_h evaluated exactly through the panel moments.  ValueError for
    no probes, or a probe off the grid, where u_h is not defined."""
    x = np.asarray(solution.x)
    u = np.asarray(solution.values)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if not (pts.size and np.all((x[0] <= pts) & (pts <= x[-1]))):
        raise ValueError(f"need at least one probe, each in [{x[0]}, {x[-1]}]")
    lhs = moment_matrix(x, pts, solution.params.lam) @ u
    rhs = np.interp(pts, x, u) ** solution.params.pm1
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))

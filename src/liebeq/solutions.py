"""The two closed-form solutions of the Lieb equation and the residual verifier.

Both known solutions share the decay index m = n - lam/2:

    singular:  C(n,lam) |x|^(-m)        (unbounded at the origin)
    bounded:   L(n,lam) (1+|x|^2)^(-m)  (the Lieb solution)

verify_solution certifies a candidate by comparing (Tf)(r) against
f(r)^(p-1) on sample radii, with residuals always taken relative to the
right-hand side because both solutions span many orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadrature import QuadratureSpec
from .radial_riesz import RadialProfile, riesz_potential_radial
from .specfun import Params, lieb_constant_C, lieb_constant_L

__all__ = [
    "ResidualReport",
    "singular_solution",
    "lieb_solution",
    "verify_solution",
    "VERIFIED",
    "REFUTED",
    "INCONCLUSIVE",
    "NOT_APPLICABLE",
    "certify",
    "check_tolerance",
]

VERIFIED = "Verified"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"
NOT_APPLICABLE = "NotApplicable"


def check_tolerance(*tolerances: float) -> None:
    """Refuse a tolerance that is not positive and finite: -1 refutes an exact 0."""
    for tol in tolerances:
        if not 0 < tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def certify(gap: float, errors, tolerance: float) -> str:
    """The verdict rule shared by every certified check.

    Verified when the gap is within tolerance; Refuted only when the gap
    exceeds 10x tolerance and every error estimate is at most a tenth of
    the gap, so integration noise never passes for a refutation (a NaN gap
    or error is Inconclusive); Inconclusive otherwise.
    """
    if gap <= tolerance:
        return VERIFIED
    if gap > 10.0 * tolerance and all(e <= gap / 10.0 for e in errors):
        return REFUTED
    return INCONCLUSIVE


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of checking (Tf)(r) = f(r)^(p-1) on a set of radii.

    The verdict applies certify to the largest relative residual and the
    relative quadrature error estimates.
    """

    params: Params
    sample_radii: tuple
    lhs_values: tuple
    rhs_values: tuple
    err_estimates: tuple
    max_rel_residual: float
    tolerance: float
    verdict: str


def singular_solution(params: Params) -> RadialProfile:
    """The power solution C(n,lam)|x|^(-(n-lam/2)): singular at 0, decaying at infinity."""
    return RadialProfile.power_singular(lieb_constant_C(params), params.solution_exponent)


def lieb_solution(params: Params) -> RadialProfile:
    """The bounded solution L(n,lam)(1+|x|^2)^(-(n-lam/2)): bounded at 0, decaying at infinity."""
    return RadialProfile.lieb(lieb_constant_L(params), params.solution_exponent)


def verify_solution(f: RadialProfile, params: Params, radii,
                    tolerance: float = 1e-6,
                    quad: QuadratureSpec | None = None) -> ResidualReport:
    """Certify or refute a candidate solution on the given sample radii.

    Radii must be nonnegative, finite and nonempty; r = 0 is rejected for
    profiles that are singular there.  Raises ScreenRejected if the
    potential's convergence screen fails at any radius.
    """
    check_tolerance(tolerance)
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise ValueError("need at least one sample radius")
    if not all(0.0 <= r < math.inf for r in radii):
        raise ValueError("radii must be nonnegative and finite")
    if f.exponent_at_zero() < 0.0 and any(r == 0.0 for r in radii):
        raise ValueError("r = 0 is a singular point of this profile")
    quad = quad or QuadratureSpec()

    pm1 = params.pm1
    lhs, rhs, errs = [], [], []
    for r in radii:
        value, err = riesz_potential_radial(f, params, r, quad, with_error=True)
        lhs.append(value)
        rhs.append(float(f.value(r)) ** pm1)
        errs.append(err)

    rel_residuals = [abs(a - b) / abs(b) for a, b in zip(lhs, rhs)]
    max_rel = max(rel_residuals)
    rel_errs = [e / abs(b) for e, b in zip(errs, rhs)]

    return ResidualReport(
        params=params,
        sample_radii=radii,
        lhs_values=tuple(lhs),
        rhs_values=tuple(rhs),
        err_estimates=tuple(errs),
        max_rel_residual=max_rel,
        tolerance=float(tolerance),
        verdict=certify(max_rel, rel_errs, tolerance),
    )

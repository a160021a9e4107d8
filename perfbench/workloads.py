"""Seeded workloads over liebeq's public API, with the check of every op.

Each workload is a fixed grid of cells that every seed draws; the seed only
moves the continuous inputs inside their strata (lambda, radii, probe points,
form coefficients).  Inside a cell the k draws of a quantity are stratified:
one uniform draw in each of k equal sub-intervals, in a seeded order, so the
share of a cell that falls into a slow or failing region of lambda hardly
changes from seed to seed.

An op passes when liebeq returns the verdict the mathematics dictates.  It is
wrong when liebeq asserts something false (a Refuted verdict on an exact
solution or identity, a certified verdict where NotApplicable is the truth, a
non-finite or non-positive solve, a right-hand side that disagrees with the
closed form).  Everything else (an exception, Inconclusive, an unconverged
solve) is a failed op, reported with its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import liebeq

VERIFIED = "Verified"
REFUTED = "Refuted"
NOT_APPLICABLE = "NotApplicable"

LAMBDA_STRATA = 3           # lambda/n strata of verify-sweep in (0.15, 0.85)
RADII_PER_CELL = 4          # log-uniform radii in [0.2, 10]
IDENTITY_STRATA = 5         # lambda strata of identity-sweep (n = 1)
SOLVES = {257: 12, 513: 4}  # grid size -> stratified lambda in (0.2, 0.8)
PROBES = 39


@dataclass(frozen=True)
class Outcome:
    passed: bool
    wrong: bool
    label: str
    bound_violations: int = 0


@dataclass(frozen=True)
class Op:
    kind: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> list:
    """k floats, one uniform in each of k equal sub-intervals of (lo, hi), shuffled."""
    draws = lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k
    return [float(v) for v in rng.permutation(draws)]


def _strata(lo: float, hi: float, count: int) -> list:
    edges = np.linspace(lo, hi, count + 1)
    return list(zip(edges[:-1], edges[1:]))


# ---------------------------------------------------------------------------
# verify-sweep

def exact_singular_potential(n: int, lam: float, r: float) -> float:
    """(Tf)(r) for f = C|x|^(-(n - lam/2)), from the Gamma closed form alone.

    T|x|^(-mu) = k|x|^(n-lam-mu) with mu = n - lam/2 and
    C = k^(-(2n-lam)/(2(n-lam))), so (Tf)(r) = C k r^(-lam/2).
    """
    mu = n - 0.5 * lam
    g = math.lgamma
    log_k = (0.5 * n * math.log(math.pi) + g(0.5 * (n - lam)) + g(0.5 * (n - mu))
             + g(0.5 * (lam + mu - n)) - g(0.5 * lam) - g(0.5 * mu)
             - g(n - 0.5 * (lam + mu)))
    log_c = -(2.0 * n - lam) / (2.0 * (n - lam)) * log_k
    return math.exp(log_c + log_k - 0.5 * lam * math.log(r))


def _verify_op(n: int, family: str, lam: float, r: float) -> Op:
    def call():
        params = liebeq.Params(n, lam)
        if family == "singular":
            f = liebeq.singular_solution(params)
        else:
            f = liebeq.lieb_solution(params)
        return liebeq.verify_solution(f, params, [r])

    def check(report) -> Outcome:
        violations = 0
        wrong = report.verdict == REFUTED
        if family == "singular":
            exact = exact_singular_potential(n, lam, r)
            lhs, rhs, err = report.lhs_values[0], report.rhs_values[0], report.err_estimates[0]
            violations = int(abs(lhs - exact) > err)
            wrong = wrong or abs(rhs - exact) > 1e-10 * exact
        return Outcome(report.verdict == VERIFIED, wrong, report.verdict, violations)

    return Op("verify", {"n": n, "family": family, "lam": lam, "r": r}, call, check)


def verify_sweep(rng: np.random.Generator) -> list:
    """n = 1..5 x {singular, lieb} x three lambda/n strata x four radii: 120 ops."""
    ops = []
    for n in range(1, 6):
        for family in ("singular", "lieb"):
            for lo, hi in _strata(0.15, 0.85, LAMBDA_STRATA):
                fracs = stratified(rng, lo, hi, RADII_PER_CELL)
                logs = stratified(rng, math.log(0.2), math.log(10.0), RADII_PER_CELL)
                ops += [_verify_op(n, family, n * t, math.exp(u)) for t, u in zip(fracs, logs)]
    return ops


def verify_warmup() -> list:
    return [_verify_op(n, family, 0.5 * n, 1.0)
            for n in range(1, 6) for family in ("singular", "lieb")]


# ---------------------------------------------------------------------------
# identity-sweep

def _descriptor(family: str, params):
    if family == "singular":
        profile = liebeq.singular_solution(params)
    else:
        profile = liebeq.lieb_solution(params)
    return liebeq.solution_descriptor(profile, params, family)


def _identity_check(expected: str):
    def check(result) -> Outcome:
        reports = result if isinstance(result, list) else [result]
        verdicts = [rep.verdict for rep in reports]
        certified = (VERIFIED, REFUTED)
        wrong = REFUTED in verdicts or (expected == NOT_APPLICABLE
                                        and any(v in certified for v in verdicts))
        label = ",".join(sorted(set(verdicts)))
        return Outcome(all(v == expected for v in verdicts), wrong, label)
    return check


def _pair_op(kind: str, n: int, lam: float, f_family: str, g_family: str,
             alpha: int, beta: int) -> Op:
    expected = NOT_APPLICABLE if f_family == g_family == "singular" else VERIFIED

    def call():
        params = liebeq.Params(n, lam)
        f = _descriptor(f_family, params)
        if kind == "commutativity":
            g = _descriptor(g_family, params)
            return liebeq.check_commutativity(f, g, alpha, beta, params)
        return liebeq.check_orthogonality(f, alpha, beta, params)

    inputs = {"n": n, "lam": lam, "f": f_family, "g": g_family, "alpha": alpha, "beta": beta}
    return Op(kind, inputs, call, _identity_check(expected))


def _composite_op(lam: float, lam_coeffs: list, omega_coeffs: list) -> Op:
    def call():
        params = liebeq.Params(1, lam)
        f = _descriptor("lieb", params)
        lam_form = liebeq.DifferentialForm.from_terms(1, *zip(lam_coeffs, range(4)))
        omega_form = liebeq.DifferentialForm.from_terms(1, *zip(omega_coeffs, range(4)))
        return liebeq.check_composite(f, f, lam_form, omega_form, params)

    inputs = {"n": 1, "lam": lam, "f": "lieb", "g": "lieb",
              "form_lambda": lam_coeffs, "form_omega": omega_coeffs}
    return Op("composite", inputs, call, _identity_check(VERIFIED))


def _form_coefficients(rng: np.random.Generator) -> list:
    """Coefficients of orders 0..3, magnitudes in [0.25, 1], seeded signs."""
    mags = 0.25 + 0.75 * rng.random(4)
    signs = rng.choice([-1.0, 1.0], size=4)
    return [float(v) for v in mags * signs]


def identity_sweep(rng: np.random.Generator) -> list:
    """Per n = 1 lambda stratum: 16 lieb-lieb and one singular-lieb
    commutativity, four orthogonality and one composite check; plus the
    order-zero singular-lieb identity for n = 2..5: 114 ops."""
    pairs = ([("commutativity", "lieb", "lieb", a, b) for a in range(4) for b in range(4)]
             + [("commutativity", "singular", "lieb", 0, 0)]
             + [("orthogonality", "lieb", "lieb", a, b) for a, b in ((1, 0), (2, 1), (3, 0))]
             + [("orthogonality", "singular", "singular", 1, 0)])
    ops = []
    for lo, hi in _strata(0.15, 0.85, IDENTITY_STRATA):
        lams = stratified(rng, lo, hi, len(pairs) + 1)
        for lam, (kind, f, g, a, b) in zip(lams, pairs):
            ops.append(_pair_op(kind, 1, lam, f, g, a, b))
        ops.append(_composite_op(lams[-1], _form_coefficients(rng), _form_coefficients(rng)))
    fracs = stratified(rng, 0.15, 0.85, 4)
    ops += [_pair_op("commutativity", n, n * t, "singular", "lieb", 0, 0)
            for n, t in zip(range(2, 6), fracs)]
    return ops


def identity_warmup() -> list:
    return [_pair_op("commutativity", 1, 0.5, "lieb", "lieb", 3, 3),
            _pair_op("commutativity", 1, 0.5, "singular", "lieb", 0, 0),
            _composite_op(0.5, [1.0, 0.5, -0.5, 0.25], [0.5, -1.0, 0.25, 0.5])]


# ---------------------------------------------------------------------------
# interval-solve

def _solve_op(grid_size: int, lam: float, probes: list) -> Op:
    def call():
        config = liebeq.SolverConfig(liebeq.Domain1D.interval(-1.0, 1.0), grid_size=grid_size)
        solution, trace = liebeq.picard_solve(config, liebeq.Params(1, lam))
        return solution, trace, liebeq.residual_on_points(solution, probes)

    def check(result) -> Outcome:
        solution, trace, residual = result
        values = np.asarray(solution.values)
        wrong = not (np.all(np.isfinite(values)) and np.all(values > 0)
                     and math.isfinite(residual))
        label = ("converged" if trace.converged else
                 f"unconverged: residual {trace.residuals[-1]:.3e} "
                 f"after {trace.iterations} evaluations")
        return Outcome(trace.converged and not wrong, wrong, label)

    return Op("solve", {"grid_size": grid_size, "lam": lam}, call, check)


def interval_solve(rng: np.random.Generator) -> list:
    """picard_solve on [-1, 1], twelve stratified lambda in (0.2, 0.8) at
    N = 257 and four at N = 513, every solve followed by 39 stratified probes:
    16 ops, so that two batches (a N = 513 solve takes 2-4.5 s) fit into a
    40-second run."""
    ops = []
    for grid_size, count in SOLVES.items():
        for lam in stratified(rng, 0.2, 0.8, count):
            probes = sorted(stratified(rng, -1.0, 1.0, PROBES))
            ops.append(_solve_op(grid_size, lam, probes))
    return ops


def solve_warmup() -> list:
    return [_solve_op(max(SOLVES), 0.4, list(np.linspace(-0.95, 0.95, PROBES)))]


WORKLOADS = {
    "verify-sweep": (verify_sweep, verify_warmup),
    "identity-sweep": (identity_sweep, identity_warmup),
    "interval-solve": (interval_solve, solve_warmup),
}

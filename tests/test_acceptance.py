"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 11 checks the bounded-domain solve in two parts: convergence,
positivity and norm finiteness on one grid, and stability under grid
doubling.  At the equation's own conjugate exponent p = 2n/(2n-lam) the
problem on a bounded star-shaped domain has no positive solution (the
Pohozaev identity leaves (1 - 1/p) int_dG u^p (x.nu) = 0), so the discrete
solutions concentrate into one Lieb bubble L (1+x^2)^(-(n-lam/2)) at the
centre and their sup norm grows without limit.  Stability is therefore
asserted in the dilation-invariant energy int u^p, which converges to the
bubble energy, together with the approach to that limit.
"""

import math

import numpy as np

from liebeq.identities import (VERIFIED, check_commutativity,
                               check_composite, check_orthogonality,
                               cutoff_pair_integral, parse_form,
                               solution_descriptor)
from liebeq.quadrature import convergence_screen
from liebeq.regularity import (Domain1D, decay_singularity_scan,
                               kernel_growth_check,
                               translation_annihilation_check, weighted_norm)
from liebeq.solutions import lieb_solution, singular_solution, verify_solution
from liebeq.solver import SolverConfig, picard_solve
from liebeq.specfun import (Params, ft_riesz_coefficient, lieb_constant_C,
                            lieb_constant_L, riesz_power_constant)

MATRIX = [(1, 0.25), (1, 0.5), (1, 0.75), (3, 1.0), (3, 2.0), (4, 2.0)]


def _report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def test_criterion_01_constant_fidelity():
    c42 = lieb_constant_C(Params(4, 2.0))
    hand = 1.0 / (8.0 * math.pi ** 3)
    ok = abs(c42 - hand) <= 1e-12 * hand
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        lam = float(rng.uniform(0.05, 0.95)) * n
        p = Params(n, lam)
        c = lieb_constant_C(p)
        k = riesz_power_constant(n, lam, n - 0.5 * lam)
        ref = k ** (-(2 * n - lam) / (2 * (n - lam)))
        worst = max(worst, abs(c - ref) / ref)
    ok = ok and worst <= 1e-13
    assert _report(1, ok, f"C(4,2) rel {abs(c42 - hand) / hand:.2e}, "
                          f"random-pair worst {worst:.2e}")


def test_criterion_02_fourier_duality():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for nu in np.linspace(0.05, 0.95, 10) * n:
            prod = ft_riesz_coefficient(n, nu) * ft_riesz_coefficient(n, n - nu)
            worst = max(worst, abs(prod - 1.0))
    central = max(abs(ft_riesz_coefficient(n, n / 2.0) - 1.0) for n in (1, 2, 3, 4))
    ok = worst <= 1e-12 and central <= 1e-14
    assert _report(2, ok, f"duality worst {worst:.2e}, central worst {central:.2e}")


def test_criterion_03_singular_solution_matrix():
    worst = 0.0
    ok = True
    for n, lam in MATRIX:
        p = Params(n, lam)
        rep = verify_solution(singular_solution(p), p, [0.5, 1.0, 2.0, 5.0],
                              tolerance=1e-6)
        ok = ok and rep.verdict == "Verified"
        worst = max(worst, rep.max_rel_residual)
    assert _report(3, ok, f"worst residual {worst:.2e} at tolerance 1e-06")


def test_criterion_04_lieb_solution_matrix():
    worst = 0.0
    ok = True
    for n, lam in MATRIX:
        p = Params(n, lam)
        rep = verify_solution(lieb_solution(p), p, [0.0, 0.5, 1.0, 2.0, 5.0],
                              tolerance=1e-5)
        ok = ok and rep.verdict == "Verified"
        worst = max(worst, rep.max_rel_residual)
    assert _report(4, ok, f"worst residual {worst:.2e} at tolerance 1e-05")


def test_criterion_05_zeroth_cross_identity():
    worst = 0.0
    ok = True
    for n, lam in [(1, 0.25), (1, 0.5), (1, 0.75), (3, 1.0), (3, 2.0)]:
        p = Params(n, lam)
        fC = solution_descriptor(singular_solution(p), p, "singular")
        fL = solution_descriptor(lieb_solution(p), p, "lieb")
        rep = check_commutativity(fC, fL, 0, 0, p, tolerance=1e-8)
        ok = ok and rep.verdict == VERIFIED
        worst = max(worst, rep.rel_gap)
    assert _report(5, ok, f"worst relative gap {worst:.2e} at tolerance 1e-08")


def test_criterion_06_orthogonality_suite():
    p = Params(1, 0.5)
    fL = solution_descriptor(lieb_solution(p), p, "lieb")
    worst_zero = 0.0
    worst_gap = 0.0
    ok = True
    for a in range(4):
        for b in range(4):
            rep = check_orthogonality(fL, a, b, p, tolerance=1e-6,
                                      zero_tolerance=1e-8)
            ok = ok and rep.verdict == VERIFIED
            if (a + b) % 2 == 1:
                worst_zero = max(worst_zero, abs(rep.lhs), abs(rep.rhs))
            else:
                worst_gap = max(worst_gap, rep.rel_gap)
    ok = ok and worst_zero <= 1e-8 and worst_gap <= 1e-6
    assert _report(6, ok, f"odd-total worst |integral| {worst_zero:.2e}, "
                          f"even-total worst gap {worst_gap:.2e}")


def test_criterion_07_composite_forms():
    p = Params(1, 0.5)
    fL = solution_descriptor(lieb_solution(p), p, "lieb")
    form = parse_form("d1 + d11", 1)
    reports = check_composite(fL, fL, form, form, p,
                              tolerance=1e-6, zero_tolerance=1e-8)
    chain = [r for r in reports if r.identity_id.startswith("parity-chain")]
    zeros = [r for r in reports if r.identity_id == "composite-orthogonality"]
    ok = (len(chain) == 3 and len(zeros) == 2
          and all(r.verdict == VERIFIED and r.rel_gap <= 1e-6 for r in chain)
          and all(r.verdict == VERIFIED and abs(r.lhs) <= 1e-8 for r in zeros))
    worst = max(r.rel_gap for r in chain)
    assert _report(7, ok, f"chain worst gap {worst:.2e}, zero integrals "
                          f"max {max(abs(r.lhs) for r in zeros):.2e}")


def test_criterion_08_screen_soundness():
    p = Params(1, 0.5)
    fC = solution_descriptor(singular_solution(p), p, "singular")
    fL = solution_descriptor(lieb_solution(p), p, "lieb")
    tolerance = 1e-6
    checked = 0
    ok = True
    for f, g in [(fC, fC), (fC, fL), (fL, fC)]:
        for a in range(3):
            for b in range(3):
                singularities = (
                    (0.0, g.base.exponent_at_zero(b) + f.power.exponent_at_zero(a)),
                    (math.inf, g.base.exponent_at_infinity(b)
                     + f.power.exponent_at_infinity(a)),
                )
                if convergence_screen(singularities):
                    continue
                vals = [cutoff_pair_integral(f, a, g, b, p, R)
                        for R in (1e2, 1e3, 1e4)]
                stable = (abs(vals[1] - vals[0]) <= 10 * tolerance
                          or abs(vals[2] - vals[1]) <= 10 * tolerance)
                ok = ok and not stable
                checked += 1
    ok = ok and checked >= 5
    assert _report(8, ok, f"{checked} divergent instances all non-stabilizing")


def test_criterion_09_kernel_conditions():
    ok = True
    worst_translation = 0.0
    worst_const = 0.0
    for n, lam in [(1, 0.5), (2, 1.3), (3, 2.5)]:
        p = Params(n, lam)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2.0, 2.0, 50)
        # order-one separations keep kernel magnitudes sane, so the exact
        # analytic cancellation is not buried under rounding noise
        ys = xs - np.exp(rng.uniform(math.log(0.3), math.log(3.0), 50)) \
            * np.where(rng.uniform(size=50) < 0.5, 1.0, -1.0)
        worst_translation = max(worst_translation,
                                translation_annihilation_check(p, list(zip(xs, ys))))
        rep = kernel_growth_check(p, 4)
        worst_const = max(worst_const, rep.max_deviation)
    ok = worst_translation <= 1e-8 and worst_const <= 1e-10
    assert _report(9, ok, f"translation max {worst_translation:.2e}, "
                          f"growth-constant deviation {worst_const:.2e}")


def test_criterion_10_regularity_norms():
    p = Params(1, 0.5)
    ball = Domain1D.ball(1, 1.0)
    finite = weighted_norm(lieb_solution(p), 2, p.lam, ball)
    flagged = weighted_norm(singular_solution(p), 2, p.lam, ball)
    ok = (not finite.unbounded and finite.total < math.inf
          and flagged.unbounded and math.isinf(flagged.total))
    assert _report(10, ok, f"bounded-solution norm {finite.total:.4f}, "
                           f"singular-solution flagged unbounded={flagged.unbounded}")


def _solve(grid_size):
    p = Params(1, 0.5)
    cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=grid_size,
                       stop_tol=1e-8)
    solution, trace = picard_solve(cfg, p)
    return p, cfg, solution, trace


def test_criterion_11_solver_convergence_and_norm():
    p, cfg, solution, trace = _solve(129)
    ok = trace.converged and trace.residuals[-1] <= 1e-8
    positive = all(m > 0.0 for m in trace.minima) and min(solution.values) > 0.0
    norm = weighted_norm(solution, 1, p.lam, cfg.domain)
    ok = ok and positive and not norm.unbounded and norm.total < math.inf
    assert _report("11(converged/positive/norm)", ok,
                   f"residual {trace.residuals[-1]:.2e}, min iterate "
                   f"{min(trace.minima):.2e}, weighted norm {norm.total:.3f}")


def _energy(solution):
    """int_G u_h^p for the piecewise-linear grid interpolant u_h (8-point
    Gauss-Legendre per panel; u_h^p is smooth on each panel)."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    x = np.asarray(solution.x)
    u = np.asarray(solution.values)
    uh = u[:-1, None] + np.diff(u)[:, None] * (0.5 * (1.0 + nodes))
    return float(np.sum(0.5 * np.diff(x)[:, None] * weights
                        * uh ** solution.params.p))


def _bubble_distance(solution, L):
    """Relative sup distance over the grid nodes to the amplitude-matched
    Lieb bubble L t^a (1 + t^2 x^2)^(-a), t = (max u / L)^(1/a)."""
    a = solution.params.solution_exponent
    x = np.asarray(solution.x)
    u = np.asarray(solution.values)
    peak = float(np.max(u))
    t = (peak / L) ** (1.0 / a)
    bubble = L * t ** a * (1.0 + (t * x) ** 2) ** (-a)
    return float(np.max(np.abs(u - bubble)) / peak)


def test_criterion_11_solver_grid_stability():
    # The critical problem on G = [-1, 1] has no positive solution: the
    # Pohozaev identity leaves u(1)^p + u(-1)^p = 0.  The discrete solves
    # concentrate into one Lieb bubble at x = 0 whose amplitude grows under
    # refinement, so the sup-norm change (printed for the record) stays near
    # 27% per doubling.  What has a limit is the energy E = int u^p: it is
    # invariant under the equation's dilation u -> t^(n-lam/2) u(t .), equals
    # the HLS form int u T_G u, and by the sharp HLS inequality (Lieb 1983)
    # lies above the bubble energy pi L^p, which it approaches as the
    # bubble narrows.
    p, _, sol1, _ = _solve(129)
    _, _, sol2, _ = _solve(257)
    probes = np.linspace(-0.95, 0.95, 39)
    a1 = np.asarray(sol1.value(probes))
    a2 = np.asarray(sol2.value(probes))
    sup_change = float(np.max(np.abs(a1 - a2)) / np.max(np.abs(a2)))

    L = lieb_constant_L(p)
    bubble_energy = math.pi * L ** p.p   # int_R (1 + x^2)^(-1) dx, as a p = n = 1
    e1, e2 = _energy(sol1), _energy(sol2)
    change = abs(e1 - e2) / e2
    gap1, gap2 = e1 - bubble_energy, e2 - bubble_energy
    d1, d2 = _bubble_distance(sol1, L), _bubble_distance(sol2, L)
    edge1 = max(sol1.values[0], sol1.values[-1])
    edge2 = max(sol2.values[0], sol2.values[-1])
    ok = (change < 0.01
          and gap1 > 0.0 and gap2 > 0.0
          # geometric approach at ratio <= 3/4 per doubling: gap2 <= 3 |e1 - e2|
          and gap2 < gap1 and gap2 <= 3.0 * abs(e1 - e2)
          and d2 < d1
          and edge2 < edge1)
    assert _report("11(grid-doubling)", ok,
                   f"sup-norm change {sup_change:.2%}, energy change {change:.2%}, "
                   f"energy gap to pi L^p {gap1 / bubble_energy:+.2%} -> "
                   f"{gap2 / bubble_energy:+.2%}, bubble distance {d1:.2%} -> "
                   f"{d2:.2%}, u(+-1) {edge1:.2e} -> {edge2:.2e}")


def test_criterion_12_decay_scan():
    p = Params(1, 0.5)
    fC = singular_solution(p)
    fL = lieb_solution(p)
    repC = decay_singularity_scan(fC, 1e3,
                                  blowup_threshold=1e3 * float(fC.value(1.0)))
    repL = decay_singularity_scan(fL, 1e3,
                                  blowup_threshold=1e3 * float(fL.value(1.0)))
    ok = (repC.singular_points == (0.0,) and repC.decay_verified
          and repL.singular_points == () and repL.decay_verified)
    assert _report(12, ok, f"singular: {repC.singular_points} decay "
                           f"{repC.decay_verified}; bounded: "
                           f"{repL.singular_points} decay {repL.decay_verified}")

import math

import mpmath
import numpy as np
import pytest

from liebeq.quadrature import NonConvergent, QuadratureSpec, integrate
from liebeq.regularity import Domain1D, weighted_norm
from liebeq.solver import (MAX_ITERS, ROUNDING_FLOOR, SolverConfig, graded_grid,
                           moment_matrix, picard_solve, product_integration_matrix,
                           residual_on_points)
from liebeq.specfun import Params, lieb_constant_L


def _bubble_fit(solution):
    """(max u / L, relative sup distance of u from the Lieb bubble
    max u (1 + (x/eps)^2)^(-a), a = 1 - lam/2, whose peak L eps^(-a) is
    max u): the discrete solutions concentrate into this bubble."""
    x = np.asarray(solution.x)
    u = np.asarray(solution.values)
    L = lieb_constant_L(solution.params)
    a = 1.0 - solution.params.lam / 2.0
    eps = (u.max() / L) ** (-1.0 / a)
    bubble = u.max() * (1.0 + (x / eps) ** 2) ** (-a)
    return u.max() / L, float(np.max(np.abs(u - bubble)) / u.max())


@pytest.fixture(scope="module")
def converged():
    p = Params(1, 0.5)
    cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=129,
                       stop_tol=1e-8)
    solution, trace = picard_solve(cfg, p)
    return p, cfg, solution, trace


class TestDiscretization:
    def test_graded_grid_shape(self):
        x = graded_grid(-1.0, 1.0, 65, 2.0)
        assert x[0] == -1.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0)
        assert np.max(np.abs(x + x[::-1])) == 0.0  # symmetric
        # clustering toward the endpoints
        assert x[1] - x[0] < (x[33] - x[32]) / 4

    @pytest.mark.parametrize("N", [33, 65, 101, 129, 201, 257, 513, 1025])
    def test_graded_grid_is_bitwise_symmetric(self, N):
        # product_integration_matrix folds each column onto its mirror node
        x = graded_grid(-1.0, 1.0, N, 2.0)
        assert np.array_equal(x, -x[::-1])
        if (N - 1) & (N - 2) == 0:
            # at N = 2^k + 1 the nodes are those of the one-formula grid
            t = np.linspace(0.0, 1.0, N)
            g = np.where(t <= 0.5, 0.5 * (2.0 * t) ** 2.0,
                         1.0 - 0.5 * (2.0 * (1.0 - t)) ** 2.0)
            assert np.array_equal(x, -1.0 + 2.0 * g)

    def test_matrix_against_closed_form(self):
        lam = 0.5
        x = graded_grid(-1.0, 1.0, 65, 2.0)
        W = moment_matrix(x, x, lam)
        exact = 2.0 * (np.sqrt(np.maximum(1 - x, 0)) + np.sqrt(np.maximum(1 + x, 0)))
        assert np.max(np.abs(W @ np.ones_like(x) - exact)) < 1e-13

    def test_matrix_against_quadrature(self):
        # independent oracle: the adaptive engine integrates the same
        # piecewise-linear integrand, at nodes and at probes between them
        lam = 0.6
        x = graded_grid(-1.0, 1.0, 33, 1.5)
        W = moment_matrix(x, x, lam)
        u = 1.0 + x / 3.0

        def oracle(t, values):
            # the nodes split the range too: u_h has a kink at each of them
            lin = lambda s: np.interp(s, x, values)
            kinks = {s: 0.0 for s in x[1:-1]}
            spec = QuadratureSpec(singularities=sorted(({**kinks, t: -lam}).items()))
            return integrate(lambda s: np.abs(t - s) ** -lam * lin(s),
                             -1.0, 1.0, spec).value

        for i in (0, 7, 16, 28):
            assert (W @ u)[i] == pytest.approx(oracle(x[i], u), rel=1e-7)
        probes = np.array([x[0] + 0.1 * (x[1] - x[0]), 0.5 * (x[7] + x[8]),
                           x[16] + 1e-3 * (x[17] - x[16]), 0.5 * (x[28] + x[29])])
        M = moment_matrix(x, probes, lam)
        for values in (u, np.cos(2.0 * x)):
            for t, got in zip(probes, M @ values):
                assert got == pytest.approx(oracle(t, values), rel=1e-7)

    def test_undeclared_kinks_give_no_false_error_bar(self):
        # with only t declared, the interpolant's kinks at the nodes break
        # integrate's "analytic between split points" contract: refusing
        # with NonConvergent is honest, a value must carry a true error bar
        lam = 0.6
        x = graded_grid(-1.0, 1.0, 33, 1.5)
        values = np.cos(2.0 * x)
        probes = np.array([x[0] + 0.1 * (x[1] - x[0]), 0.5 * (x[7] + x[8]),
                           x[16] + 1e-3 * (x[17] - x[16]), 0.5 * (x[28] + x[29])])
        for t, exact in zip(probes, moment_matrix(x, probes, lam) @ values):
            try:
                value, err = integrate(
                    lambda s: np.abs(t - s) ** -lam * np.interp(s, x, values),
                    -1.0, 1.0, QuadratureSpec(singularities=((t, 0.0),)))
            except NonConvergent:
                continue
            assert abs(value - exact) <= err

    @pytest.mark.parametrize("N", [65, 257])
    def test_even_matrix_matches_column_loop(self, N):
        x = graded_grid(-1.0, 1.0, N, 2.0)
        W = moment_matrix(x, x, 0.5)
        c = N // 2
        half = np.arange(c, N)
        mirror = N - 1 - half
        loop = W[np.ix_(half, half)].copy()
        for col, j in enumerate(half):
            if mirror[col] != j:
                loop[:, col] += W[half, mirror[col]]
        assert np.array_equal(product_integration_matrix(x, 0.5), loop)

    @pytest.mark.parametrize("N", [257, 513])
    @pytest.mark.parametrize("lam", [0.3, 0.77])
    def test_moment_matrix_matches_mpmath_oracle(self, N, lam):
        # oracle: each panel's exact moments int |t-s|^(-lam) {1, s} ds at
        # 40 digits, spread onto the hat functions of its two nodes; the
        # matrix takes second divided differences, whose rounding grows as
        # eps d^2/h^2 on far, narrow panels (about 2e-9 of a row here)
        x = graded_grid(-1.0, 1.0, N, 2.0)
        c = N // 2
        rows = np.array([x[0], x[-1], x[1], x[c // 2], x[c],
                         0.5 * (x[0] + x[1]), x[c] + 1e-3 * (x[c + 1] - x[c]),
                         0.5 * (x[-3] + x[-2]), -0.7777])
        M = moment_matrix(x, rows, lam)
        with mpmath.workdps(40):
            a = mpmath.mpf(lam)
            P = lambda d: mpmath.sign(d) * abs(d) ** (1 - a) / (1 - a)
            Q = lambda d: abs(d) ** (2 - a) / (2 - a)
            X = [mpmath.mpf(v) for v in x]
            for t, got in zip(rows, M):
                t = mpmath.mpf(t)
                Pd, Qd = [P(v - t) for v in X], [Q(v - t) for v in X]
                ref = [mpmath.mpf(0)] * N
                for j in range(N - 1):
                    h = X[j + 1] - X[j]
                    m0 = Pd[j + 1] - Pd[j]
                    m1 = t * m0 + Qd[j + 1] - Qd[j]
                    ref[j] += (X[j + 1] * m0 - m1) / h
                    ref[j + 1] += (m1 - X[j] * m0) / h
                ref = np.array([float(v) for v in ref])
                assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [257, 513])
    @pytest.mark.parametrize("lam", [0.3, 0.77])
    def test_rows_sum_to_the_moment_of_one(self, N, lam):
        # the second differences telescope: a row sums to R'(1-t) - R'(-1-t),
        # the closed-form moment of u = 1, up to the rounding of the sum
        x = graded_grid(-1.0, 1.0, N, 2.0)
        t = np.concatenate([np.linspace(-1.0, 1.0, 41), 0.5 * (x[:-1] + x[1:])[::7]])
        exact = ((1.0 - t) ** (1.0 - lam) + (1.0 + t) ** (1.0 - lam)) / (1.0 - lam)
        got = moment_matrix(x, t, lam) @ np.ones(N)
        assert np.max(np.abs(got - exact) / exact) <= 1e-15

    def test_lambda_window(self):
        x = graded_grid(0.0, 1.0, 9, 1.0)
        with pytest.raises(ValueError):
            product_integration_matrix(x, 1.0)


class TestNewtonScheme:
    def test_converges(self, converged):
        _, cfg, _, trace = converged
        assert trace.converged
        assert trace.residuals[-1] <= cfg.stop_tol
        assert trace.iterations <= MAX_ITERS

    def test_residual_decreases_after_burn_in(self, converged):
        _, _, _, trace = converged
        rs = trace.residuals
        tail = rs[len(rs) // 2:]
        assert min(tail) == tail[-1] or tail[-1] <= 10 * min(tail)
        assert rs[-1] < 1e-2 * rs[0]

    def test_positivity(self, converged):
        _, _, solution, trace = converged
        assert min(solution.values) > 0.0
        assert all(m > 0.0 for m in trace.minima)

    def test_fixed_point_consistency(self, converged):
        # one undamped sweep through the explicit map leaves the converged
        # solution unchanged to within the stopping tolerance
        p, cfg, solution, _ = converged
        x = np.asarray(solution.x)
        u = np.asarray(solution.values)
        W = moment_matrix(x, x, p.lam)
        swept = (W @ u) ** (1.0 / p.pm1)
        assert np.max(np.abs(swept - u)) / np.max(u) <= 10 * cfg.stop_tol

    def test_final_record_is_the_right_half_residual(self, converged):
        # the last record is the residual of the equations the even solve
        # solves, Wr uh = uh^(p-1) at the right-half nodes
        p, _, solution, trace = converged
        x = np.asarray(solution.x)
        uh = np.asarray(solution.values)[len(x) // 2:]
        rhs = uh ** p.pm1
        Wr = product_integration_matrix(x, p.lam)
        assert trace.residuals[-1] == np.max(np.abs(Wr @ uh - rhs)) / np.max(rhs)

    def test_collocation_residual_at_nodes(self, converged):
        p, _, solution, _ = converged
        probes = np.asarray(solution.x)[4:-4:8]
        assert residual_on_points(solution, probes) <= 1e-8

    @pytest.mark.parametrize("probes", [[], [1.5], [0.0, -1.0 - 1e-12], [math.nan]],
                             ids=["none", "right-of-grid", "left-of-grid", "nan"])
    def test_residual_refuses_probes_it_cannot_judge(self, converged, probes):
        # u_h is defined on [x_0, x_(N-1)] only, and no probe judges nothing
        _, _, solution, _ = converged
        with pytest.raises(ValueError, match="probe"):
            residual_on_points(solution, probes)

    def test_residual_accepts_the_grid_ends(self, converged):
        _, _, solution, _ = converged
        x = np.asarray(solution.x)
        assert residual_on_points(solution, [x[0], x[-1]]) < 1e-8

    def test_weighted_norm_finite(self, converged):
        p, cfg, solution, _ = converged
        res = weighted_norm(solution, 1, p.lam, cfg.domain)
        assert not res.unbounded and res.total < math.inf

    @pytest.mark.xfail(reason="off-grid residual is dominated by interpolation "
                       "error near the concentration peak, a Lieb bubble a "
                       "few grid spacings wide; the bounded-domain problem "
                       "at the conjugate exponent has no positive solution "
                       "and its discrete solutions concentrate",
                       strict=True)
    def test_off_grid_residual_within_ten_stop_tols(self, converged):
        p, cfg, solution, _ = converged
        probes = np.linspace(-0.9, 0.9, 21)
        assert residual_on_points(solution, probes) <= 10 * cfg.stop_tol

    def test_profile_interface(self, converged):
        _, _, solution, _ = converged
        mid = solution.value(0.0)
        assert mid == pytest.approx(max(solution.values), rel=1e-6)
        d = solution.derivative_1d(0.5, 1)
        assert np.isfinite(d)

    def test_grid_solution_is_u_h(self, converged):
        # oracle: u_h is the piecewise-linear interpolant of the nodal values,
        # its derivative the secant slope of the panel right of the point
        _, _, solution, _ = converged
        x = np.asarray(solution.x)
        u = np.asarray(solution.values)
        rng = np.random.default_rng(7)
        probes = np.concatenate([0.5 * (x[:-1] + x[1:]),
                                 rng.uniform(x[0], x[-1], 200)])
        assert np.array_equal(solution.value(probes), np.interp(probes, x, u))
        slopes = [(u[j + 1] - u[j]) / (x[j + 1] - x[j])
                  for j in (int(np.sum(x <= t)) - 1 for t in probes)]
        assert np.array_equal(solution.derivative_1d(probes, 1), slopes)
        # at a node the right panel's slope, at the last node the last panel's
        assert solution.derivative_1d(x[3], 1) == (u[4] - u[3]) / (x[4] - x[3])
        assert solution.derivative_1d(x[-1], 1) == (u[-1] - u[-2]) / (x[-1] - x[-2])
        assert solution.derivative_1d(0.3, 0) == solution.value(0.3)
        with pytest.raises(ValueError):
            solution.derivative_1d(0.3, 2)   # u_h'' is a measure

    # from the dilated bubble; from u = 1 the same sweeps took 35 and 65
    @pytest.mark.parametrize("lam, sweeps", [(0.3, 20), (0.7, 34)], ids=["0.3", "0.7"])
    def test_trace_of_accelerated_sweeps(self, lam, sweeps):
        # the accelerated sweeps reach the rounding floor: no finish runs,
        # and the record is one entry per sweep, the last one the solution's
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=257)
        _, trace = picard_solve(cfg, Params(1, lam))
        assert trace.converged and trace.residuals[-1] <= ROUNDING_FLOOR
        assert trace.accelerated <= sweeps
        assert trace.nfev == trace.njev == 0
        assert trace.message == "the accelerated sweeps reached a residual <= 1e-14"
        assert trace.iterations == len(trace.residuals) == trace.accelerated
        assert trace.iterations <= MAX_ITERS
        assert len(trace.amplitudes) == len(trace.minima) == trace.iterations
        assert min(trace.residuals[:-1]) > ROUNDING_FLOOR

    def test_stop_tol_below_the_rounding_floor(self):
        # the accelerated sweeps stop only at a residual that meets stop_tol
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=129,
                           stop_tol=1e-15)
        _, trace = picard_solve(cfg, Params(1, 0.3))
        assert trace.converged and trace.residuals[-1] <= 1e-15

    def test_trace_of_fallback(self):
        # at (129, 0.99) MAX_ITERS accelerated sweeps stop short of the
        # floor; the finish starts from their best iterate, goes below every
        # one of them, and the record keeps the sweeps, the finish's
        # residual evaluations and the solution, in that order
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=129)
        _, trace = picard_solve(cfg, Params(1, 0.99))
        assert trace.converged
        assert trace.accelerated == MAX_ITERS
        assert min(trace.residuals[:trace.accelerated]) > ROUNDING_FLOOR
        assert trace.nfev > 0 and trace.njev > 0
        assert trace.iterations == len(trace.residuals) == \
            trace.accelerated + trace.nfev + 1
        assert trace.iterations <= 2 * MAX_ITERS + 1
        assert trace.message.startswith("the finish stopped")
        assert len(trace.amplitudes) == len(trace.minima) == trace.iterations
        # the finish's first evaluation is the best accelerated iterate
        assert trace.residuals[trace.accelerated] == \
            pytest.approx(min(trace.residuals[:trace.accelerated]), rel=1e-6)
        assert trace.residuals[-1] < min(trace.residuals[:trace.accelerated])

    def test_finish_stops_at_the_sweeps_target(self):
        # at (1025, 0.98) the sweeps stall short of the floor, and one Newton
        # step of the finish reaches it; no evaluation is spent after that
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=1025)
        _, trace = picard_solve(cfg, Params(1, 0.98))
        assert trace.accelerated == MAX_ITERS
        assert trace.message == "the finish reached the sweeps' target residual"
        finish = trace.residuals[trace.accelerated:]
        assert len(finish) == trace.nfev + 1
        assert finish[-1] == finish[-2] <= ROUNDING_FLOOR
        assert min(finish[:-2]) > ROUNDING_FLOOR

    # the Anderson mix solves the normal equations of the history's Gram
    # matrix, so the sweeps need no least-squares call
    @pytest.mark.parametrize("N, lam", [(257, 0.5), (513, 0.7)])
    def test_sweeps_converge_without_lstsq(self, monkeypatch, N, lam):
        def lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        _, trace = picard_solve(cfg, Params(1, lam))
        assert trace.converged and trace.nfev == 0

    # a trust-region finish alone, from the start u = 1, stalled short of
    # a root on these (residuals 2e-3 to 8e-2); the sweeps bring every one
    # into its basin
    @pytest.mark.parametrize("N, lam", [(257, 0.55), (257, 0.65), (257, 0.74),
                                        (513, 0.776)])
    def test_converges_where_trust_region_alone_stalls(self, N, lam):
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        solution, trace = picard_solve(cfg, Params(1, lam))
        assert trace.converged and trace.residuals[-1] <= 1e-13
        assert min(solution.values) > 0.0 and all(m > 0.0 for m in trace.minima)
        # a concentrated bubble (max u / L is 11.7 to 16.1 here), not u ~ 0
        ratio, distance = _bubble_fit(solution)
        assert 10.0 < ratio < 30.0 and distance < 0.06

    # the Lieb constant L, the whole-line solution's peak, is 4.9e-8 at
    # lam = 0.9, 1.1e-17 at 0.95 and 4.4e-117 at 0.99: the solutions are that
    # small, so the finish's step test is relative to max u^(p-1).  The
    # finish starts from the best accelerated iterate: from the last one,
    # with the sweeps started from u = 1, it ran out of evaluations at
    # (257, 0.99)
    @pytest.mark.parametrize("N, lam", [(129, 0.9), (257, 0.95), (129, 0.99),
                                        (257, 0.99), (513, 0.95)])
    def test_small_amplitude_solutions_reach_machine_residuals(self, N, lam):
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        solution, trace = picard_solve(cfg, Params(1, lam))
        assert trace.converged and trace.residuals[-1] <= 1e-13
        assert min(solution.values) > 0.0
        ratio, distance = _bubble_fit(solution)
        assert 5.0 < ratio < 15.0 and distance < 0.1

    def test_small_residual_rules_out_collapse(self):
        # a relative residual r forces max u >= ((1 - r)/max Wr1)^(1/(2-p)),
        # Wr having nonnegative entries; every recorded iterate obeys it, and
        # shrinking a solution by t raises its residual to 1 - t^(2-p)
        p = Params(1, 0.9)
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=129)
        solution, trace = picard_solve(cfg, p)
        x = np.asarray(solution.x)
        u = np.asarray(solution.values)[len(x) // 2:]
        W = product_integration_matrix(x, p.lam)
        assert np.all(W >= 0.0)
        row_max = np.max(W @ np.ones(len(u)))
        for r, amplitude in zip(trace.residuals, trace.amplitudes):
            if r < 1.0:
                assert amplitude >= ((1.0 - r) / row_max) ** (1.0 / (2.0 - p.p))
        for t in (1e-1, 1e-3, 1e-6):
            rhs = (t * u) ** p.pm1
            r = np.max(np.abs(W @ (t * u) - rhs)) / np.max(rhs)
            assert r == pytest.approx(1.0 - t ** (2.0 - p.p), abs=1e-12)

    # independent of the finish's step control: one dense LU Newton
    # step on F(w) = Wr (b w)^s / b - w, w = u^(p-1)/b on the right half,
    # from the returned solution must leave w where it is; the left-half
    # equations, which the even solve does not solve, must hold as well
    @pytest.mark.parametrize("N, lam", [(129, 0.02), (257, 0.5), (513, 0.776),
                                        (129, 0.99), (257, 0.95)])
    def test_newton_step_from_solution_stays_put(self, N, lam):
        p = Params(1, lam)
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        solution, trace = picard_solve(cfg, p)
        assert trace.converged
        x = np.asarray(solution.x)
        u = np.asarray(solution.values)
        Wr = product_integration_matrix(x, lam)
        s = 1.0 / p.pm1
        v = u[N // 2:] ** p.pm1
        b = 2.0 ** round(math.log2(np.max(v)))
        w = v / b
        F = Wr @ (b * w) ** s / b - w
        J = s * Wr * ((b * w) ** (s - 1.0))[None, :] - np.eye(len(w))
        step = np.linalg.solve(J, -F)
        assert np.max(np.abs(step)) <= 1e-12 * np.max(np.abs(w))
        rhs = u ** p.pm1
        full = np.max(np.abs(moment_matrix(x, x, lam) @ u - rhs)) / np.max(rhs)
        assert full <= 1e-13

    @pytest.mark.parametrize("lam", [0.001, 0.999])
    def test_overflowing_sweep_hands_last_finite_iterate_on(self, lam):
        # s = 1/(p-1) (small lam) or gamma = s/(s-1) (lam near 1) is large
        # enough for a sweep to overflow; the finish must still get a
        # finite positive start, the best iterate before the overflow
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=33)
        solution, trace = picard_solve(cfg, Params(1, lam))
        assert trace.accelerated < MAX_ITERS and trace.nfev > 0
        assert np.all(np.isfinite(solution.values)) and min(solution.values) > 0.0

    def test_finish_compares_residual_norms_without_underflow(self):
        # at lam = 0.993 the solution is about 1e-176, so |F|^2 underflows:
        # compared squared, every trial ties at 0 and the finish gives up
        # short of convergence.  Compared unsquared it converges
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=201)
        solution, trace = picard_solve(cfg, Params(1, 0.993))
        assert max(solution.values) < 1e-150 and min(solution.values) > 0.0
        assert trace.converged and trace.residuals[-1] <= 1e-13

    # the amplitude is about 1e-176 at lam = 0.993 and 1e-261 at 0.995; from
    # the bubble both converge (from u = 1 every one of these ended Failed)
    @pytest.mark.parametrize("N", [129, 257, 513])
    @pytest.mark.parametrize("lam", [0.993, 0.995])
    def test_converges_near_lambda_one(self, N, lam):
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        solution, trace = picard_solve(cfg, Params(1, lam))
        assert trace.converged and trace.residuals[-1] <= 1e-13
        assert min(solution.values) > 0.0

    @pytest.mark.parametrize("N, peak", [(129, "1.064"), (257, "1.461"), (513, "2.048")])
    def test_peak_matches_readme_table(self, N, peak):
        # the README's critical-interval table at lambda = 0.5
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        solution, trace = picard_solve(cfg, Params(1, 0.5))
        assert trace.residuals[-1] <= 1e-13
        assert f"{max(solution.values):.3f}" == peak


class TestConfig:
    def test_validation(self):
        G = Domain1D.interval(-1.0, 1.0)
        with pytest.raises(ValueError):
            SolverConfig(domain=G, grid_size=3)
        with pytest.raises(ValueError):
            SolverConfig(domain=G, stop_tol=0.0)

    def test_dimension_guard(self):
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0))
        with pytest.raises(ValueError):
            picard_solve(cfg, Params(3, 1.0))

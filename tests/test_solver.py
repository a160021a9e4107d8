import math

import numpy as np
import pytest

from liebeq.quadrature import NonConvergent, QuadratureSpec, integrate
from liebeq.regularity import Domain1D, weighted_norm
from liebeq.solver import (Diverged, NonPositive, SolverConfig, _even_matrix,
                           graded_grid, moment_matrix, picard_solve,
                           product_integration_matrix, residual_on_points)
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
    solution, trace = picard_solve(cfg, p, init=1.0)
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
        # _even_matrix folds each column onto its mirror node
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
        W = product_integration_matrix(x, lam)
        exact = 2.0 * (np.sqrt(np.maximum(1 - x, 0)) + np.sqrt(np.maximum(1 + x, 0)))
        assert np.max(np.abs(W @ np.ones_like(x) - exact)) < 1e-13

    def test_matrix_against_quadrature(self):
        # independent oracle: the adaptive engine integrates the same
        # piecewise-linear integrand, at nodes and at probes between them
        lam = 0.6
        x = graded_grid(-1.0, 1.0, 33, 1.5)
        W = product_integration_matrix(x, lam)
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
        W = product_integration_matrix(graded_grid(-1.0, 1.0, N, 2.0), 0.5)
        c = N // 2
        half = np.arange(c, N)
        mirror = N - 1 - half
        loop = W[np.ix_(half, half)].copy()
        for col, j in enumerate(half):
            if mirror[col] != j:
                loop[:, col] += W[half, mirror[col]]
        Wr, got_half, got_mirror = _even_matrix(W)
        assert np.array_equal(Wr, loop)
        assert np.array_equal(got_half, half) and np.array_equal(got_mirror, mirror)

    @pytest.mark.parametrize("N", [257, 513])
    @pytest.mark.parametrize("lam", [0.3, 0.77])
    def test_moment_matrix_matches_two_sided_panel_formula(self, N, lam):
        # each panel's moments from the powers at both of its ends; the
        # matrix shares one power per node distance between adjacent panels
        x = graded_grid(-1.0, 1.0, N, 2.0)
        t = x[:, None]
        A, B = x[:-1], x[1:]
        h = B - A
        P = lambda d: np.sign(d) * np.abs(d) ** (1.0 - lam) / (1.0 - lam)
        Q = lambda d: np.abs(d) ** (2.0 - lam) / (2.0 - lam)
        m0 = P(B - t) - P(A - t)
        m1 = t * m0 + Q(B - t) - Q(A - t)
        ref = np.zeros((N, N))
        ref[:, 1:] += (-A / h) * m0 + (1.0 / h) * m1
        ref[:, :-1] += (B / h) * m0 + (-1.0 / h) * m1
        assert np.array_equal(moment_matrix(x, x, lam), ref)

    def test_lambda_window(self):
        x = graded_grid(0.0, 1.0, 9, 1.0)
        with pytest.raises(ValueError):
            product_integration_matrix(x, 1.0)


class TestNewtonScheme:
    def test_converges(self, converged):
        _, cfg, _, trace = converged
        assert trace.converged
        assert trace.residuals[-1] <= cfg.stop_tol
        assert trace.iterations <= cfg.max_iters

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
        W = product_integration_matrix(x, p.lam)
        swept = (W @ u) ** (1.0 / p.pm1)
        assert np.max(np.abs(swept - u)) / np.max(u) <= 10 * cfg.stop_tol

    def test_collocation_residual_at_nodes(self, converged):
        p, _, solution, _ = converged
        probes = np.asarray(solution.x)[4:-4:8]
        assert residual_on_points(solution, probes) <= 1e-8

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

    def test_positive_init_required(self, converged):
        p, cfg, _, _ = converged
        with pytest.raises(NonPositive):
            picard_solve(cfg, p, init=-1.0)

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

    def test_trace_splits_sweeps_and_finish(self, converged):
        _, cfg, _, trace = converged
        # one record per sweep, per finisher residual and for the solution
        assert trace.sweeps > 0 and trace.nfev > 0 and trace.njev > 0
        assert trace.iterations == len(trace.residuals) == trace.sweeps + trace.nfev + 1
        assert trace.iterations <= 2 * cfg.max_iters + 1
        assert trace.status in (1, 2, 3, 4) and "termination" in trace.message
        assert len(trace.amplitudes) == len(trace.minima) == trace.iterations
        # the sweeps bring the residual to sqrt(stop_tol), the finish below it
        assert trace.residuals[trace.sweeps - 1] <= math.sqrt(cfg.stop_tol)
        assert max(trace.residuals[:trace.sweeps - 1]) > math.sqrt(cfg.stop_tol)

    # the trust region alone stalls short of a root on these (residuals 2e-3
    # to 8e-2); the sweeps bring every one into its basin
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
    # small, and a finish in unscaled u^(p-1) stops on the absolute gradient
    # test gtol far above machine residuals
    @pytest.mark.parametrize("N, lam", [(129, 0.9), (257, 0.95), (129, 0.99)])
    def test_small_amplitude_solutions_reach_machine_residuals(self, N, lam):
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        solution, trace = picard_solve(cfg, Params(1, lam))
        assert trace.converged and trace.residuals[-1] <= 1e-13
        assert min(solution.values) > 0.0
        ratio, distance = _bubble_fit(solution)
        assert 5.0 < ratio < 15.0 and distance < 0.1

    def test_small_residual_rules_out_collapse(self):
        # a relative residual r forces max u >= ((1 - r)/max W1)^(1/(2-p)),
        # W having nonnegative entries; every recorded iterate obeys it, and
        # shrinking a solution by t raises its residual to 1 - t^(2-p)
        p = Params(1, 0.9)
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=129)
        solution, trace = picard_solve(cfg, p)
        x = np.asarray(solution.x)
        u = np.asarray(solution.values)
        W = product_integration_matrix(x, p.lam)
        assert np.all(W >= 0.0)
        row_max = np.max(W @ np.ones(len(x)))
        for r, amplitude in zip(trace.residuals, trace.amplitudes):
            if r < 1.0:
                assert amplitude >= ((1.0 - r) / row_max) ** (1.0 / (2.0 - p.p))
        for t in (1e-1, 1e-3, 1e-6):
            rhs = (t * u) ** p.pm1
            r = np.max(np.abs(W @ (t * u) - rhs)) / np.max(rhs)
            assert r == pytest.approx(1.0 - t ** (2.0 - p.p), abs=1e-12)

    # independent of the trust region's inner solver: one dense LU Newton
    # step on F(w) = Wr (b w)^s / b - w, w = u^(p-1)/b on the right half,
    # from the returned solution must leave w where it is
    @pytest.mark.parametrize("N, lam", [(129, 0.02), (257, 0.5), (513, 0.776),
                                        (129, 0.99), (257, 0.95)])
    def test_newton_step_from_solution_stays_put(self, N, lam):
        p = Params(1, lam)
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        solution, trace = picard_solve(cfg, p)
        assert trace.converged
        W = product_integration_matrix(np.asarray(solution.x), lam)
        Wr, half, _ = _even_matrix(W)
        s = 1.0 / p.pm1
        v = np.asarray(solution.values)[half] ** p.pm1
        b = 2.0 ** round(math.log2(np.max(v)))
        w = v / b
        F = Wr @ (b * w) ** s / b - w
        J = s * Wr * ((b * w) ** (s - 1.0))[None, :] - np.eye(len(half))
        step = np.linalg.solve(J, -F)
        assert np.max(np.abs(step)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("lam", [0.001, 0.999])
    def test_overflowing_sweep_hands_last_finite_iterate_on(self, lam):
        # s = 1/(p-1) (small lam) or gamma = s/(s-1) (lam near 1) is large
        # enough for a sweep to overflow; the finish must still get a
        # finite positive start instead of least_squares raising ValueError
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=33)
        solution, trace = picard_solve(cfg, Params(1, lam))
        assert trace.sweeps < cfg.max_iters and trace.nfev > 0
        assert np.all(np.isfinite(solution.values)) and min(solution.values) > 0.0

    @pytest.mark.parametrize("N, peak", [(129, "1.064"), (257, "1.461"), (513, "2.048")])
    def test_peak_matches_readme_table(self, N, peak):
        # the README's critical-interval table at lambda = 0.5
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=N)
        solution, trace = picard_solve(cfg, Params(1, 0.5))
        assert trace.residuals[-1] <= 1e-13
        assert f"{max(solution.values):.3f}" == peak


class TestDirectScheme:
    def test_diverges_from_constant_init(self):
        p = Params(1, 0.5)
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=65,
                           scheme="direct", max_iters=60)
        with pytest.raises(Diverged):
            picard_solve(cfg, p, init=1.0)

    def test_growth_streak_detection(self):
        # small damping slows the blow-up enough to observe five consecutive
        # residual increases before overflow
        p = Params(1, 0.5)
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=65,
                           scheme="direct", damping=0.02, max_iters=200)
        with pytest.raises(Diverged) as err:
            picard_solve(cfg, p, init=1.0)
        assert err.value.trace is not None
        assert len(err.value.trace.residuals) >= 5
        assert err.value.trace.sweeps == len(err.value.trace.residuals)
        assert err.value.trace.nfev == 0 and err.value.trace.status is None


class TestConfig:
    def test_validation(self):
        G = Domain1D.interval(-1.0, 1.0)
        with pytest.raises(ValueError):
            SolverConfig(domain=G, grid_size=3)
        with pytest.raises(ValueError):
            SolverConfig(domain=G, grading_exponent=0.5)
        with pytest.raises(ValueError):
            SolverConfig(domain=G, damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(domain=G, scheme="magic")
        with pytest.raises(ValueError):
            SolverConfig(domain=G, stop_tol=0.0)

    def test_dimension_guard(self):
        cfg = SolverConfig(domain=Domain1D.interval(-1.0, 1.0))
        with pytest.raises(ValueError):
            picard_solve(cfg, Params(3, 1.0))

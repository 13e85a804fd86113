"""Problem 2: the convex current-setting subroutine."""

import numpy as np
import pytest

from repro.core.current import minimize_peak_temperature, polish_current
from tests.core.current_oracle import PeakObjective, gradient_descent, oracle_minimum


class TestGoldenSection:
    """The Problem 2 search on the small deployment.  The class keeps
    the name of the golden-section search it first covered; every
    property below belongs to the problem, not to a method."""

    @pytest.fixture(scope="class")
    def optimum(self, small_deployed):
        return minimize_peak_temperature(small_deployed, record_history=True)

    def test_interior_optimum(self, optimum):
        assert 0.0 < optimum.current < optimum.lambda_m

    def test_beats_endpoints(self, small_deployed, optimum):
        peak_zero = small_deployed.solve(0.0).peak_silicon_c
        assert optimum.peak_c <= peak_zero + 1e-9

    def test_first_order_optimality(self, small_deployed, optimum):
        """The optimum is a local (hence global, convex) minimum."""
        delta = 0.05
        left = small_deployed.solve(max(optimum.current - delta, 0.0)).peak_silicon_c
        right = small_deployed.solve(optimum.current + delta).peak_silicon_c
        assert optimum.peak_c <= left + 1e-6
        assert optimum.peak_c <= right + 1e-6

    def test_beats_dense_grid(self, small_deployed, optimum):
        grid = np.linspace(0.0, 0.9 * optimum.lambda_m, 120)
        best = min(small_deployed.solve(i).peak_silicon_c for i in grid)
        assert optimum.peak_c <= best + 0.02

    def test_history_recorded(self, optimum):
        assert len(optimum.history) == optimum.evaluations
        assert all(len(pair) == 2 for pair in optimum.history)

    def test_converged_flag(self, optimum):
        lo, hi = optimum.bracket
        assert optimum.converged
        assert hi - lo <= 1e-4
        assert lo <= optimum.current <= hi

    def test_evaluation_budget_reasonable(self, optimum):
        assert optimum.evaluations <= 8


class TestGradientDescent:
    """The paper's projected gradient descent, an independent oracle
    (``tests/core/current_oracle.py``)."""

    def test_agrees_with_golden(self, small_deployed):
        """The oracle and the search (once golden section) agree."""
        search = minimize_peak_temperature(small_deployed)
        _, peak, _ = oracle_minimum(small_deployed)
        assert search.peak_c == pytest.approx(peak, abs=0.05)
        assert search.peak_c <= peak + 1e-9


class TestEdgeCases:
    def test_no_tec_model_trivial(self, small_model):
        result = minimize_peak_temperature(small_model)
        assert result.current == 0.0
        assert np.isinf(result.lambda_m)
        assert result.converged

    def test_unknown_method(self, small_deployed):
        with pytest.raises(TypeError, match="method"):
            minimize_peak_temperature(small_deployed, method="simplex")

    @pytest.mark.parametrize("method", ["golden", "newton", "gradient", "brent"])
    def test_removed_methods_fail_loudly(self, small_deployed, method):
        with pytest.raises(TypeError, match="method"):
            minimize_peak_temperature(small_deployed, method=method)

    def test_tolerance_validated(self, small_deployed):
        with pytest.raises(ValueError):
            minimize_peak_temperature(small_deployed, tolerance=0.0)

    def test_safety_fraction_validated(self, small_deployed):
        with pytest.raises(ValueError):
            minimize_peak_temperature(small_deployed, safety_fraction=1.0)

    def test_result_peak_matches_model(self, small_deployed):
        result = minimize_peak_temperature(small_deployed)
        assert small_deployed.solve(result.current).peak_silicon_c == pytest.approx(
            result.peak_c
        )

    def test_budget_caps_evaluations(self, small_deployed):
        result = minimize_peak_temperature(
            small_deployed, tolerance=1e-12, max_iterations=2)
        assert result.evaluations == 2
        assert not result.converged


def _convex_tiles(a, b, c, e, lam=10.0):
    """A probe over synthetic convex tiles
    ``theta_k(i) = a_k + b_k i + c_k i^2 + e_k / (lam - i)``."""
    a, b, c, e = (np.asarray(x, dtype=float) for x in (a, b, c, e))

    def probe(current):
        pole = lam - current
        return np.column_stack([
            a + b * current + c * current ** 2 + e / pole,
            b + 2.0 * c * current + e / pole ** 2,
            2.0 * c + 2.0 * e / pole ** 3,
        ])

    return probe


class TestTangentCutSearch:
    """The search on synthetic convex tiles (values in kelvin)."""

    @staticmethod
    def _search(probe, start=0.0, upper=9.8, tolerance=1e-4):
        from repro.core.current import _tangent_cut_search

        return _tangent_cut_search(probe, start, upper, tolerance, 200)

    @staticmethod
    def _grid_min(probe, upper=9.8):
        grid = np.linspace(0.0, upper, 98001)
        peaks = np.array([probe(i)[:, 0].max() for i in grid])
        return grid[int(np.argmin(peaks))], peaks.min()

    def test_minimum_at_zero_when_every_tile_heats(self):
        probe = _convex_tiles([350.0, 340.0], [1.0, 2.0], [0.1, 0.1], [0, 0])
        current, _, bracket, evaluations, converged = self._search(probe)
        assert current == 0.0 and bracket == (0.0, 0.0)
        assert evaluations == 1 and converged

    def test_minimum_at_the_cap_when_every_tile_cools(self):
        probe = _convex_tiles([350.0, 340.0], [-5.0, -4.0], [0.01, 0.01], [0, 0])
        current, _, (lo, hi), _, converged = self._search(probe)
        assert converged and hi == 9.8
        assert current == pytest.approx(9.8, abs=1e-4)

    def test_kink_between_a_cooling_and_a_heating_tile(self):
        # A covered tile cools, a neighbour heats: the optimum is
        # where they cross, not at either tile's own minimum.
        probe = _convex_tiles([360.0, 350.0], [-3.0, 0.5], [0.05, 0.2],
                              [0.0, 1.0])
        current, peak_c, (lo, hi), evaluations, converged = self._search(probe)
        argmin, best = self._grid_min(probe)
        assert converged and hi - lo <= 1e-4
        assert lo - 1e-4 <= argmin <= hi + 1e-4
        assert peak_c + 273.15 <= best + 1e-9
        assert evaluations <= 8

    @pytest.mark.parametrize("seed", range(5))
    def test_random_convex_tiles_match_a_dense_grid(self, seed):
        rng = np.random.default_rng(seed)
        tiles = 12
        probe = _convex_tiles(
            rng.uniform(340.0, 360.0, tiles), rng.uniform(-4.0, 2.0, tiles),
            rng.uniform(0.0, 0.5, tiles), rng.uniform(0.0, 5.0, tiles),
        )
        start = rng.uniform(0.0, 9.8)
        current, peak_c, (lo, hi), evaluations, converged = self._search(
            probe, start=start)
        argmin, best = self._grid_min(probe)
        assert converged and hi - lo <= 1e-4
        assert lo - 1e-4 <= argmin <= hi + 1e-4
        assert peak_c + 273.15 <= best + 1e-9
        assert evaluations <= 8


class TestGradientExactness:
    def test_analytic_gradient_matches_finite_difference(self, small_deployed):
        objective = PeakObjective(small_deployed)
        current = 3.0
        grad, _ = objective.gradient(current)
        h = 1e-5
        fd = (objective(current + h) - objective(current - h)) / (2.0 * h)
        assert grad == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_search_slope_matches_the_oracle_gradient(self, small_deployed):
        """The search's per-tile slope at the hottest tile is the
        oracle's ``H (D theta + 2 i j)`` component."""
        current = 3.0
        grad, state = PeakObjective(small_deployed).gradient(current)
        block = small_deployed.solver.solve_derivatives(current)
        node = small_deployed.silicon_nodes[state.peak_tile]
        assert block[node, 1] == pytest.approx(grad, rel=1e-12)


class TestConvergedFlag:
    def test_gradient_converged_on_real_model(self, small_deployed):
        assert oracle_minimum(small_deployed)[2]

    def test_search_converged_on_real_model(self, small_deployed):
        result = minimize_peak_temperature(small_deployed)
        assert result.converged

    def test_line_search_exhaustion_far_from_optimum_not_converged(self):
        """A misleading gradient must not be reported as convergence.

        The objective decreases monotonically (f(i) = i going down as i
        shrinks... here f(i) = i with claimed gradient -1), so Armijo
        backtracking in the claimed descent direction (+1) always fails
        while the true improvement lies the other way.
        """

        class Misleading:
            def __call__(self, current):
                return float(current)

            def gradient(self, current):
                return -1.0, None  # claims descent towards larger i

        current, value, converged = gradient_descent(
            Misleading(), upper=10.0, tolerance=1e-4, max_iterations=50
        )
        assert not converged

    def test_boundary_minimum_still_converged(self):
        """Exhaustion at a genuine (projected) stationary point stays
        converged: the minimum of f(i) = (i - 20)^2 on [0, 10] is the
        boundary i = 10; no tolerance-sized move improves."""

        class Boundary:
            def __call__(self, current):
                return (float(current) - 20.0) ** 2

            def gradient(self, current):
                return 2.0 * (float(current) - 20.0), None

        current, value, converged = gradient_descent(
            Boundary(), upper=10.0, tolerance=1e-4, max_iterations=200
        )
        assert current == pytest.approx(10.0, abs=1e-3)
        assert converged


class TestAttachedStats:
    def test_stats_delta_attached(self, small_grid, small_power):
        from repro.core.problem import CoolingSystemProblem

        problem = CoolingSystemProblem(small_grid, small_power, name="stats")
        model = problem.model((5, 6, 9, 10))
        result = minimize_peak_temperature(model)
        assert result.stats is not None
        assert result.stats.solves == result.evaluations
        assert result.stats.solves > 0

    @pytest.mark.parametrize("mode", ["reuse", "direct"])
    def test_lifts_counted(self, small_grid, small_power, mode):
        """Every probe is one derivative solve of three columns."""
        from repro.core.problem import CoolingSystemProblem

        problem = CoolingSystemProblem(
            small_grid, small_power, name="lifts", solver_mode=mode)
        model = problem.model((5, 6, 9, 10))
        model.runaway_current()
        model.solver.solve(0.0)
        result = minimize_peak_temperature(model)
        assert result.stats.solves == result.evaluations
        assert result.stats.rhs_columns == 3 * result.evaluations

    def test_trivial_model_stats(self, small_grid, small_power):
        from repro.thermal.model import PackageThermalModel

        model = PackageThermalModel(small_grid, small_power)
        result = minimize_peak_temperature(model)
        assert result.stats is not None
        assert result.stats.solves == 1


class TestNewtonMethod:
    """Warm starts: ``bounds`` place the first probe of the search,
    whose steps are Newton steps on the tiles' quadratic models."""

    @pytest.fixture(scope="class")
    def golden(self, small_deployed):
        """The cold search at a tight tolerance."""
        return minimize_peak_temperature(small_deployed, tolerance=1e-6)

    def test_agrees_with_golden(self, small_deployed, golden):
        """A warm start and the cold search agree."""
        warm = minimize_peak_temperature(
            small_deployed, tolerance=1e-6,
            bounds=(0.5 * golden.current, 1.5 * golden.current))
        assert warm.converged
        assert warm.warm_started and not golden.warm_started
        assert warm.current == pytest.approx(golden.current, abs=1e-5)
        assert warm.peak_c == pytest.approx(golden.peak_c, abs=1e-9)

    def test_warm_bounds_cut_evaluations(self, small_deployed, golden):
        half = 0.25 * golden.current
        warm = minimize_peak_temperature(
            small_deployed, tolerance=1e-6,
            lambda_m=golden.lambda_m,
            bounds=(golden.current - half, golden.current + half))
        assert warm.current == pytest.approx(golden.current, abs=1e-5)
        assert warm.evaluations <= golden.evaluations

    def test_drifted_bounds_still_converge(self, small_deployed, golden):
        # The warm guess is far from the minimizer: the certified
        # bracket still starts from the whole capped interval.
        off = minimize_peak_temperature(
            small_deployed, tolerance=1e-6,
            bounds=(2.0 * golden.current, 2.5 * golden.current))
        assert off.current == pytest.approx(golden.current, abs=1e-4)

    def test_bounds_set_only_the_first_probe(self, small_deployed, golden):
        warm = minimize_peak_temperature(
            small_deployed, tolerance=1e-6, record_history=True,
            bounds=(1.0, 3.0))
        assert warm.history[0][0] == 2.0
        lo, hi = warm.bracket
        assert lo <= golden.current <= hi or hi - lo <= 1e-6


class TestPolishCurrent:
    """The deterministic fixed-point refinement of a raw argmin.  The
    raw argmin is the gradient-descent oracle's: the search's own lands
    within the solver-noise plateau, where no refinement can improve."""

    @pytest.fixture(scope="class")
    def setting(self, small_deployed):
        current, _, _ = oracle_minimum(small_deployed)
        upper = 0.98 * small_deployed.runaway_current().value
        return small_deployed, current, upper

    def test_never_worse_than_input(self, setting):
        model, current, upper = setting
        polished, evaluations = polish_current(model, current, upper=upper)
        assert evaluations > 0
        raw_peak = model.solve(current).peak_silicon_c
        polished_peak = model.solve(polished).peak_silicon_c
        assert polished_peak <= raw_peak + 1e-12

    def test_fixed_point_is_start_independent(self, setting):
        # Raw argmins scattered across the solver-noise plateau
        # (~1e-5 wide here) must polish to one fixed point — this is
        # what lets the two engines' optima be compared at 1e-6 A.
        model, current, upper = setting
        a, _ = polish_current(model, current + 1e-5, upper=upper)
        b, _ = polish_current(model, current - 1e-5, upper=upper)
        assert a == pytest.approx(b, abs=1e-7)

    def test_idempotent(self, setting):
        model, current, upper = setting
        once, _ = polish_current(model, current, upper=upper)
        twice, _ = polish_current(model, once, upper=upper)
        assert twice == pytest.approx(once, abs=1e-6)

    def test_far_start_returns_input_unchanged(self, setting):
        # The 2h vertex guard: a start far outside the fit window is
        # not dragged anywhere — the input comes back untouched (the
        # caller's search result stands).
        model, current, upper = setting
        start = current * 1.2
        polished, evaluations = polish_current(model, start, upper=upper)
        assert polished == start
        assert evaluations == 3

    def test_upper_below_minimizer_returns_input(self, setting):
        model, current, _ = setting
        polished, _ = polish_current(model, current, upper=current * 0.5)
        assert polished == current

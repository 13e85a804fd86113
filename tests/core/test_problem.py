"""Problem 1 definition and model factory."""

import numpy as np
import pytest

from repro.core.problem import CoolingSystemProblem
from repro.power.alpha import alpha_floorplan


class TestConstruction:
    def test_validation(self, small_grid):
        with pytest.raises(ValueError, match="length"):
            CoolingSystemProblem(small_grid, np.zeros(3))
        with pytest.raises(ValueError, match="non-negative"):
            CoolingSystemProblem(small_grid, np.full(16, -1.0))

    def test_limit_above_ambient_enforced(self, small_grid, small_power):
        with pytest.raises(ValueError, match="ambient"):
            CoolingSystemProblem(small_grid, small_power, max_temperature_c=40.0)

    def test_from_floorplan(self):
        problem = CoolingSystemProblem.from_floorplan(alpha_floorplan(), name="a")
        assert problem.grid.num_tiles == 144
        assert float(np.sum(problem.power_map)) == pytest.approx(20.6)

    def test_from_floorplan_type_check(self, small_power):
        with pytest.raises(TypeError):
            CoolingSystemProblem.from_floorplan(small_power)

    def test_repr_mentions_name_and_limit(self, small_problem):
        text = repr(small_problem)
        assert "small" in text and "limit" in text


class TestModelFactory:
    def test_model_cached_per_deployment(self, small_problem):
        a = small_problem.model((1, 2))
        b = small_problem.model([2, 1, 2])
        assert a is b  # order/duplicates normalize to the same key

    def test_distinct_deployments_distinct_models(self, small_problem):
        assert small_problem.model(()) is not small_problem.model((0,))

    def test_model_carries_configuration(self, small_problem):
        model = small_problem.model((3,))
        assert model.tec_tiles == (3,)
        assert model.stack is small_problem.stack
        assert model.device is small_problem.device


class TestTilesAboveLimit:
    def test_consistent_with_state(self, small_problem):
        state = small_problem.model(()).solve(0.0)
        offenders = small_problem.tiles_above_limit(state)
        expected = set(
            np.nonzero(state.silicon_c > small_problem.max_temperature_c)[0].tolist()
        )
        assert offenders == expected
        assert offenders  # fixture limit sits below the bare peak

    def test_empty_when_limit_high(self, small_problem):
        relaxed = small_problem.with_limit(300.0)
        state = relaxed.model(()).solve(0.0)
        assert relaxed.tiles_above_limit(state) == set()


class TestWithLimit:
    def test_copies_limit_only(self, small_problem):
        relaxed = small_problem.with_limit(90.0)
        assert relaxed.max_temperature_c == 90.0
        assert relaxed.grid is small_problem.grid
        assert relaxed.name == small_problem.name
        assert small_problem.max_temperature_c != 90.0


class TestSolverBackendSelection:
    def test_ctor_validates_solver_mode(self, small_grid, small_power):
        with pytest.raises(ValueError, match="solver_mode"):
            CoolingSystemProblem(small_grid, small_power, solver_mode="jacobi")

    @pytest.mark.parametrize("mode", ["direct", "reuse", "mg", "auto"])
    def test_ctor_accepts_every_backend(self, small_grid, small_power, mode):
        problem = CoolingSystemProblem(small_grid, small_power, solver_mode=mode)
        assert problem.solver_mode == mode
        assert problem.model(()).solver.mode == mode

    def test_from_floorplan_forwards_solver_mode(self):
        problem = CoolingSystemProblem.from_floorplan(
            alpha_floorplan(), solver_mode="direct"
        )
        assert problem.solver_mode == "direct"

    def test_with_solver_mode_copies_configuration(self, small_problem):
        small_problem.model((1,))  # record the blueprint
        sibling = small_problem.with_solver_mode("mg")
        assert sibling.solver_mode == "mg"
        assert sibling.max_temperature_c == small_problem.max_temperature_c
        assert sibling.grid is small_problem.grid
        assert sibling._blueprint is small_problem._blueprint
        assert small_problem.solver_mode == "reuse"  # original untouched

    def test_backends_solve_to_same_peak(self, small_problem):
        reference = small_problem.model((1, 2)).solve(0.3).peak_silicon_c
        for mode in ("direct", "mg", "auto"):
            sibling = small_problem.with_solver_mode(mode)
            peak = sibling.model((1, 2)).solve(0.3).peak_silicon_c
            assert peak == pytest.approx(reference, abs=1e-6)

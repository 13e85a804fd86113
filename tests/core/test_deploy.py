"""GreedyDeploy (Figure 5) semantics."""

import pytest

from repro.core.deploy import greedy_deploy


class TestFeasibleInstance:
    @pytest.fixture(scope="class")
    def result(self, small_problem):
        return greedy_deploy(small_problem)

    def test_feasible(self, result, small_problem):
        assert result.feasible
        assert result.peak_c <= small_problem.max_temperature_c + 1e-9

    def test_deployment_covers_initial_offenders(self, result, small_problem):
        bare = small_problem.model(()).solve(0.0)
        offenders = small_problem.tiles_above_limit(bare)
        assert offenders <= set(result.tec_tiles)

    def test_iterations_recorded(self, result):
        assert result.iterations
        first = result.iterations[0]
        assert first.index == 0
        assert first.deployment_size == len(first.added_tiles)

    def test_deployment_grows_monotonically(self, result):
        sizes = [it.deployment_size for it in result.iterations]
        assert sizes == sorted(sizes)

    def test_final_model_matches_tiles(self, result):
        assert result.model.tec_tiles == result.tec_tiles

    def test_tec_power_consistent(self, result):
        state = result.model.solve(result.current)
        assert result.tec_power_w == pytest.approx(state.tec_input_power_w())

    def test_cooling_swing(self, result):
        assert result.cooling_swing_c == pytest.approx(
            result.no_tec_peak_c - result.peak_c
        )
        assert result.cooling_swing_c > 0.0

    def test_runtime_positive(self, result):
        assert result.runtime_s > 0.0


class TestTrivialInstance:
    def test_no_offenders_no_tecs(self, small_problem):
        relaxed = small_problem.with_limit(200.0)
        result = greedy_deploy(relaxed)
        assert result.feasible
        assert result.tec_tiles == ()
        assert result.current == 0.0
        assert result.num_tecs == 0
        assert result.iterations == []


class TestInfeasibleInstance:
    def test_returns_false_when_limit_unreachable(self, small_problem):
        # Slightly above ambient: no TEC deployment can get there.
        ambient = small_problem.stack.ambient_c
        impossible = small_problem.with_limit(ambient + 0.5)
        result = greedy_deploy(impossible)
        assert not result.feasible
        assert result.peak_c > impossible.max_temperature_c
        # Figure 5 line 13: every offender was already covered.
        final_offenders = set(result.iterations[-1].offending_tiles)
        assert final_offenders <= set(result.tec_tiles)

    def test_infeasible_result_still_reports_current(self, small_problem):
        ambient = small_problem.stack.ambient_c
        result = greedy_deploy(small_problem.with_limit(ambient + 0.5))
        assert result.current >= 0.0
        assert result.num_tecs > 0


class TestAlphaBenchmark:
    """GreedyDeploy on the paper's Alpha instance (Table I row 1)."""

    def test_feasible_at_85(self, alpha_greedy):
        assert alpha_greedy.feasible
        assert alpha_greedy.peak_c <= 85.0

    def test_no_tec_peak_91_8(self, alpha_greedy):
        assert alpha_greedy.no_tec_peak_c == pytest.approx(91.8, abs=0.05)

    def test_tec_count_in_paper_range(self, alpha_greedy):
        assert 10 <= alpha_greedy.num_tecs <= 20  # paper: 16

    def test_current_in_paper_range(self, alpha_greedy):
        assert 4.0 <= alpha_greedy.current <= 8.0  # paper: 6.10 A

    def test_tec_power_order(self, alpha_greedy):
        assert 0.5 <= alpha_greedy.tec_power_w <= 2.5  # paper: 1.31 W

    def test_covers_high_density_units(self, alpha_greedy, alpha_problem):
        """Figure 7(b): the deployment sits over/around IntReg/IntExec."""
        from repro.power.alpha import alpha_floorplan

        plan = alpha_floorplan()
        covered = set(alpha_greedy.tec_tiles)
        intreg = set(plan.unit("IntReg").tiles)
        assert intreg <= covered

    def test_l2_not_covered(self, alpha_greedy):
        from repro.power.alpha import alpha_floorplan

        l2 = set(alpha_floorplan().unit("L2").tiles)
        assert not (l2 & set(alpha_greedy.tec_tiles))

    def test_max_rounds_cap_respected(self, alpha_problem):
        result = greedy_deploy(alpha_problem, max_rounds=1)
        assert len(result.iterations) <= 1


class TestMaxRoundsZero:
    def test_zero_rounds_returns_infeasible(self, small_problem):
        """max_rounds=0 on a violating chip must not crash on the absent
        optimum; it reports the bare chip as infeasible."""
        result = greedy_deploy(small_problem, max_rounds=0)
        assert not result.feasible
        assert result.tec_tiles == ()
        assert result.current == 0.0
        assert result.peak_c == pytest.approx(result.no_tec_peak_c)
        assert result.iterations == []
        assert result.tec_power_w == 0.0

    def test_zero_rounds_trivial_instance_feasible(self, small_problem):
        result = greedy_deploy(small_problem.with_limit(200.0), max_rounds=0)
        assert result.feasible
        assert result.tec_tiles == ()

    def test_negative_rounds_rejected(self, small_problem):
        with pytest.raises(ValueError, match="max_rounds"):
            greedy_deploy(small_problem, max_rounds=-1)


class TestSolveEngineRegression:
    """The fused engine must not change what GreedyDeploy returns."""

    @pytest.fixture(scope="class")
    def engine_and_legacy(self, small_grid, small_power, small_problem):
        from repro.core.problem import CoolingSystemProblem

        limit = small_problem.max_temperature_c
        engine = CoolingSystemProblem(
            small_grid, small_power, max_temperature_c=limit, name="engine",
        )
        legacy = CoolingSystemProblem(
            small_grid, small_power, max_temperature_c=limit, name="legacy",
            solver_mode="direct", incremental_assembly=False,
        )
        return greedy_deploy(engine), greedy_deploy(legacy)

    def test_same_deployment(self, engine_and_legacy):
        engine, legacy = engine_and_legacy
        assert engine.tec_tiles == legacy.tec_tiles
        assert engine.feasible == legacy.feasible

    def test_same_current_and_peak(self, engine_and_legacy):
        engine, legacy = engine_and_legacy
        assert engine.current == pytest.approx(legacy.current, abs=1e-6)
        assert engine.peak_c == pytest.approx(legacy.peak_c, abs=1e-9)

    def test_engine_factorizes_less(self, engine_and_legacy):
        engine, legacy = engine_and_legacy
        assert engine.solver_stats.factorizations < legacy.solver_stats.factorizations

    def test_engine_replays_builds(self, engine_and_legacy):
        engine, legacy = engine_and_legacy
        assert engine.solver_stats.incremental_builds > 0
        assert legacy.solver_stats.incremental_builds == 0


class TestSolverStatsField:
    def test_stats_attached_and_serializable(self, small_problem):
        import json

        from repro.io.results import deployment_to_dict

        result = greedy_deploy(small_problem)
        assert result.solver_stats is not None
        assert result.solver_stats.solves > 0
        payload = deployment_to_dict(result)
        assert payload["solver_stats"]["solves"] == result.solver_stats.solves
        json.dumps(payload)  # must be JSON-representable

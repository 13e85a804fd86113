"""GreedyDeploy's warm round: differential semantics and stats.

:func:`~repro.core.deploy.greedy_deploy` runs a round warm only when
it is not the first and its Peltier support reaches
``repro.core.engine._DIRECT_MIN_SUPPORT``.  The oracle is the same loop
with that threshold patched to ``math.inf``, so every round runs cold.
Both must agree on the rounds, the tiles added each round, the
deployment and the feasibility verdict.  Optima are compared after
polishing both on a **common** model
(:func:`~repro.core.current.polish_current`): a warm round may run on
another solver backend, and backend round-off alone shifts the shallow
parabola vertex by ~1e-6 A, while on a shared model both argmins
collapse to the same fixed point to ~1e-13 A.
"""

import json
import math

import numpy as np
import pytest

from repro.core import engine
from repro.core.current import polish_current
from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.thermal.geometry import TileGrid
from repro.thermal.solve import SingularSystemError

_CURRENT_AGREEMENT_A = 1.0e-6
_PEAK_AGREEMENT_K = 1.0e-6


def _gaussian_problem(side=12, scale=0.2, percentile=60.0):
    """A centered-hotspot instance whose greedy run takes two rounds.

    The limit sits at a bare-temperature percentile, so round 0 covers
    the hot core and the re-optimized current uncovers a wider
    offender ring; the instance ends infeasible (offenders inside the
    deployment) — both loops must agree on that verdict too.  At
    ``side=12`` round 1 stays cold; at ``side=16`` its support crosses
    ``_DIRECT_MIN_SUPPORT`` and it runs warm.
    """
    grid = TileGrid(side, side)
    ys, xs = np.divmod(np.arange(side * side), side)
    center = (side - 1) / 2.0
    d2 = ((ys - center) ** 2 + (xs - center) ** 2) * (24.0 / side) ** 2
    shape = (
        0.05
        + 0.5 * np.exp(-d2 / (2.0 * 4.0**2))
        + 0.25 * np.exp(-d2 / (2.0 * 9.0**2))
    )
    power = shape * scale * (24.0 / side) ** 2
    problem = CoolingSystemProblem(
        grid, power, max_temperature_c=1000.0,
        name="engine-gauss-{0}x{0}".format(side),
    )
    bare = problem.model(()).solve(0.0)
    return problem.with_limit(float(np.percentile(bare.silicon_c, percentile)))


def _dense_problem():
    return _gaussian_problem(side=16)


def _random_problem(seed=2, side=10, percentile=70.0):
    """A randomized multi-blob floorplan (seeded, deterministic).

    The seed is chosen so the Problem 2 optimum is smooth (a single
    peak tile active around the minimizer).  Seeds whose optimum sits
    at a peak-tile crossover put a kink under the minimum; there the
    two loops still agree on the achieved peak to ~1e-8 K, but the
    parabola-fit polish is ill-posed and currents scatter at ~1e-4 A,
    which is a property of the objective, not a loop discrepancy.
    """
    rng = np.random.default_rng(seed)
    grid = TileGrid(side, side)
    ys, xs = np.divmod(np.arange(side * side), side)
    power = np.full(side * side, 0.02)
    for _ in range(4):
        cy, cx = rng.uniform(1, side - 2, size=2)
        width = rng.uniform(1.0, 2.5)
        d2 = (ys - cy) ** 2 + (xs - cx) ** 2
        power = power + rng.uniform(0.1, 0.4) * np.exp(-d2 / (2.0 * width**2))
    problem = CoolingSystemProblem(
        grid, power, max_temperature_c=1000.0, name="engine-rng",
    )
    bare = problem.model(()).solve(0.0)
    return problem.with_limit(float(np.percentile(bare.silicon_c, percentile)))


def _all_cold(problem, **kwargs):
    """The oracle: the same loop with every round cold."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_DIRECT_MIN_SUPPORT", math.inf)
        return greedy_deploy(problem, **kwargs)


def _race(factory, **kwargs):
    kwargs.setdefault("current_tolerance", 1.0e-6)
    cold = _all_cold(factory(), **kwargs)
    loop = greedy_deploy(factory(), **kwargs)
    return cold, loop


def _warm_rounds(result):
    return [
        r.index for r in result.deploy_stats.rounds
        if r.runaway_method.startswith("shift-invert")
    ]


def _assert_same_run(cold, loop):
    assert cold.feasible == loop.feasible
    assert len(cold.iterations) == len(loop.iterations)
    for a, b in zip(cold.iterations, loop.iterations):
        assert a.added_tiles == b.added_tiles
    assert cold.tec_tiles == loop.tec_tiles
    if cold.tec_tiles:
        upper = 0.98 * cold.current_result.lambda_m
        ref_cold, _ = polish_current(cold.model, cold.current, upper=upper)
        ref_loop, _ = polish_current(cold.model, loop.current, upper=upper)
        assert abs(ref_cold - ref_loop) <= _CURRENT_AGREEMENT_A
        peak_cold = cold.model.solve(ref_cold).peak_silicon_c
        peak_loop = cold.model.solve(ref_loop).peak_silicon_c
        assert abs(peak_cold - peak_loop) <= _PEAK_AGREEMENT_K


def _assert_bit_identical(cold, loop):
    assert cold.tec_tiles == loop.tec_tiles
    assert cold.feasible == loop.feasible
    assert cold.current == loop.current
    assert cold.peak_c == loop.peak_c
    assert cold.tec_power_w == loop.tec_power_w
    assert [
        (it.added_tiles, it.current, it.peak_c, it.offending_tiles)
        for it in cold.iterations
    ] == [
        (it.added_tiles, it.current, it.peak_c, it.offending_tiles)
        for it in loop.iterations
    ]


class TestDifferential:
    def test_alpha_round_for_round(self, alpha_problem):
        cold, loop = _race(lambda: alpha_problem.with_limit(
            alpha_problem.max_temperature_c))
        _assert_same_run(cold, loop)

    def test_two_round_gaussian(self):
        cold, loop = _race(_gaussian_problem)
        assert len(cold.iterations) == 2
        assert not cold.feasible
        _assert_same_run(cold, loop)

    def test_randomized_floorplan(self):
        cold, loop = _race(_random_problem)
        _assert_same_run(cold, loop)

    def test_direct_warm_round_on_larger_grid(self):
        """A warm round on the default ``reuse`` backend runs on
        ``direct`` — and still matches the all-cold loop."""
        cold, loop = _race(_dense_problem)
        assert _warm_rounds(loop) == [1]
        assert _warm_rounds(cold) == []
        assert loop.model.solver.effective_mode == "direct"
        _assert_same_run(cold, loop)

    def test_all_cold_run_is_bit_identical_and_unpolished(self):
        """Below the threshold every round is cold: the loop makes the
        oracle's calls, so its answers match bit for bit and nothing
        polishes the final optimum."""
        cold, loop = _race(_gaussian_problem)
        assert len(loop.iterations) == 2
        assert _warm_rounds(loop) == []
        _assert_bit_identical(cold, loop)
        assert loop.current == loop.iterations[-1].current
        assert loop.deploy_stats.polish_evaluations == 0

    def test_warm_round_keeps_the_mg_backend(self):
        """Only ``reuse`` swaps to ``direct`` in a warm round; every
        other backend solves the warm round itself."""

        def factory():
            problem = _dense_problem()
            problem.configure_solver(mode="mg")
            return problem

        cold, loop = _race(factory)
        assert _warm_rounds(loop) == [1]
        assert loop.model.solver.effective_mode == "mg"
        _assert_same_run(cold, loop)

    def test_forced_rescue_counts_the_exact_eigensolve(self, monkeypatch):
        """A warm search that goes singular reruns on the exact
        ``lambda_m``; that eigensolve is counted as a dense one."""
        search = engine.minimize_peak_temperature
        calls = []

        def singular_once(model, **kwargs):
            calls.append(kwargs.get("bounds"))
            if len(calls) == 1:
                raise SingularSystemError("forced")
            return search(model, **kwargs)

        cold = _all_cold(_dense_problem(), current_tolerance=1.0e-6)
        monkeypatch.setattr(engine, "minimize_peak_temperature", singular_once)
        loop = greedy_deploy(_dense_problem(), current_tolerance=1.0e-6)
        stats = loop.deploy_stats
        assert calls[0] is not None and calls[1] is None
        assert stats.runaway_rescues == 1
        assert stats.runaway_dense == 2
        assert stats.rounds[1].runaway_method == "shift-invert+rescue"
        assert not stats.rounds[1].current_warm
        _assert_same_run(cold, loop)


class TestMaxRoundsExhaustion:
    """The one loop and the all-cold oracle report an exhausted
    ``max_rounds`` cap the same way: infeasible, with the executed
    rounds fully populated and the round-0 optimum unpolished."""

    @pytest.mark.parametrize("loop", ["cold", "incremental"])
    def test_capped_run_reports_infeasible(self, loop):
        deploy = _all_cold if loop == "cold" else greedy_deploy
        result = deploy(_dense_problem(), max_rounds=1)
        assert not result.feasible
        assert len(result.iterations) == 1
        iteration = result.iterations[0]
        assert iteration.added_tiles
        assert iteration.deployment_size == len(result.tec_tiles)
        assert result.current > 0.0
        assert result.current == iteration.current
        assert result.deploy_stats is not None
        assert len(result.deploy_stats.rounds) == 1

    def test_cap_above_need_changes_nothing(self):
        capped = greedy_deploy(_dense_problem(), max_rounds=10,
                               current_tolerance=1.0e-6)
        free = greedy_deploy(_dense_problem(), current_tolerance=1.0e-6)
        assert capped.tec_tiles == free.tec_tiles
        assert capped.feasible == free.feasible


class TestEngineSelection:
    """There is one loop: the deploy-engine option is gone."""

    def test_unknown_engine_rejected(self, small_problem):
        with pytest.raises(TypeError, match="engine"):
            greedy_deploy(small_problem, engine="cold")

    def test_default_is_cold(self, small_problem):
        result = greedy_deploy(small_problem)
        stats = result.deploy_stats
        assert stats.rounds
        assert all(r.runaway_method == "eigen" for r in stats.rounds)
        assert not any(r.current_warm for r in stats.rounds)
        assert stats.runaway_warm == 0
        assert stats.polish_evaluations == 0
        assert not hasattr(stats, "engine")


class TestDeployStats:
    @pytest.fixture(scope="class")
    def stats(self):
        return greedy_deploy(
            _dense_problem(), current_tolerance=1.0e-6,
        ).deploy_stats

    def test_engine_label_and_rounds(self, stats):
        assert len(stats.rounds) == 2
        assert [r.index for r in stats.rounds] == [0, 1]
        assert [r.runaway_method for r in stats.rounds] == [
            "eigen", "shift-invert",
        ]

    def test_reuse_layers_fired(self, stats):
        # Round 0 is cold (exact runaway); round 1 is warm.
        assert stats.runaway_dense == 1
        assert stats.runaway_warm == 1
        assert stats.runaway_fallbacks == 0
        assert stats.current_warm_rounds == 1
        assert stats.polish_evaluations > 0
        warm = stats.rounds[1]
        assert warm.runaway_iterations > 0
        assert warm.current_warm
        assert warm.lambda_m > 0.0

    def test_timings_and_evaluations(self, stats):
        for r in stats.rounds:
            assert r.wall_s > 0.0
            assert r.evaluations > 0
        assert stats.total_wall_s == pytest.approx(
            sum(r.wall_s for r in stats.rounds))
        assert stats.total_evaluations == sum(
            r.evaluations for r in stats.rounds)

    def test_warm_round_cheaper(self, stats):
        cold_round, warm_round = stats.rounds
        assert warm_round.evaluations < cold_round.evaluations

    def test_as_dict_json_representable(self, stats):
        payload = stats.as_dict()
        text = json.dumps(payload)
        assert "shift-invert" in text
        assert payload["total_evaluations"] == stats.total_evaluations
        assert len(payload["rounds"]) == 2
        assert "engine" not in payload

    def test_summary_line(self, stats):
        line = stats.summary()
        assert line.startswith("2 rounds")
        assert "warm" in line and "polish" in line

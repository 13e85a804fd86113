"""Worker-side scenario execution.

Every function here runs inside a sweep worker — either the parent
process (serial backend) or a ``ProcessPoolExecutor`` child (process
backend).  The contract with the runner is narrow: :func:`execute`
takes ``(index, scenario)`` plain data and returns a
:class:`~repro.sweep.report.ScenarioResult` *or* a
:class:`~repro.sweep.report.ScenarioError` — it never raises, so one
bad scenario cannot abort a sweep or poison the pool.

Package geometries are cached per process: scenarios sharing a
:meth:`~repro.sweep.spec.Scenario.geometry_key` share one
:class:`~repro.core.problem.CoolingSystemProblem`, and through it one
recorded :class:`~repro.thermal.assembly.NetworkBlueprint`, so a
sweep over N deployments of one package records the layer physics
once per worker and instantiates every deployment from that array
recording.  Because blueprint replay is bit-identical to a fresh build
(see ``thermal/assembly.py``) and every solve is deterministic,
per-scenario results do not depend on which scenarios a worker
happened to run before — serial and process backends produce
bit-identical reports.
"""

from __future__ import annotations

import time
import traceback
from collections import OrderedDict

import numpy as np

from repro.sweep.report import ScenarioError, ScenarioResult

#: Per-process caches (worker lifetime).  Keyed so that results are
#: independent of cache warmth — see the module docstring.  The solver
#: backend is part of every problem/optimum key: two scenarios that
#: differ only in ``backend`` must never share a problem, or a warm
#: worker would answer one backend's scenario with the other's solver.
_GEOMETRY = {}   # geometry_key -> first CoolingSystemProblem built for it
_PROBLEMS = {}   # (geometry_key, limit_c, backend) -> CoolingSystemProblem
_OPTIMA = {}     # (geometry_key, limit_c, backend, tiles, tol)
                 #   -> (optimum, p_at_opt)


def clear_caches():
    """Drop the per-process caches (tests and memory-sensitive callers)."""
    _GEOMETRY.clear()
    _PROBLEMS.clear()
    _OPTIMA.clear()


def _limit_for(scenario):
    if scenario.limit_c is not None:
        return float(scenario.limit_c)
    if scenario.benchmark is not None:
        from repro.experiments.benchmarks import BENCHMARKS

        return float(BENCHMARKS[scenario.benchmark].limit_c)
    return 85.0


def _backend_for(scenario):
    """The solver backend a scenario runs under (problem default when
    the scenario leaves ``backend`` unset)."""
    return scenario.backend if scenario.backend is not None else "reuse"


def _build_problem(scenario, limit_c):
    from repro.core.problem import CoolingSystemProblem
    from repro.tec.materials import chowdhury_thin_film_tec

    device = chowdhury_thin_film_tec()
    if scenario.seebeck_factor != 1.0 or scenario.resistance_factor != 1.0:
        device = device.scaled(
            seebeck=device.seebeck * scenario.seebeck_factor,
            electrical_resistance=(
                device.electrical_resistance * scenario.resistance_factor
            ),
        )
    if scenario.chiplets is not None:
        from repro.thermal.chiplet import layout_from_plain

        layout = layout_from_plain(
            tuple(
                (rows, cols, row0, col0, power * scenario.power_scale)
                for rows, cols, row0, col0, power in scenario.chiplets
            )
        )
        return CoolingSystemProblem.from_chiplet_layout(
            layout,
            max_temperature_c=limit_c,
            device=device,
            name=scenario.name,
            solver_mode=_backend_for(scenario),
        )
    if scenario.benchmark is not None:
        from repro.experiments.benchmarks import BENCHMARKS

        floorplan = BENCHMARKS[scenario.benchmark].floorplan()
        grid = floorplan.grid
        power = floorplan.power_map() * scenario.power_scale
        name = scenario.benchmark
    else:
        from repro.thermal.geometry import TileGrid

        grid = TileGrid(scenario.rows, scenario.cols)
        power = np.array(scenario.power_map, dtype=float) * scenario.power_scale
        name = scenario.name
    return CoolingSystemProblem(
        grid,
        power,
        max_temperature_c=limit_c,
        device=device,
        name=name,
        solver_mode=_backend_for(scenario),
    )


def problem_for(scenario):
    """The (cached) problem instance of a scenario.

    Limit and backend siblings of one geometry share the recorded
    network blueprint via ``CoolingSystemProblem.with_limit`` /
    ``with_solver_mode``.
    """
    key = scenario.geometry_key()
    limit = _limit_for(scenario)
    backend = _backend_for(scenario)
    problem = _PROBLEMS.get((key, limit, backend))
    if problem is None:
        base = _GEOMETRY.get(key)
        if base is None:
            problem = _build_problem(scenario, limit)
            _GEOMETRY[key] = problem
        else:
            problem = base.with_limit(limit)
            if problem.solver_mode != backend:
                problem = problem.with_solver_mode(backend)
        _PROBLEMS[(key, limit, backend)] = problem
    return problem


def _optimum_for(scenario, model):
    """Cached Problem 2 optimum of a fixed deployment.

    Budget sweeps share one deployment across many ``pareto``
    scenarios; the optimum anchors every point and is deterministic,
    so recomputing it per scenario would only burn solves.
    """
    from repro.core.current import minimize_peak_temperature

    key = (
        scenario.geometry_key(),
        _limit_for(scenario),
        _backend_for(scenario),
        scenario.tec_tiles,
        scenario.current_tolerance,
    )
    cached = _OPTIMA.get(key)
    if cached is None:
        optimum = minimize_peak_temperature(
            model, tolerance=scenario.current_tolerance
        )
        p_at_opt = model.solve(optimum.current).tec_input_power_w()
        cached = (optimum, p_at_opt)
        _OPTIMA[key] = cached
    return cached


# ----------------------------------------------------------------------
# Task implementations — every return value is plain data.
# ----------------------------------------------------------------------

def _greedy_values(scenario, problem):
    from repro.core.deploy import greedy_deploy

    result = greedy_deploy(
        problem,
        current_tolerance=scenario.current_tolerance,
        max_rounds=scenario.max_rounds,
    )
    values = {
        "feasible": bool(result.feasible),
        "tec_tiles": [int(t) for t in result.tec_tiles],
        "num_tecs": int(result.num_tecs),
        "current_a": float(result.current),
        "peak_c": float(result.peak_c),
        "no_tec_peak_c": float(result.no_tec_peak_c),
        "tec_power_w": float(result.tec_power_w),
        "cooling_swing_c": float(result.cooling_swing_c),
        "rounds": len(result.iterations),
        "limit_c": float(problem.max_temperature_c),
        "total_power_w": float(np.sum(problem.power_map)),
    }
    if result.deploy_stats is not None:
        # ``values`` must be bit-reproducible across backends and cache
        # warmth (see the module docstring); per-round wall-clock splits
        # are execution metadata, so they stay out of the payload.
        values["round_stats"] = [
            {k: v for k, v in r.as_dict().items() if not k.endswith("_s")}
            for r in result.deploy_stats.rounds
        ]
    return result, values


def _task_greedy(scenario, problem):
    _, values = _greedy_values(scenario, problem)
    return values


def _task_table1(scenario, problem):
    from repro.core.baselines import full_cover

    greedy, values = _greedy_values(scenario, problem)
    baseline = full_cover(problem, current_tolerance=scenario.current_tolerance)
    values.update(
        {
            "fullcover_min_peak_c": float(baseline.min_peak_c),
            "fullcover_current_a": float(baseline.current),
            "fullcover_p_tec_w": float(baseline.tec_power_w),
            "fullcover_meets_limit": bool(baseline.meets_limit),
            "swing_loss_c": float(baseline.min_peak_c - greedy.peak_c),
        }
    )
    return values


def _task_optimize(scenario, problem):
    model = problem.model(scenario.tec_tiles)
    optimum, p_at_opt = _optimum_for(scenario, model)
    state = model.solve(optimum.current)
    return {
        "i_opt_a": float(optimum.current),
        "peak_c": float(state.peak_silicon_c),
        "p_tec_w": float(state.tec_input_power_w()),
        "lambda_m_a": float(optimum.lambda_m),
        "evaluations": int(optimum.evaluations),
        "num_tecs": len(scenario.tec_tiles),
        "seebeck": float(problem.device.seebeck),
        "resistance": float(problem.device.electrical_resistance),
        "p_tec_at_opt_w": float(p_at_opt),
    }


def _solve_values(state):
    """The ``solve`` task's wire payload for one operating point."""
    return {
        "current_a": float(state.current),
        "peak_c": float(state.peak_silicon_c),
        "peak_tile": int(state.peak_tile),
        "p_tec_w": float(state.tec_input_power_w()),
    }


def _task_solve(scenario, problem):
    model = problem.model(scenario.tec_tiles)
    return _solve_values(model.solve(scenario.current_a))


def solve_batch_rows(problem, scenarios):
    """``solve``-task rows of one batch over one warm problem.

    The kernel behind the serve tier's :class:`RequestBatcher`:
    scenarios are grouped by deployment, each group's currents are
    answered by one
    :meth:`~repro.thermal.session.SessionView.solve_batch` call (a
    plain per-current :meth:`~repro.thermal.session.SessionView.solve`
    loop on the deployment's model), and duplicate
    ``(tec_tiles, current_a)`` points fan out to every requester with
    ``coalesced: true``.  Row values are bit-identical to the serial
    :func:`execute` path; each row's ``solver_stats`` is the delta of
    the solve that produced its values.  A current at or beyond the
    runaway limit yields an ``{"error": SingularSystemError}`` row (and
    so do its duplicates) while the other rows are answered.
    Non-``solve`` tasks fall back to :func:`run_task` per scenario, so
    mixed batches stay correct.
    """
    from repro.thermal.model import ThermalState
    from repro.thermal.session import SingularSystemError

    rows = [None] * len(scenarios)
    answered = {}
    groups = OrderedDict()
    for position, scenario in enumerate(scenarios):
        if scenario.task != "solve":
            before = problem.solver_stats.copy()
            values = run_task(scenario, problem)
            rows[position] = {
                "values": values,
                "solver_stats": problem.solver_stats.diff(before).as_dict(),
                "coalesced": False,
            }
            continue
        point = (scenario.tec_tiles, scenario.current_a)
        if point in answered:
            rows[position] = {"point": point, "coalesced": True}
            continue
        answered[point] = None
        groups.setdefault(scenario.tec_tiles, []).append((position, scenario))
    for tiles, members in groups.items():
        build_before = problem.solver_stats.copy()
        model = problem.model(tiles)
        build = problem.solver_stats.diff(build_before).as_dict()
        answers = model.solver.solve_batch(
            [scenario.current_a for _, scenario in members]
        )
        for (position, scenario), (theta, delta) in zip(members, answers):
            if isinstance(theta, SingularSystemError):
                row = {"error": theta, "coalesced": False}
            else:
                # The first answered column pays the (shared) model
                # build, mirroring the serial path.
                for field, extra in (build or {}).items():
                    delta[field] += extra
                build = None
                state = ThermalState(model, scenario.current_a, theta)
                row = {
                    "values": _solve_values(state),
                    "solver_stats": delta,
                    "coalesced": False,
                }
            rows[position] = row
            answered[(scenario.tec_tiles, scenario.current_a)] = row
    for position, row in enumerate(rows):
        if row is not None and row.get("point") is not None:
            primary = answered[row["point"]]
            rows[position] = dict(primary, coalesced=True)
    return rows


def _task_pareto(scenario, problem):
    from repro.core.pareto import evaluate_budget

    model = problem.model(scenario.tec_tiles)
    optimum, p_at_opt = _optimum_for(scenario, model)
    point = evaluate_budget(
        model,
        scenario.budget_w,
        optimum,
        p_at_opt,
        tolerance=scenario.current_tolerance,
    )
    return {
        "budget_w": float(point.budget_w),
        "current_a": float(point.current_a),
        "peak_c": float(point.peak_c),
        "p_tec_w": float(point.p_tec_w),
        "budget_binding": bool(point.budget_binding),
        "i_opt_a": float(optimum.current),
        "min_peak_c": float(optimum.peak_c),
        "p_tec_at_opt_w": float(p_at_opt),
    }


#: Transient-task defaults when the scenario leaves them unset.
_TRANSIENT_DT_S = 1.0e-3
_TRANSIENT_STEPS = 200


def _task_transient(scenario, problem):
    from repro.thermal.transient import TransientSimulator

    model = problem.model(scenario.tec_tiles)
    dt = scenario.dt if scenario.dt is not None else _TRANSIENT_DT_S
    steps = scenario.steps if scenario.steps is not None else _TRANSIENT_STEPS
    simulator = TransientSimulator(
        model, current=scenario.current_a, dt=dt, initial_state="ambient",
        rom=scenario.rom if scenario.rom is not None else "auto",
        rom_dim=scenario.rom_dim, rom_tol=scenario.rom_tol,
    )
    trace = simulator.run(steps)
    steady_peak = float(model.solve(scenario.current_a).peak_silicon_c)
    values = {
        "current_a": float(scenario.current_a),
        "dt_s": float(dt),
        "steps": int(steps),
        "final_peak_c": float(trace[-1]),
        "max_peak_c": float(np.max(trace)),
        "steady_peak_c": steady_peak,
        "steady_gap_c": float(steady_peak - trace[-1]),
        "rom_active": bool(simulator.rom_active),
    }
    if simulator.rom_active:
        stats = simulator.rom_stats()
        values["rom_dim"] = int(stats["dim"])
        values["rom_certified_error_k"] = float(simulator.certified_error_k)
        values["rom_full_solve_columns"] = int(stats["full_solve_columns"])
    return values


def _task_multipin(scenario, problem):
    from repro.core.multipin import optimize_pin_groups

    model = problem.model(scenario.tec_tiles)
    result = optimize_pin_groups(model, num_groups=scenario.num_groups)
    return {
        "num_groups": len(result.groups),
        "group_currents_a": [float(c) for c in result.group_currents],
        "peak_c": float(result.peak_c),
        "shared_peak_c": float(result.shared_peak_c),
        "improvement_c": float(result.improvement_c),
        "sweeps": int(result.sweeps),
        "evaluations": int(result.evaluations),
    }


_TASK_IMPLS = {
    "greedy": _task_greedy,
    "table1": _task_table1,
    "optimize": _task_optimize,
    "solve": _task_solve,
    "pareto": _task_pareto,
    "transient": _task_transient,
    "multipin": _task_multipin,
}


def run_task(scenario, problem):
    """Run a scenario's task against an explicit problem instance.

    The serve layer's thread tier uses this to execute scenarios
    against *pooled* problems (warm sessions shared across requests)
    instead of the per-process caches above; the task implementations
    — and therefore the result payloads — are exactly the ones the
    sweep backends run, which is what makes served responses
    bit-identical to CLI/sweep results.  Raises on failure; callers
    that need the fault-tolerant contract wrap it like
    :func:`execute` does.
    """
    return _TASK_IMPLS[scenario.task](scenario, problem)


def run_scenario(index, scenario):
    """Execute one scenario; raises on failure (see :func:`execute`)."""
    impl = _TASK_IMPLS[scenario.task]
    start = time.perf_counter()
    problem = problem_for(scenario)
    stats_before = problem.solver_stats.copy()
    values = impl(scenario, problem)
    return ScenarioResult(
        index=int(index),
        name=scenario.name,
        task=scenario.task,
        values=values,
        elapsed_s=time.perf_counter() - start,
        solver_stats=problem.solver_stats.diff(stats_before).as_dict(),
    )


def execute(index, scenario):
    """Fault-tolerant entry point used by the runner backends.

    Returns a :class:`ScenarioResult` on success or a
    :class:`ScenarioError` capturing the exception — never raises.
    """
    try:
        return run_scenario(index, scenario)
    except Exception as error:  # noqa: BLE001 — captured by design
        return ScenarioError(
            index=int(index),
            name=scenario.name,
            task=scenario.task,
            error_type=type(error).__name__,
            message=str(error),
            traceback=traceback.format_exc(),
        )

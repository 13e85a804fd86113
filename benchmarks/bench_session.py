"""Solve-session acceptance benchmark: control-loop + nonlinear workloads.

Exercises the two consumers that the unified
:class:`~repro.thermal.session.SolveSession` core was built for and
checks the acceptance criteria of the solve-session PR:

* **Control-loop trace** — a PI controller sweeping through many
  quantized current levels is run twice on identical problems, once
  under the ``direct`` backend (one sparse LU per distinct level) and
  once under ``reuse`` (one shifted support-last base LU and one
  condensed pencil for every level).  The traces must agree to 1e-9 K with identical commanded
  currents, and ``SolverStats`` must show the reuse run needing at
  least 3x fewer sparse factorizations.  A
  :class:`~repro.thermal.transient.TransientSimulator` then runs over
  the *same* model at the same ``dt`` and must add **zero** new sparse
  factorizations — it shares the loop's ``C / dt`` session view.

* **Nonlinear iteration** — :class:`~repro.thermal.nonlinear
  .NonlinearSteadyState` converges the temperature-dependent die
  conductivity by blueprint replay; a manual loop rebuilds the model
  from scratch each iteration with the identical damped fixed-point
  updates.  The converged fields must be bit-identical, and the replay
  path must report zero ``full_builds`` with exactly one
  ``incremental_builds`` per iteration.

The measurements are written to ``BENCH_session.json`` at the repo
root (schema: :func:`repro.io.results.bench_report_to_json`) so the
perf trajectory is machine-readable across commits.

The workload list honours the ``BENCH_SESSION_WORKLOADS`` environment
variable (comma-separated subset of ``control,nonlinear``) so CI can
run either half alone.

Run:  pytest benchmarks/bench_session.py -s
      python benchmarks/bench_session.py
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.control.controllers import PiController
from repro.control.loop import ClosedLoopSimulator
from repro.control.sensors import SensorArray
from repro.experiments.benchmarks import load_benchmark
from repro.io.results import bench_report_to_json
from repro.thermal.model import PackageThermalModel
from repro.thermal.nonlinear import NonlinearSteadyState, silicon_conductivity_scale
from repro.thermal.transient import TransientSimulator

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_WORKLOADS = "control,nonlinear"

#: Central hotspot deployment on the alpha floorplan for the nonlinear
#: workload — fixed so that half never pays a GreedyDeploy run.
_TILES = (27, 28, 35, 36)

#: Control-loop shape: the loop runs the alpha *greedy* deployment
#: (its achievable-temperature window is wide enough for a setpoint to
#: be meaningful) from the zero-current steady state, so the PI
#: controller immediately sees a hot package and sweeps the command
#: down through tens of distinct quantized levels as it converges on
#: the setpoint — the many-factorization regime the session exists
#: for.
_LOOP_STEPS = 240
_LOOP_DT_S = 0.01
_LOOP_CONTROL_PERIOD_S = 0.02
_LOOP_QUANTUM_A = 0.01
_LOOP_SETPOINT_C = 85.0

#: Acceptance criteria.
_TRACE_AGREEMENT_K = 1.0e-9
_FACTORIZATION_RATIO = 3.0

_NONLINEAR_CURRENT_A = 1.0


def _workloads():
    text = os.environ.get("BENCH_SESSION_WORKLOADS", _DEFAULT_WORKLOADS)
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("BENCH_SESSION_WORKLOADS selected no workloads")
    unknown = [item for item in items if item not in ("control", "nonlinear")]
    if unknown:
        raise ValueError("unknown BENCH_SESSION_WORKLOADS items: {}".format(unknown))
    return items


_GREEDY_TILES = None


def _greedy_tiles():
    """The alpha greedy deployment, computed once per process."""
    global _GREEDY_TILES
    if _GREEDY_TILES is None:
        from repro.core.deploy import greedy_deploy

        _GREEDY_TILES = tuple(greedy_deploy(load_benchmark("alpha")).tec_tiles)
    return _GREEDY_TILES


def _run_loop(backend, tiles):
    """One closed-loop trace under one solver backend.

    A fresh problem per call so the two backends never share solver
    caches or stats.
    """
    problem = load_benchmark("alpha").with_solver_mode(backend)
    model = problem.model(tiles)
    controller = PiController(_LOOP_SETPOINT_C, kp=1.0, ki=0.5, i_max=8.0)
    sensors = SensorArray(tiles, noise_std_c=0.0, quantization_c=0.0, seed=0)
    simulator = ClosedLoopSimulator(
        model,
        controller,
        sensors,
        dt=_LOOP_DT_S,
        control_period=_LOOP_CONTROL_PERIOD_S,
        current_quantum=_LOOP_QUANTUM_A,
        lu_cache_size=64,
    )
    start = time.perf_counter()
    result = simulator.run(_LOOP_STEPS, initial_state="steady")
    wall = time.perf_counter() - start
    return problem, model, result, wall


def _measure_control():
    tiles = _greedy_tiles()
    problem_direct, _, direct, wall_direct = _run_loop("direct", tiles)
    problem_reuse, model_reuse, reuse, wall_reuse = _run_loop("reuse", tiles)

    trace_diff = float(np.max(np.abs(direct.true_peak_c - reuse.true_peak_c)))
    same_currents = bool(np.array_equal(direct.current_a, reuse.current_a))
    splu_direct = int(direct.solver_stats["factorizations"])
    splu_reuse = int(reuse.solver_stats["factorizations"])

    # A transient over the same model at the same dt shares the loop's
    # C/dt view — it must not trigger a single new sparse LU.
    stats_before = problem_reuse.solver_stats.copy()
    simulator = TransientSimulator(model_reuse, current=0.0, dt=_LOOP_DT_S)
    simulator.run(20)
    shared_delta = problem_reuse.solver_stats.diff(stats_before)

    return {
        "workload": "control",
        "steps": _LOOP_STEPS,
        "dt_s": _LOOP_DT_S,
        "current_levels": int(direct.factorizations),
        "wall_direct_s": wall_direct,
        "wall_reuse_s": wall_reuse,
        "max_trace_diff_k": trace_diff,
        "same_currents": same_currents,
        "splu_direct": splu_direct,
        "splu_reuse": splu_reuse,
        "splu_ratio": splu_direct / max(splu_reuse, 1),
        "shared_view_new_splu": int(shared_delta.factorizations),
        "stats_direct": direct.solver_stats,
        "stats_reuse": reuse.solver_stats,
    }


def _manual_nonlinear(problem, current, *, max_iterations=25, tolerance_k=1.0e-6):
    """The nonlinear fixed point with a from-scratch rebuild per step.

    Mirrors :meth:`NonlinearSteadyState.solve` (undamped, default
    exponent) but constructs each iterate's model without a blueprint —
    the baseline the replay path must match bit-for-bit.
    """
    base = PackageThermalModel(
        problem.grid,
        problem.power_map,
        stack=problem.stack,
        tec_tiles=_TILES,
        device=problem.device,
        solver_mode=problem.solver_mode,
    )
    state = base.solve(current)
    scale = np.ones(problem.grid.num_tiles)
    silicon_k = state.silicon_k
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        scale = silicon_conductivity_scale(silicon_k)
        model = PackageThermalModel(
            problem.grid,
            problem.power_map,
            stack=problem.stack,
            tec_tiles=_TILES,
            device=problem.device,
            die_conductivity_scale=scale,
            solver_mode=problem.solver_mode,
        )
        state = model.solve(current)
        change = float(np.max(np.abs(state.silicon_k - silicon_k)))
        silicon_k = state.silicon_k
        if change < tolerance_k:
            break
    return state, iterations


def _measure_nonlinear():
    problem = load_benchmark("alpha")
    model = problem.model(_TILES)
    model.ensure_blueprint()  # recording cost stays out of the deltas

    stats_before = problem.solver_stats.copy()
    start = time.perf_counter()
    replay = NonlinearSteadyState(model).solve(_NONLINEAR_CURRENT_A)
    wall_replay = time.perf_counter() - start
    delta = problem.solver_stats.diff(stats_before)

    start = time.perf_counter()
    rebuilt_state, rebuilt_iterations = _manual_nonlinear(
        problem, _NONLINEAR_CURRENT_A
    )
    wall_rebuild = time.perf_counter() - start

    return {
        "workload": "nonlinear",
        "current_a": _NONLINEAR_CURRENT_A,
        "iterations": int(replay.iterations),
        "converged": bool(replay.converged),
        "peak_shift_c": float(replay.peak_shift_c),
        "wall_replay_s": wall_replay,
        "wall_rebuild_s": wall_rebuild,
        "bitwise_identical": bool(
            np.array_equal(replay.state.theta_k, rebuilt_state.theta_k)
        ),
        "same_iterations": bool(replay.iterations == rebuilt_iterations),
        "full_builds_replay": int(delta.full_builds),
        "incremental_builds_replay": int(delta.incremental_builds),
        "stats_replay": delta.as_dict(),
    }


_MEASURES = {"control": _measure_control, "nonlinear": _measure_nonlinear}


def run_workload(workloads=None):
    """Run the selected workloads; returns ``(entries, metadata)``."""
    entries = [
        _MEASURES[workload]()
        for workload in (workloads if workloads is not None else _workloads())
    ]
    metadata = {
        "workload": "solve-session control-loop + nonlinear acceptance",
        "tiles": list(_TILES),
        "trace_agreement_k": _TRACE_AGREEMENT_K,
        "factorization_ratio": _FACTORIZATION_RATIO,
        "cpu_count": os.cpu_count(),
    }
    return entries, metadata


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    return run_workload()


def _entry(workload, name):
    for entry in workload[0]:
        if entry["workload"] == name:
            return entry
    pytest.skip("{} not in BENCH_SESSION_WORKLOADS subset".format(name))


def test_control_loop_backends_agree(workload):
    entry = _entry(workload, "control")
    assert entry["same_currents"]
    assert entry["max_trace_diff_k"] <= _TRACE_AGREEMENT_K, entry["max_trace_diff_k"]


def test_control_loop_fewer_factorizations(workload):
    entry = _entry(workload, "control")
    print()
    print(
        "control: {} levels, splu direct {} vs reuse {} ({:.1f}x), "
        "trace diff {:.2e} K".format(
            entry["current_levels"], entry["splu_direct"], entry["splu_reuse"],
            entry["splu_ratio"], entry["max_trace_diff_k"],
        )
    )
    assert entry["current_levels"] >= 3  # the PI actually swept levels
    assert entry["splu_ratio"] >= _FACTORIZATION_RATIO, entry["splu_ratio"]


def test_transient_shares_loop_view(workload):
    entry = _entry(workload, "control")
    assert entry["shared_view_new_splu"] == 0


def test_nonlinear_replay_matches_rebuild(workload):
    entry = _entry(workload, "nonlinear")
    print()
    print(
        "nonlinear: {} iterations, replay {:.3f} s vs rebuild {:.3f} s, "
        "builds {} full + {} incremental".format(
            entry["iterations"], entry["wall_replay_s"], entry["wall_rebuild_s"],
            entry["full_builds_replay"], entry["incremental_builds_replay"],
        )
    )
    assert entry["converged"]
    assert entry["same_iterations"]
    assert entry["bitwise_identical"]
    assert entry["full_builds_replay"] == 0
    assert entry["incremental_builds_replay"] == entry["iterations"]


def test_writes_bench_json(workload):
    entries, metadata = workload
    path = _REPO_ROOT / "BENCH_session.json"
    bench_report_to_json("session", entries, path, metadata=metadata)
    assert path.exists()


if __name__ == "__main__":
    measured_entries, run_metadata = run_workload()
    for item in measured_entries:
        if item["workload"] == "control":
            print(
                "control: {} levels, splu {} -> {} ({:.1f}x), "
                "trace diff {:.2e} K, shared-view new splu {}".format(
                    item["current_levels"], item["splu_direct"],
                    item["splu_reuse"], item["splu_ratio"],
                    item["max_trace_diff_k"], item["shared_view_new_splu"],
                )
            )
        else:
            print(
                "nonlinear: {} iterations, bitwise {}, builds {} full "
                "+ {} incremental, replay {:.3f} s vs rebuild {:.3f} s".format(
                    item["iterations"], item["bitwise_identical"],
                    item["full_builds_replay"], item["incremental_builds_replay"],
                    item["wall_replay_s"], item["wall_rebuild_s"],
                )
            )
    out = _REPO_ROOT / "BENCH_session.json"
    bench_report_to_json("session", measured_entries, out, metadata=run_metadata)
    print("written to {}".format(out))

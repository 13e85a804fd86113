"""GreedyDeploy against its all-cold loop.

Runs the full GreedyDeploy pipeline twice per workload — once as
:func:`repro.core.deploy.greedy_deploy` runs it (a round after the
first runs warm once its Peltier support reaches
``repro.core.engine._DIRECT_MIN_SUPPORT``) and once with that
threshold patched to ``math.inf``, so every round runs cold — on the
Table I ``alpha`` floorplan and on dense Gaussian-hotspot grids (24x24
up to 48x48), and checks:

* both loops visit identical rounds (same ``added_tiles`` per round)
  and finish with the identical deployment and verdict;
* their optima agree: polished on a *common* model (the deterministic
  :func:`repro.core.current.polish_current` fixed point — raw argmins
  sit on a solver-noise plateau, and polishing on different solver
  backends shifts the shallow parabola vertex by ~1e-6), ``I_opt``
  matches to 1e-6 A and the peak temperature to 1e-6 K;
* on a dense >= 32x32 grid ``greedy_deploy`` is >= 3x faster than the
  all-cold loop end to end.  Neither loop polishes its optimum, so
  both walls cover the same deliverable.

A full default run writes ``BENCH_deploy.json`` at the repo root
(schema: :func:`repro.io.results.bench_report_to_json`, tagged
``"run": "full"``).  The workload list honours the
``BENCH_DEPLOY_GRIDS`` environment variable (comma-separated, e.g.
``table1,24``) so CI can run a fast subset; any override writes
``BENCH_deploy-fast.json`` instead, so a fast run never overwrites the
checked-in full-run numbers, and the speedup assertion skips itself
when no >= 32x32 grid is in the list.

Run:  pytest benchmarks/bench_deploy.py -s
      python benchmarks/bench_deploy.py
"""

import dataclasses
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize  # noqa: F401 — preload so neither loop pays the import

from repro.core import engine
from repro.core.current import polish_current
from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.experiments.benchmarks import load_benchmark
from repro.io.results import bench_report_to_json
from repro.thermal.geometry import TileGrid
from repro.thermal.stack import PackageStack

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_WORKLOADS = "table1,24,32,48"
_FULL_RUN = "BENCH_DEPLOY_GRIDS" not in os.environ

#: Problem 2 search tolerance for both loops.  Tight enough that the
#: two loops' search centers land close together, so the common
#: polish converges to the same fixed point well inside the 1e-6 A
#: agreement budget.
_CURRENT_TOLERANCE = 1.0e-6

#: Agreement budgets (acceptance criteria).
_CURRENT_AGREEMENT_A = 1.0e-6
_PEAK_AGREEMENT_K = 1.0e-6

#: The speedup assertion only fires on grids at least this large —
#: smaller instances are dominated by per-run constants (bare solve,
#: model assembly) that no round can amortize.
_SPEEDUP_MIN_SIDE = 32
_SPEEDUP_TARGET = 3.0

#: Dense-grid hotspot shape: a central Gaussian plus a broad shoulder
#: over a mild background, with the temperature limit placed at the
#: 75th percentile of the bare map.  Offenders then cover ~25% of the
#: die in round 0 and the re-optimized current uncovers a second,
#: much larger offender ring, so the greedy loop takes two rounds —
#: the second round's support is past the warm-round threshold on
#: every dense grid.  The instance ends infeasible (offenders inside
#: the deployment), mirroring the HC06/HC09 rows of Table I; both
#: loops must agree on that verdict.
_LIMIT_PERCENTILE = 75.0


def _workloads():
    text = os.environ.get("BENCH_DEPLOY_GRIDS", _DEFAULT_WORKLOADS)
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("BENCH_DEPLOY_GRIDS selected no workloads")
    return items


def _scaled_stack(die_side):
    """The calibrated stack with spreader/sink grown to fit large dies."""
    stack = PackageStack()
    spreader_side = max(stack.spreader.side, die_side * 1.5)
    sink_side = max(stack.sink.side, spreader_side * 2.0)
    return dataclasses.replace(
        stack,
        spreader=dataclasses.replace(stack.spreader, side=spreader_side),
        sink=dataclasses.replace(stack.sink, side=sink_side),
    )


def _gaussian_power(side):
    ys, xs = np.divmod(np.arange(side * side), side)
    center = (side - 1) / 2.0
    # Distances in 24x24-tile units so the physical hotspot footprint
    # (and with it the round structure) is resolution-independent.
    d2 = ((ys - center) ** 2 + (xs - center) ** 2) * (24.0 / side) ** 2
    shape = (
        0.05
        + 0.5 * np.exp(-d2 / (2.0 * 4.0**2))
        + 0.25 * np.exp(-d2 / (2.0 * 9.0**2))
    )
    return shape * 0.2 * (24.0 / side) ** 2


def _dense_grid_problem(side):
    """A dense hotspot instance; returns one problem per call so the
    two loops never share solver caches."""
    grid = TileGrid(side, side)
    die_side = max(grid.width, grid.height)
    problem = CoolingSystemProblem(
        grid,
        _gaussian_power(side),
        max_temperature_c=1000.0,
        stack=_scaled_stack(die_side),
        name="bench-deploy-{0}x{0}".format(side),
    )
    bare = problem.model(()).solve(0.0)
    limit = float(np.percentile(bare.silicon_c, _LIMIT_PERCENTILE))
    return problem.with_limit(limit)


def _problem_for(workload):
    if workload == "table1":
        return load_benchmark("alpha")
    return _dense_grid_problem(int(workload))


def _timed_deploy(problem, all_cold):
    """One full GreedyDeploy pipeline and its wall time."""
    with pytest.MonkeyPatch.context() as patch:
        if all_cold:
            patch.setattr(engine, "_DIRECT_MIN_SUPPORT", math.inf)
        start = time.perf_counter()
        result = greedy_deploy(problem, current_tolerance=_CURRENT_TOLERANCE)
        return result, time.perf_counter() - start


def _warm_rounds(result):
    return sum(
        r.runaway_method.startswith("shift-invert")
        for r in result.deploy_stats.rounds
    )


def _common_polish(reference, current):
    """Polish a current on the *reference* (all-cold) model.

    Comparing optima across the loops needs one evaluation oracle: a
    warm round may run on another solver backend, and backend
    round-off alone shifts the polish fixed point by ~1e-6 A on
    shallow objectives.  On a shared model both loops' argmins
    collapse to the same fixed point to ~1e-13 A.
    """
    upper = None
    if reference.current_result is not None:
        upper = 0.98 * reference.current_result.lambda_m
    polished, _ = polish_current(reference.model, current, upper=upper)
    return polished


def _measure(workload):
    problem_cold = _problem_for(workload)
    problem_deploy = _problem_for(workload)
    cold, cold_wall = _timed_deploy(problem_cold, all_cold=True)
    deploy, deploy_wall = _timed_deploy(problem_deploy, all_cold=False)

    rounds_match = len(cold.iterations) == len(deploy.iterations) and all(
        a.added_tiles == b.added_tiles
        for a, b in zip(cold.iterations, deploy.iterations)
    )
    ref_cold = _common_polish(cold, float(cold.current))
    ref_deploy = _common_polish(cold, float(deploy.current))
    peak_cold = float(cold.model.solve(ref_cold).peak_silicon_c)
    peak_deploy = float(cold.model.solve(ref_deploy).peak_silicon_c)

    grid = problem_cold.grid
    return {
        "workload": workload,
        "name": problem_cold.name,
        "side": int(max(grid.rows, grid.cols)),
        "num_tiles": int(grid.num_tiles),
        "limit_c": float(problem_cold.max_temperature_c),
        "feasible": bool(cold.feasible),
        "rounds": len(cold.iterations),
        "warm_rounds": _warm_rounds(deploy),
        "tecs": int(cold.num_tecs),
        "wall_cold_s": cold_wall,
        "wall_deploy_s": deploy_wall,
        "speedup": cold_wall / deploy_wall,
        "same_deployment": bool(cold.tec_tiles == deploy.tec_tiles),
        "same_rounds": bool(rounds_match),
        "same_feasible": bool(cold.feasible == deploy.feasible),
        "i_opt_cold_a": ref_cold,
        "i_opt_deploy_a": ref_deploy,
        "di_a": abs(ref_cold - ref_deploy),
        "dpeak_k": abs(peak_cold - peak_deploy),
        "evals_cold": cold.deploy_stats.total_evaluations,
        "evals_deploy": deploy.deploy_stats.total_evaluations,
        "stats_cold": cold.deploy_stats.as_dict(),
        "stats_deploy": deploy.deploy_stats.as_dict(),
    }


def run_workload(workloads=None):
    """Race greedy_deploy against the all-cold loop on every workload.

    Returns ``(entries, metadata)`` in the ``BENCH_deploy.json`` shape:
    one entry per workload with both walls, the speedup and the
    agreement checks.
    """
    entries = [
        _measure(workload)
        for workload in (workloads if workloads is not None else _workloads())
    ]
    metadata = {
        "workload": "GreedyDeploy vs its all-cold loop",
        "run": "full" if _FULL_RUN else "fast",
        "current_tolerance": _CURRENT_TOLERANCE,
        "limit_percentile": _LIMIT_PERCENTILE,
        "warm_min_support": engine._DIRECT_MIN_SUPPORT,
        "speedup_min_side": _SPEEDUP_MIN_SIDE,
        "speedup_target": _SPEEDUP_TARGET,
        "cpu_count": os.cpu_count(),
    }
    return entries, metadata


def _report_path():
    return _REPO_ROOT / (
        "BENCH_deploy.json" if _FULL_RUN else "BENCH_deploy-fast.json"
    )


def _row(entry):
    return (
        "{:>12} cold {:7.3f} s  greedy_deploy {:7.3f} s  -> {:5.2f}x  "
        "({} rounds, {} warm, {} TECs, evals {} -> {}, dI {:.1e} A, "
        "dPeak {:.1e} K)".format(
            entry["workload"], entry["wall_cold_s"], entry["wall_deploy_s"],
            entry["speedup"], entry["rounds"], entry["warm_rounds"],
            entry["tecs"], entry["evals_cold"], entry["evals_deploy"],
            entry["di_a"], entry["dpeak_k"],
        )
    )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    return run_workload()


def test_loops_agree(workload):
    entries, _ = workload
    assert entries
    for entry in entries:
        label = entry["workload"]
        assert entry["same_feasible"], label
        assert entry["same_rounds"], label
        assert entry["same_deployment"], label
        assert entry["di_a"] <= _CURRENT_AGREEMENT_A, (label, entry["di_a"])
        assert entry["dpeak_k"] <= _PEAK_AGREEMENT_K, (label, entry["dpeak_k"])


def test_warm_round_speedup_on_dense_grid(workload):
    entries, _ = workload
    print()
    for entry in entries:
        print(_row(entry))
    ratios = {
        entry["workload"]: entry["speedup"]
        for entry in entries
        if entry["workload"] != "table1" and entry["side"] >= _SPEEDUP_MIN_SIDE
    }
    if not ratios:
        pytest.skip(
            "no >= {0}x{0} dense grid in the list "
            "(BENCH_DEPLOY_GRIDS subset)".format(_SPEEDUP_MIN_SIDE)
        )
    best = max(ratios.values())
    print("speedup over the all-cold loop on dense grids: " + ", ".join(
        "{} {:.2f}x".format(name, ratio)
        for name, ratio in sorted(ratios.items())
    ))
    assert best >= _SPEEDUP_TARGET


def test_writes_bench_json(workload):
    entries, metadata = workload
    path = _report_path()
    bench_report_to_json("deploy", entries, path, metadata=metadata)
    assert path.exists()


if __name__ == "__main__":
    measured_entries, run_metadata = run_workload()
    for item in measured_entries:
        print(_row(item))
    out = _report_path()
    bench_report_to_json("deploy", measured_entries, out, metadata=run_metadata)
    print("written to {}".format(out))

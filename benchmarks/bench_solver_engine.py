"""The fused solve engine vs the legacy per-current path.

Runs GreedyDeploy on the Table I Alpha instance twice — once with the
engine defaults (``mode="reuse"`` + incremental assembly) and once with
the pre-engine configuration (``mode="direct"``, rebuild every model) —
and checks the acceptance criteria of the engine PR:

* the engine performs at least 2x fewer sparse LU factorizations;
* the deployment is identical (same tiles, same current to 1e-3 A,
  same peak to 1e-6 C).

The measured timings and solver stats are written to
``BENCH_solver.json`` at the repo root (schema:
:func:`repro.io.results.bench_report_to_json`) so the perf trajectory
is machine-readable across commits.

Run:  pytest benchmarks/bench_solver_engine.py -s
      pytest benchmarks/bench_solver_engine.py --benchmark-only
"""

import time
from pathlib import Path

import pytest

from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.experiments.benchmarks import BENCHMARKS, load_benchmark
from repro.io.results import bench_report_to_json

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _legacy_problem():
    """Alpha on the pre-engine configuration: one direct factorization
    per current and a from-scratch build of every model."""
    spec = BENCHMARKS["alpha"]
    return CoolingSystemProblem.from_floorplan(
        spec.floorplan(), max_temperature_c=spec.limit_c, name=spec.name,
        solver_mode="direct", incremental_assembly=False,
    )


def _timed_greedy(problem):
    start = time.perf_counter()
    result = greedy_deploy(problem)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def engine_run():
    problem = load_benchmark("alpha")  # engine defaults: reuse + incremental
    return _timed_greedy(problem)


@pytest.fixture(scope="module")
def legacy_run():
    return _timed_greedy(_legacy_problem())


@pytest.fixture(scope="module")
def engine_result(engine_run):
    return engine_run[0]


@pytest.fixture(scope="module")
def legacy_result(legacy_run):
    return legacy_run[0]


def test_factorization_reduction(engine_result, legacy_result):
    engine = engine_result.solver_stats
    legacy = legacy_result.solver_stats
    print()
    print("legacy : " + legacy.summary())
    print("engine : " + engine.summary())
    ratio = legacy.factorizations / max(engine.factorizations, 1)
    print("sparse LU reduction: {:.1f}x".format(ratio))
    assert engine.factorizations * 2 <= legacy.factorizations


def test_identical_deployment(engine_result, legacy_result):
    assert engine_result.tec_tiles == legacy_result.tec_tiles
    assert engine_result.feasible == legacy_result.feasible
    assert engine_result.current == pytest.approx(legacy_result.current, abs=1e-3)
    assert engine_result.peak_c == pytest.approx(legacy_result.peak_c, abs=1e-6)


def test_engine_skips_full_rebuilds(engine_result):
    stats = engine_result.solver_stats
    assert stats.incremental_builds > 0
    # only the blueprint-recording first model builds from scratch
    assert stats.full_builds <= 1


def test_writes_bench_json(engine_run, legacy_run):
    entries = []
    for label, (result, wall) in (("engine", engine_run), ("legacy", legacy_run)):
        entries.append({
            "configuration": label,
            "benchmark": "alpha",
            "task": "greedy_deploy",
            "wall_s": wall,
            "feasible": bool(result.feasible),
            "num_tecs": int(result.num_tecs),
            "stats": result.solver_stats.as_dict(),
        })
    entries[0]["speedup_vs_legacy"] = legacy_run[1] / engine_run[1]
    path = _REPO_ROOT / "BENCH_solver.json"
    bench_report_to_json(
        "solver", entries,
        path, metadata={"workload": "GreedyDeploy on alpha, engine vs legacy"},
    )
    assert path.exists()


@pytest.mark.benchmark(group="solver-engine")
def test_greedy_deploy_solve_engine_timing(benchmark):
    def run():
        return greedy_deploy(load_benchmark("alpha"))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.feasible


@pytest.mark.benchmark(group="solver-engine")
def test_greedy_deploy_legacy_timing(benchmark):
    def run():
        return greedy_deploy(_legacy_problem())

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.feasible

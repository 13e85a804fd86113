"""Grid-resolution scaling workload for the solver backends.

Sweeps tile grids (8x8 up to 128x128 by default) with dense TEC
deployments, times every applicable solver backend on the same
assembled system and probe currents through
:meth:`~repro.thermal.session.SessionView.solve_batch` (one solve per
current), and checks the acceptance criteria of the backend-layer
PRs:

* every backend agrees with the ``direct`` reference on the peak
  temperature of every probe current to 1e-6 K;
* on a >= 48x48 grid with a dense deployment, the per-current SPD
  factorization of ``direct`` beats the condensed ``reuse`` mode
  wall-clock (the dense support x support block of its support-last
  factorization grows with the deployment) — the fact ``auto``'s
  support threshold relies on;
* on the 128x128 grid (stride-lattice deployment, 512 support nodes),
  the condensed ``reuse`` backend — one support-last factorization for
  every probe current — beats the ``direct`` backend, which
  factors once per current, wall-clock;
* on the 256x256 grid (>= 260k nodes) the geometric-multigrid ``mg``
  backend beats the assembled SPD factorization by >= 2x wall-clock
  while holding less solver state (``solver_bytes``, the
  deterministic factor-fill/operator accounting of
  ``SessionView.solver_state_bytes``).  All ratios are reported in
  ``BENCH_backends.json``.

A full default run writes ``BENCH_backends.json`` at the repo root
(schema: :func:`repro.io.results.bench_report_to_json`, tagged
``"run": "full"``) so the perf trajectory is machine-readable across
commits.  The grid list honours the ``BENCH_BACKENDS_GRIDS``
environment variable (comma-separated side lengths, e.g. ``8,16``) so
CI can run a fast subset; any override writes
``BENCH_backends-fast.json`` instead, so a fast run never overwrites
the checked-in full-run numbers, and the >= 48x48 speedup assertion
skips itself when no large grid is in the list.  The ``reuse`` backend
is skipped (and the skip logged in the JSON) once the Peltier support
exceeds ``_REUSE_SUPPORT_LIMIT`` — the dense support x support
trailing block of its factorization, and the block's
eigendecomposition, grow quadratically and cubically with the support.

Run:  pytest benchmarks/bench_backends.py -s
      python benchmarks/bench_backends.py
"""

import dataclasses
import gc
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.problem import CoolingSystemProblem
from repro.io.results import bench_report_to_json
from repro.linalg.spd import cholesky_is_spd
from repro.thermal.geometry import TileGrid
from repro.thermal.session import SolveSession
from repro.thermal.stack import PackageStack

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_GRIDS = "8,16,32,48,64,128,256"
_FULL_RUN = "BENCH_BACKENDS_GRIDS" not in os.environ
_BACKENDS = ("direct", "reuse", "mg")

#: Total die power (W), split uniformly over the tiles so refining the
#: grid changes the resolution, not the thermal problem.
_TOTAL_POWER_W = 60.0

#: Probe currents (A).  Halved together until ``G - i D`` is positive
#: definite at the largest probe, so every instance stays below its
#: runaway current.
_PROBE_CURRENTS = (0.25, 0.5, 1.0)

#: Skip the ``reuse`` backend beyond this Peltier-support size: the
#: dense ``support x support`` trailing block of its factorization and
#: the block's ``support^3`` eigendecomposition are the scaling wall
#: under study.
_REUSE_SUPPORT_LIMIT = 2500

#: Grids up to this side get full TEC coverage; larger ones a
#: checkerboard (still dense: 50% of the tiles).
_FULL_COVER_SIDE = 16

#: From this side on, a checkerboard's support would dwarf the reuse
#: limit, so the deployment thins to a stride lattice — enough TECs to
#: exercise every backend on the same >= 128x128 system.
_LATTICE_SIDE = 96


def _grid_sides():
    text = os.environ.get("BENCH_BACKENDS_GRIDS", _DEFAULT_GRIDS)
    sides = sorted({int(part) for part in text.split(",") if part.strip()})
    if not sides:
        raise ValueError("BENCH_BACKENDS_GRIDS selected no grids")
    return sides


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


def _dense_deployment(side):
    if side <= _FULL_COVER_SIDE:
        return tuple(range(side * side))
    if side >= _LATTICE_SIDE:
        stride = max(2, side // 16)
        return tuple(
            idx for idx in range(side * side)
            if (idx // side) % stride == 0 and (idx % side) % stride == 0
        )
    return tuple(
        idx for idx in range(side * side) if ((idx // side) + (idx % side)) % 2 == 0
    )


def _build_problem_model(side):
    """The deployed thermal model of one benchmark instance.

    Shared with ``bench_rom.py``, which drives the same instances
    through closed-loop transients instead of steady batch solves.
    """
    grid = TileGrid(side, side)
    power = np.full(grid.num_tiles, _TOTAL_POWER_W / grid.num_tiles)
    die_side = max(grid.width, grid.height)
    problem = CoolingSystemProblem(
        grid,
        power,
        max_temperature_c=1000.0,
        stack=_scaled_stack(die_side),
        name="bench-{0}x{0}".format(side),
    )
    return problem.model(_dense_deployment(side))


def _build_instance(side):
    return _build_problem_model(side).solver.system


def _safe_currents(system):
    """The probe currents, halved until the largest is below runaway."""
    currents = list(_PROBE_CURRENTS)
    for _ in range(8):
        if cholesky_is_spd(system.system_matrix(max(currents))):
            return tuple(currents)
        currents = [0.5 * c for c in currents]
    raise RuntimeError("could not find probe currents below runaway")


def _time_backend(system, backend, currents):
    solver = SolveSession(system, mode=backend).view(None)
    # The previous backend's session (large LU factors) dies through
    # cycle collection; sweep it now so the decay doesn't land inside
    # this backend's measurement.
    gc.collect()
    start = time.perf_counter()
    answers = solver.solve_batch(currents)
    wall = time.perf_counter() - start
    peaks = [float(theta.max()) for theta, _ in answers]
    return {
        "backend": backend,
        "wall_s": wall,
        "peak_k": peaks,
        # Deterministic solver-state accounting (factor fill at 12
        # bytes/nonzero, hierarchy/stencil arrays, cached blocks) —
        # the memory axis of the mg acceptance criterion.
        "solver_bytes": int(solver.solver_state_bytes()),
        "stats": {
            key: value
            for key, value in solver.stats.as_dict().items()
            if isinstance(value, int) and value
        },
    }


def run_workload(sides=None):
    """Measure every applicable backend on every grid.

    Returns ``(entries, metadata)`` in the ``BENCH_backends.json``
    shape: one entry per (grid, backend) plus per-grid skip records.
    """
    entries = []
    for side in sides if sides is not None else _grid_sides():
        build_start = time.perf_counter()
        system = _build_instance(side)
        build_s = time.perf_counter() - build_start
        support = int(np.count_nonzero(system.d_diagonal))
        currents = _safe_currents(system)
        base = {
            "grid": "{0}x{0}".format(side),
            "side": side,
            "num_nodes": int(system.num_nodes),
            "support": support,
            "tecs": support // 2,
            "currents_a": list(currents),
            "build_s": build_s,
        }
        timings = {}
        measured_entries = {}
        for backend in _BACKENDS:
            if backend == "reuse" and support > _REUSE_SUPPORT_LIMIT:
                entries.append(dict(
                    base,
                    backend="reuse",
                    skipped="support {} exceeds the reuse limit {}".format(
                        support, _REUSE_SUPPORT_LIMIT
                    ),
                ))
                continue
            measured = _time_backend(system, backend, currents)
            timings[backend] = measured
            entry = dict(base, **measured)
            measured_entries[backend] = entry
            entries.append(entry)
        if "reuse" in timings:
            # The acceptance ratios: how much faster each challenger
            # backend answers the same probe currents than the
            # condensed reuse backend.
            for backend in ("direct", "mg"):
                measured_entries[backend]["speedup_vs_reuse"] = (
                    timings["reuse"]["wall_s"] / timings[backend]["wall_s"]
                )
        # The mg acceptance ratio: wall-clock vs the assembled SPD
        # factorization on the same system.
        measured_entries["mg"]["speedup_vs_direct"] = (
            timings["direct"]["wall_s"] / timings["mg"]["wall_s"]
        )
    metadata = {
        "workload": "grid-resolution scaling, dense TEC deployments",
        "run": "full" if _FULL_RUN else "fast",
        "total_power_w": _TOTAL_POWER_W,
        "reuse_support_limit": _REUSE_SUPPORT_LIMIT,
        "cpu_count": os.cpu_count(),
    }
    return entries, metadata


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    return run_workload()


def test_backends_agree(workload):
    entries, _ = workload
    by_grid = {}
    for entry in entries:
        if "skipped" not in entry:
            by_grid.setdefault(entry["grid"], []).append(entry)
    assert by_grid
    for grid, measured in by_grid.items():
        reference = {e["backend"]: e for e in measured}["direct"]
        for entry in measured:
            for peak, ref_peak in zip(entry["peak_k"], reference["peak_k"]):
                assert peak == pytest.approx(ref_peak, abs=1.0e-6), (
                    grid, entry["backend"]
                )


def test_direct_beats_reuse_on_large_grid(workload):
    entries, _ = workload
    ratios = {
        entry["grid"]: entry["speedup_vs_reuse"]
        for entry in entries
        if entry.get("backend") == "direct"
        and entry.get("speedup_vs_reuse") is not None and entry["side"] >= 48
    }
    print()
    for entry in entries:
        if "skipped" in entry:
            print("{:>7} {:<7} skipped: {}".format(
                entry["grid"], entry["backend"], entry["skipped"]))
        else:
            print("{:>7} {:<7} {:8.3f} s  ({} nodes, support {})".format(
                entry["grid"], entry["backend"], entry["wall_s"],
                entry["num_nodes"], entry["support"]))
    if not ratios:
        pytest.skip(
            "no >= 48x48 grid ran both reuse and direct "
            "(BENCH_BACKENDS_GRIDS subset)"
        )
    best = max(ratios.values())
    print("direct speedup vs reuse on large grids: " + ", ".join(
        "{} {:.1f}x".format(grid, ratio) for grid, ratio in sorted(ratios.items())
    ))
    assert best > 1.0


@pytest.mark.slow
def test_reuse_beats_direct_on_128(workload):
    """The condensed reuse backend wins the 128x128 column over the
    sparse-SPD backend: one support-last factorization answers
    every probe current, where direct factors once per current."""
    entries, _ = workload
    ratios = {
        entry["grid"]: 1.0 / entry["speedup_vs_reuse"]
        for entry in entries
        if entry.get("backend") == "direct"
        and entry.get("speedup_vs_reuse") is not None and entry["side"] >= 128
    }
    if not ratios:
        pytest.skip(
            "no >= 128x128 grid ran both reuse and direct "
            "(BENCH_BACKENDS_GRIDS subset)"
        )
    print("reuse speedup vs direct: " + ", ".join(
        "{} {:.1f}x".format(grid, ratio) for grid, ratio in sorted(ratios.items())
    ))
    assert max(ratios.values()) > 1.0


@pytest.mark.slow
def test_mg_wins_256(workload):
    """The multigrid tier's acceptance on the chiplet-scale column:
    >= 2x wall-clock over the assembled SPD factorization of ``direct``
    on the >= 256x256 grid, with less solver state."""
    entries, _ = workload
    mg_entries = [
        entry for entry in entries
        if entry.get("backend") == "mg" and "skipped" not in entry
        and entry["side"] >= 256
    ]
    if not mg_entries:
        pytest.skip(
            "no >= 256x256 grid in the run (BENCH_BACKENDS_GRIDS subset)"
        )
    for mg_entry in mg_entries:
        rivals = [
            entry for entry in entries
            if entry["side"] == mg_entry["side"] and "skipped" not in entry
            and entry["backend"] == "direct"
        ]
        assert rivals, "mg ran unopposed on {}".format(mg_entry["grid"])
        for rival in rivals:
            ratio = rival["wall_s"] / mg_entry["wall_s"]
            print("{}: mg {:.2f}x faster than {} ({:.1f} MB vs {:.1f} MB)".format(
                mg_entry["grid"], ratio, rival["backend"],
                mg_entry["solver_bytes"] / 1e6, rival["solver_bytes"] / 1e6,
            ))
            assert ratio >= 2.0, (mg_entry["grid"], rival["backend"])
            assert mg_entry["solver_bytes"] < rival["solver_bytes"], (
                mg_entry["grid"], rival["backend"]
            )


def _report_path():
    return _REPO_ROOT / (
        "BENCH_backends.json" if _FULL_RUN else "BENCH_backends-fast.json"
    )


def test_writes_bench_json(workload):
    entries, metadata = workload
    path = _report_path()
    bench_report_to_json("backends", entries, path, metadata=metadata)
    assert path.exists()


if __name__ == "__main__":
    measured_entries, run_metadata = run_workload()
    for item in measured_entries:
        if "skipped" in item:
            print("{:>7} {:<7} skipped: {}".format(
                item["grid"], item["backend"], item["skipped"]))
        else:
            print("{:>7} {:<7} {:8.3f} s".format(
                item["grid"], item["backend"], item["wall_s"]))
    out = _report_path()
    bench_report_to_json("backends", measured_entries, out, metadata=run_metadata)
    print("written to {}".format(out))

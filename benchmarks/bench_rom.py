"""Closed-loop control traces through the certified reduced-order kernel.

Runs the same PI-regulated closed loop (ROM off, ROM cold, ROM warm)
on 64x64 and 128x128 grids and checks the reduced-order PR's
acceptance criteria:

* the ROM trace agrees with the full-order trace to within its own
  certified error bound, and that bound stays <= the 1e-3 K default
  tolerance;
* on the 128x128 grid the warm ROM loop beats the full-order loop
  >= 10x wall-clock (the cold loop pays the one-off basis build,
  reported separately — sweeps and the serve pool amortize it);
* a warm trace needs >= 5x fewer full-order solve columns than the
  full loop's one-solve-per-step.

Measurements land in ``BENCH_rom.json`` at the repo root (schema:
:func:`repro.io.results.bench_report_to_json`), tagged
``"run": "full"``.  ``BENCH_ROM_GRIDS`` (comma-separated side lengths)
and ``BENCH_ROM_STEPS`` select a fast subset for CI; the 10x assertion
skips itself when no 128x128 grid is in the list.  A run with any
``BENCH_ROM_*`` override writes ``BENCH_rom-fast.json`` instead, so a
fast run never overwrites the checked-in full-run numbers.

Run:  pytest benchmarks/bench_rom.py -s
      python benchmarks/bench_rom.py
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bench_backends import _build_problem_model
from repro.control.controllers import PiController
from repro.control.loop import ClosedLoopSimulator
from repro.control.sensors import SensorArray
from repro.io.results import bench_report_to_json
from repro.linalg.mor import DEFAULT_ROM_TOL_K

_REPO_ROOT = Path(__file__).resolve().parent.parent
_FULL_RUN = not any(name.startswith("BENCH_ROM_") for name in os.environ)
_BENCH_JSON = _REPO_ROOT / (
    "BENCH_rom.json" if _FULL_RUN else "BENCH_rom-fast.json"
)
_DEFAULT_GRIDS = "64,128"
_DEFAULT_STEPS = 400

#: Integration and control cadence: 1 ms steps, 10 ms control period —
#: the regime the certified envelope was tuned for.
_DT_S = 1e-3
_CONTROL_PERIOD_S = 1e-2


def _grid_sides():
    text = os.environ.get("BENCH_ROM_GRIDS", _DEFAULT_GRIDS)
    sides = sorted({int(part) for part in text.split(",") if part.strip()})
    if not sides:
        raise ValueError("BENCH_ROM_GRIDS selected no grids")
    return sides


def _steps():
    return int(os.environ.get("BENCH_ROM_STEPS", _DEFAULT_STEPS))


#: Basis size for the ROM loops.  Headroom above the 48-column default
#: keeps the certified envelope (which accumulates over a trace and
#: never credits time-cancellation) well below the 1e-3 K tolerance
#: across the full 400-step horizon, so warm traces run entirely in
#: the reduced space instead of refining near the tolerance floor.
_ROM_DIM = 192


def _build_loop(model, sensors, setpoint_c, rom):
    controller = PiController(setpoint_c=setpoint_c, kp=0.8, ki=0.2, i_max=8.0)
    return ClosedLoopSimulator(
        model, controller, sensors,
        dt=_DT_S, control_period=_CONTROL_PERIOD_S,
        rom=rom, rom_dim=_ROM_DIM,
    )


def _measure(side, steps):
    model = _build_problem_model(side)
    passive = model.solve(0.0)
    tiles = set(model.tec_tiles)
    tiles.add(passive.peak_tile)
    sensors = SensorArray(tiles, noise_std_c=0.0, quantization_c=0.0, seed=0)
    setpoint_c = passive.peak_silicon_c - 5.0

    base = {
        "grid": "{0}x{0}".format(side),
        "side": side,
        "num_nodes": int(model.num_nodes),
        "tecs": len(model.tec_tiles),
        "steps": steps,
        "dt_s": _DT_S,
        "rom_tol_k": DEFAULT_ROM_TOL_K,
        "rom_dim_requested": _ROM_DIM,
    }

    full_result = _build_loop(model, sensors, setpoint_c, "off").run(steps)
    entries = [dict(
        base, mode="full", wall_s=float(full_result.wall_s),
        full_solve_columns=steps,
        factorizations=int(full_result.factorizations),
    )]

    # Cold: the basis build happens at construction time.
    build_start = time.perf_counter()
    cold_loop = _build_loop(model, sensors, setpoint_c, "always")
    basis_build_s = time.perf_counter() - build_start
    for mode, loop in (("rom_cold", cold_loop),
                       ("rom_warm", _build_loop(model, sensors, setpoint_c,
                                                "always"))):
        result = loop.run(steps)
        gap = float(np.max(np.abs(
            result.true_peak_c - full_result.true_peak_c
        )))
        entry = dict(
            base,
            mode=mode,
            wall_s=float(result.wall_s),
            basis_build_s=basis_build_s if mode == "rom_cold" else 0.0,
            certified_error_k=float(result.rom["certified_error_k"]),
            true_gap_vs_full_k=gap,
            rom_dim=int(result.rom["dim"]),
            full_solve_columns=int(result.rom["full_solve_columns"]),
            rom_steps=int(result.rom["rom_steps"]),
            enrichments=int(result.rom["enrichments"]),
            restarts=int(result.rom["restarts"]),
            speedup_vs_full=float(full_result.wall_s / result.wall_s),
            solve_column_ratio=(
                steps / max(1, int(result.rom["full_solve_columns"]))
            ),
        )
        entries.append(entry)
    return entries


def run_workload(sides=None, steps=None):
    """Measure every mode on every grid; ``BENCH_rom.json`` shape."""
    steps = steps if steps is not None else _steps()
    entries = []
    for side in sides if sides is not None else _grid_sides():
        entries.extend(_measure(side, steps))
    metadata = {
        "workload": "PI closed-loop trace, full-order vs certified ROM",
        "dt_s": _DT_S,
        "control_period_s": _CONTROL_PERIOD_S,
        "rom_tol_k": DEFAULT_ROM_TOL_K,
        "run": "full" if _FULL_RUN else "fast",
        "cpu_count": os.cpu_count(),
    }
    return entries, metadata


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    return run_workload()


def _print_entries(entries):
    print()
    for entry in entries:
        extra = ""
        if entry["mode"] != "full":
            extra = "  certified {:.2e} K, gap {:.2e} K, {} cols".format(
                entry["certified_error_k"], entry["true_gap_vs_full_k"],
                entry["full_solve_columns"],
            )
        print("{:>9} {:<9} {:8.3f} s{}".format(
            entry["grid"], entry["mode"], entry["wall_s"], extra
        ))


def test_certified_and_true_error_within_tolerance(workload):
    """Every ROM trace: true gap <= certified bound <= tolerance."""
    entries, _ = workload
    rom_entries = [e for e in entries if e["mode"] != "full"]
    assert rom_entries
    for entry in rom_entries:
        assert entry["certified_error_k"] <= entry["rom_tol_k"] + 1e-12, entry
        assert (
            entry["true_gap_vs_full_k"]
            <= entry["certified_error_k"] + 1e-9
        ), entry


def test_warm_rom_needs_5x_fewer_full_solves(workload):
    """A warm trace runs in the reduced space almost throughout."""
    entries, _ = workload
    warm = [e for e in entries if e["mode"] == "rom_warm"]
    assert warm
    for entry in warm:
        assert entry["solve_column_ratio"] >= 5.0, entry


@pytest.mark.slow
def test_rom_10x_speedup_on_128(workload):
    """The acceptance ratio: >= 10x wall-clock on the 128x128 loop."""
    entries, _ = workload
    _print_entries(entries)
    ratios = {
        entry["mode"]: entry["speedup_vs_full"]
        for entry in entries
        if entry["side"] >= 128 and entry["mode"] != "full"
    }
    if not ratios:
        pytest.skip("no 128x128 grid in BENCH_ROM_GRIDS subset")
    print("rom speedup vs full on 128x128: " + ", ".join(
        "{} {:.1f}x".format(mode, ratio)
        for mode, ratio in sorted(ratios.items())
    ))
    assert ratios["rom_warm"] >= 10.0


def test_writes_bench_json(workload):
    entries, metadata = workload
    bench_report_to_json("rom", entries, _BENCH_JSON, metadata=metadata)
    assert _BENCH_JSON.exists()


if __name__ == "__main__":
    measured, run_metadata = run_workload()
    _print_entries(measured)
    bench_report_to_json("rom", measured, _BENCH_JSON, metadata=run_metadata)
    print("written to {}".format(_BENCH_JSON))

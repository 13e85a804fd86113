"""Command-line interface.

Usage (also installed as the ``repro`` console script)::

    python -m repro.cli table1 [--benchmarks alpha hc01 ...] [--json OUT]
                               [--workers 4] [--sweep-report OUT]
                               [--max-rounds N] [--round-stats]
    python -m repro.cli sweep [--benchmark alpha] [--power-scales 0.9 1.1]
                              [--budgets 0 0.5 1.0] [--workers 4]
                              [--backend direct]
    python -m repro.cli solve --benchmark alpha [--limit 85] [--json OUT]
                              [--max-rounds N] [--round-stats]
    python -m repro.cli solve --flp chip.flp --powers powers.json --limit 85
    python -m repro.cli transient --benchmark alpha [--tiles 27 28 ...]
                                  [--current 3.2] [--dt 1e-3] [--steps 200]
                                  [--backend reuse] [--solver-stats]
    python -m repro.cli control --benchmark alpha [--controller bangbang]
                                [--steps 400] [--dt 0.01]
                                [--control-period 0.05] [--solver-stats]
    python -m repro.cli chiplet [--chiplet 8,8,0,0,30 --chiplet 8,8,0,10,30]
                                [--deploy] [--per-chiplet-current]
                                [--no-interposer] [--board-resistance 2.0]
                                [--backend mg] [--json OUT]
    python -m repro.cli validate [--refine 2]
    python -m repro.cli runaway [--benchmark alpha]
    python -m repro.cli conjecture [--matrices 500]
    python -m repro.cli serve [--host 127.0.0.1] [--port 8080]
                              [--pool-size 8] [--batch-max 64]
                              [--threads 4] [--workers 4]
    python -m repro.cli info

Every subcommand returns a process exit code of 0 on success and 1 on
an infeasible/failed outcome, so the CLI composes into scripts.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import __version__
from repro.utils.validate import check_nonnegative, check_tile_indices

#: Solver backends exposed by ``--backend`` / ``--solver-mode``.
#: Mirrors :data:`repro.thermal.solve.SOLVER_MODES` without importing
#: the scientific stack at parser-build time; unknown backends fail at
#: parse time with this list, uniformly across every subcommand
#: (``tests/test_cli.py::TestBackendValidation``).
_BACKENDS = ("direct", "reuse", "mg", "auto")

#: Reduced-order modes exposed by ``--rom``.  Mirrors
#: :data:`repro.linalg.mor.ROM_MODES` (same deferred-import rationale
#: as :data:`_BACKENDS`).
_ROM_MODES = ("auto", "always", "off")


def add_backend_argument(parser, *, flags=("--backend",), dest="backend", help=None):
    """Register the shared ``--backend`` choice on a (sub)parser.

    Every subcommand that selects a solver backend (``sweep``,
    ``solve``, ``transient``, ``control``, ``serve``) goes through this
    helper, so the choice list exists in exactly one place and an
    unknown backend fails identically everywhere.  ``flags``/``dest``
    accommodate the ``--solver-mode`` alias, ``help`` the per-command
    phrasing.
    """
    parser.add_argument(
        *flags, dest=dest, choices=list(_BACKENDS), default=None,
        help=help or "solver backend (default: the problem default, 'reuse')",
    )


def _rom_parent_parser():
    """Parent parser carrying the reduced-order flags.

    ``repro transient`` and ``repro control`` share it via argparse
    ``parents=`` so the ``--rom*`` trio is declared once, next to the
    backend helper the same subcommands reuse.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--rom", choices=list(_ROM_MODES), default="auto",
        help="certified reduced-order transient kernel: 'auto' engages "
             "on large models, 'always' forces it, 'off' integrates at "
             "full order (default auto)",
    )
    parent.add_argument(
        "--rom-dim", type=int, default=None, metavar="R",
        help="target Krylov basis dimension (default 48)",
    )
    parent.add_argument(
        "--rom-tol", type=float, default=None, metavar="K",
        help="certified max-error budget vs the full-order trajectory, "
             "in Kelvin (default 1e-3)",
    )
    return parent


def _int_value(text):
    """``int(text)``, or argparse's own "invalid int value" refusal."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: {!r}".format(text)
        )


def _workers_count(text):
    """argparse type for ``--workers``: a positive integer.

    Shares :func:`repro.sweep.runner.validate_workers` with the
    library (imported lazily — argparse types only run at parse time),
    so the CLI and ``SweepRunner`` enforce the identical contract.
    """
    value = _int_value(text)
    from repro.sweep.runner import validate_workers

    try:
        return validate_workers(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "--workers must be a positive integer, got {}".format(value)
        )


def _benchmark_name(text):
    """argparse type for ``--benchmark`` / ``--benchmarks``: a
    registered Table I name (the registry is imported lazily)."""
    from repro.experiments.benchmarks import BENCHMARKS

    if text not in BENCHMARKS:
        raise argparse.ArgumentTypeError(
            "unknown benchmark {!r} (choose from {})".format(
                text, ", ".join(sorted(BENCHMARKS))
            )
        )
    return text


def _port_number(text):
    """argparse type for ``--port``: a TCP port in [0, 65535]."""
    value = _int_value(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            "--port must be in [0, 65535], got {}".format(value)
        )
    return value


def _rounds_count(text):
    """argparse type for ``--max-rounds``: a positive integer.

    Zero rounds would report the bare chip as infeasible without
    deploying anything — surprising from a CLI, so it is rejected up
    front (the library accepts 0 for programmatic use).
    """
    value = _int_value(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "--max-rounds must be a positive integer, got {}".format(value)
        )
    return value


def _print_round_stats(rounds, indent="  "):
    """Per-round GreedyDeploy instrumentation lines (``--round-stats``).

    Sweep-borne payloads strip the wall-clock fields (they are
    execution metadata, excluded from the bit-reproducible ``values``);
    the timing segment is omitted rather than printed as zero.
    """
    for entry in rounds:
        warm = "warm" if entry.get("current_warm") else "cold"
        wall = entry.get("wall_s")
        timing = "" if wall is None else "{:.3f} s, ".format(wall)
        print(
            "{}round {}: {}{} evals ({} bracket), runaway {} "
            "(lambda_m {:.4g} A)".format(
                indent,
                entry.get("index"),
                timing,
                entry.get("evaluations", 0),
                warm,
                entry.get("runaway_method", "?"),
                entry.get("lambda_m", float("nan")),
            )
        )


def _add_table1(subparsers):
    parser = subparsers.add_parser(
        "table1", help="reproduce Table I (all or selected benchmarks)"
    )
    parser.add_argument(
        "--benchmarks", nargs="+", type=_benchmark_name, default=None,
        help="benchmark names (default: every Table I row)",
    )
    parser.add_argument("--markdown", action="store_true", help="markdown output")
    parser.add_argument("--json", metavar="PATH", help="also write rows as JSON")
    parser.add_argument(
        "--workers", type=_workers_count, default=None, metavar="N",
        help="fan the rows out over a process pool of N workers, N >= 1 "
             "(default: serial; results are bit-identical either way)",
    )
    parser.add_argument(
        "--sweep-report", metavar="PATH",
        help="write the sweep engine's report (timings, solver stats, "
             "per-row payloads) as JSON",
    )
    parser.add_argument(
        "--max-rounds", type=_rounds_count, default=None, metavar="N",
        help="greedy-round budget per row, N >= 1 (default: run to "
             "natural termination; exhausted rows report infeasible)",
    )
    parser.add_argument(
        "--round-stats", action="store_true",
        help="print per-round GreedyDeploy instrumentation (evaluations, "
             "cold or warm bracket, runaway method and lambda_m) after "
             "the table",
    )
    parser.set_defaults(func=_cmd_table1)


def _cmd_table1(args):
    from repro.experiments.table1 import run_table1
    from repro.io.results import rows_to_json, sweep_report_to_json

    comparison = run_table1(
        args.benchmarks, workers=args.workers,
        max_rounds=args.max_rounds,
    )
    print(comparison.render(markdown=args.markdown))
    print()
    print(
        "averages: P_TEC {:.2f} W (paper 1.70), SwingLoss {:.1f} C (paper 4.2)".format(
            comparison.avg_p_tec_w, comparison.avg_swing_loss_c
        )
    )
    if args.round_stats:
        print()
        for result in comparison.sweep_report.results:
            rounds = result.values.get("round_stats", [])
            print("{} ({} rounds):".format(result.name, len(rounds)))
            _print_round_stats(rounds)
    if args.json:
        rows_to_json(comparison.rows, args.json, metadata={"tool": "repro " + __version__})
        print("rows written to {}".format(args.json))
    if args.sweep_report:
        sweep_report_to_json(
            comparison.sweep_report, args.sweep_report,
            metadata={"tool": "repro " + __version__},
        )
        print("sweep report written to {}".format(args.sweep_report))
    return 0 if all(row.feasible for row in comparison.rows) else 1


def _add_sweep(subparsers):
    parser = subparsers.add_parser(
        "sweep",
        help="run a many-scenario sweep (power scaling or Pareto budgets) "
             "over the parallel sweep engine",
    )
    parser.add_argument(
        "--benchmark", type=_benchmark_name, default="alpha",
        help="base benchmark",
    )
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument(
        "--power-scales", nargs="+", type=float, default=None,
        metavar="FACTOR",
        help="GreedyDeploy capability envelope over scaled power maps "
             "(default sweep: 0.9 1.0 1.1 1.2 1.3)",
    )
    kind.add_argument(
        "--budgets", nargs="+", type=float, default=None, metavar="W",
        help="Pareto budget sweep (W) over the benchmark's greedy deployment",
    )
    parser.add_argument(
        "--limit", type=float, default=85.0,
        help="temperature limit for power-scaling sweeps (default 85 C)",
    )
    parser.add_argument(
        "--workers", type=_workers_count, default=None, metavar="N",
        help="process-pool size, N >= 1 (default: serial)",
    )
    add_backend_argument(
        parser,
        help="pin every scenario to one solver backend "
             "(default: the problem default, 'reuse')",
    )
    parser.add_argument(
        "--sweep-report", metavar="PATH", help="write the SweepReport as JSON"
    )
    parser.set_defaults(func=_cmd_sweep)


def _cmd_sweep(args):
    from repro.io.results import sweep_report_to_json
    from repro.sweep import SweepRunner, SweepSpec

    if args.budgets is not None:
        from repro.core.deploy import greedy_deploy
        from repro.core.pareto import front_from_sweep
        from repro.experiments.benchmarks import load_benchmark

        greedy = greedy_deploy(load_benchmark(args.benchmark))
        spec = SweepSpec.budget_sweep(
            args.benchmark, greedy.tec_tiles, args.budgets
        )
    else:
        factors = args.power_scales or (0.9, 1.0, 1.1, 1.2, 1.3)
        spec = SweepSpec.power_scaling(
            args.benchmark, factors=factors, limit_c=args.limit
        )
    if args.backend is not None:
        spec = spec.with_backend(args.backend)
    report = SweepRunner(args.workers).run(spec)
    if args.budgets is not None and report.ok:
        front = front_from_sweep(report)
        print("{:>12} {:>10} {:>12} {:>10}".format(
            "budget (W)", "i (A)", "P_TEC (W)", "peak (C)"))
        for point in front.points:
            print("{:>12.4g} {:>10.3f} {:>12.4g} {:>10.2f}".format(
                point.budget_w, point.current_a, point.p_tec_w, point.peak_c))
    else:
        for result in report.results:
            values = result.values
            print("{:<16} feasible={} TECs={:<3} i={:.2f} A peak={:.2f} C".format(
                result.name, values["feasible"], values["num_tecs"],
                values["current_a"], values["peak_c"]))
    print()
    print(report.summary())
    if args.sweep_report:
        sweep_report_to_json(
            report, args.sweep_report, metadata={"tool": "repro " + __version__}
        )
        print("sweep report written to {}".format(args.sweep_report))
    return 0 if report.ok else 1


def _add_solve(subparsers):
    parser = subparsers.add_parser(
        "solve", help="run GreedyDeploy on a benchmark or a custom .flp chip"
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--benchmark", type=_benchmark_name, help="registered benchmark name"
    )
    source.add_argument("--flp", metavar="PATH", help="HotSpot floorplan file")
    parser.add_argument(
        "--powers", metavar="PATH",
        help="JSON file of unit worst-case powers (required with --flp)",
    )
    parser.add_argument(
        "--rows", type=int, default=12, help="tile rows for --flp (default 12)"
    )
    parser.add_argument(
        "--cols", type=int, default=12, help="tile cols for --flp (default 12)"
    )
    parser.add_argument(
        "--limit", type=float, default=None,
        help="max allowable temperature in C (default: benchmark's own / 85)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the result as JSON")
    parser.add_argument(
        "--full-cover", action="store_true",
        help="also run the Full-Cover baseline and report SwingLoss",
    )
    _add_solver_options(parser)
    parser.add_argument(
        "--max-rounds", type=_rounds_count, default=None, metavar="N",
        help="greedy-round budget, N >= 1 (default: run to natural "
             "termination; an exhausted budget reports infeasible)",
    )
    parser.add_argument(
        "--round-stats", action="store_true",
        help="print per-round GreedyDeploy instrumentation (evaluations, "
             "cold or warm bracket, runaway method and lambda_m) after "
             "the run",
    )
    parser.set_defaults(func=_cmd_solve)


def _cmd_solve(args):
    from repro.core.baselines import full_cover
    from repro.core.deploy import greedy_deploy
    from repro.io.results import deployment_to_dict

    problem = _load_problem(args)
    if args.limit is not None:
        problem = problem.with_limit(args.limit)
    if args.solver_mode is not None or args.solver_cache_size is not None:
        problem.configure_solver(
            mode=args.solver_mode, cache_size=args.solver_cache_size
        )

    result = greedy_deploy(problem, max_rounds=args.max_rounds)
    print("problem: {} (limit {:.1f} C)".format(problem.name, problem.max_temperature_c))
    print("feasible:     {}".format(result.feasible))
    print("no-TEC peak:  {:.2f} C".format(result.no_tec_peak_c))
    print("devices:      {}".format(result.num_tecs))
    print("I_opt:        {:.2f} A".format(result.current))
    print("P_TEC:        {:.2f} W".format(result.tec_power_w))
    print("cooled peak:  {:.2f} C".format(result.peak_c))
    print("tiles:        {}".format(list(result.tec_tiles)))
    if args.full_cover:
        baseline = full_cover(problem)
        print("full-cover best peak: {:.2f} C (SwingLoss {:.2f} C)".format(
            baseline.min_peak_c, baseline.min_peak_c - result.peak_c))
    if args.round_stats and result.deploy_stats is not None:
        print("round stats ({}):".format(result.deploy_stats.summary()))
        _print_round_stats([r.as_dict() for r in result.deploy_stats.rounds])
    if args.solver_stats and result.solver_stats is not None:
        print("solver stats ({} backend):".format(problem.solver_mode))
        for line in result.solver_stats.summary().splitlines():
            print("  " + line)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(deployment_to_dict(result), handle, indent=2)
        print("result written to {}".format(args.json))
    return 0 if result.feasible else 1


def _load_problem(args):
    from repro.core.problem import CoolingSystemProblem
    from repro.experiments.benchmarks import load_benchmark

    if args.benchmark:
        return load_benchmark(args.benchmark)
    if not args.powers:
        raise SystemExit("--flp requires --powers (JSON of unit powers)")
    from repro.io.flp import floorplan_from_flp
    from repro.thermal.geometry import TileGrid

    with open(args.powers) as handle:
        unit_powers = json.load(handle)
    grid = TileGrid(args.rows, args.cols)
    floorplan = floorplan_from_flp(args.flp, grid, unit_powers)
    return CoolingSystemProblem.from_floorplan(floorplan, name=args.flp)


def _add_solver_options(parser):
    """The shared solver-backend flags (``solve``/``transient``/``control``)."""
    add_backend_argument(
        parser,
        flags=("--backend", "--solver-mode"),
        dest="solver_mode",
        help="steady-state solver backend: 'reuse' (condensed onto the "
             "TEC support, default), 'direct' (one sparse SPD "
             "factorization per distinct current), 'mg' "
             "(multigrid-preconditioned CG), or 'auto' (mg on large "
             "grids, else reuse vs direct by support size)",
    )
    parser.add_argument(
        "--solver-cache-size", type=int, default=None,
        help="per-current factorization/solution cache size (default 8)",
    )
    parser.add_argument(
        "--solver-stats", action="store_true",
        help="print solve-engine instrumentation after the run",
    )


def _deployed_model(args):
    """Problem + deployed model for ``transient`` / ``control``.

    ``--tiles`` fixes the deployment explicitly; without it the
    benchmark's GreedyDeploy solution is used (and its optimum current
    becomes the default current where one is needed).
    """
    from repro.experiments.benchmarks import load_benchmark

    problem = load_benchmark(args.benchmark)
    if args.solver_mode is not None or args.solver_cache_size is not None:
        problem.configure_solver(
            mode=args.solver_mode, cache_size=args.solver_cache_size
        )
    greedy = None
    if args.tiles:
        tiles = check_tile_indices(args.tiles, problem.grid.num_tiles, "--tiles")
    else:
        from repro.core.deploy import greedy_deploy

        greedy = greedy_deploy(problem)
        tiles = tuple(greedy.tec_tiles)
    return problem, problem.model(tiles), greedy


def _check_current(args):
    """Reject a negative or non-finite ``--current`` before any build."""
    if args.current is not None:
        check_nonnegative(args.current, "--current")


def _default_current(model, greedy):
    """Fall back to the deployment's Problem 2 optimum current."""
    if greedy is not None:
        return float(greedy.current)
    from repro.core.current import minimize_peak_temperature

    return float(minimize_peak_temperature(model).current)


def _print_solver_stats(problem, delta):
    print("solver stats ({} backend):".format(problem.solver_mode))
    for line in delta.summary().splitlines():
        print("  " + line)


def _add_transient(subparsers):
    parser = subparsers.add_parser(
        "transient",
        help="backward-Euler warm-up trajectory of a deployment "
             "(shared solve-session with the steady solver)",
        parents=[_rom_parent_parser()],
    )
    parser.add_argument(
        "--benchmark", type=_benchmark_name, default="alpha",
        help="registered benchmark",
    )
    parser.add_argument(
        "--tiles", nargs="+", type=int, default=None, metavar="TILE",
        help="deployed TEC tiles (default: the benchmark's greedy solution)",
    )
    parser.add_argument(
        "--current", type=float, default=None, metavar="A",
        help="fixed supply current (default: the deployment's I_opt)",
    )
    parser.add_argument(
        "--dt", type=float, default=1.0e-3, metavar="S",
        help="backward-Euler step in seconds (default 1 ms)",
    )
    parser.add_argument(
        "--steps", type=int, default=200, metavar="N",
        help="integration steps (default 200)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the result as JSON")
    _add_solver_options(parser)
    parser.set_defaults(func=_cmd_transient)


def _cmd_transient(args):
    from repro.thermal.transient import TransientSimulator

    if not args.dt > 0.0:
        raise SystemExit("repro transient: error: --dt must be positive")
    if args.steps < 1:
        raise SystemExit("repro transient: error: --steps must be >= 1")
    _check_current(args)
    problem, model, greedy = _deployed_model(args)
    current = (
        float(args.current) if args.current is not None
        else _default_current(model, greedy)
    )
    stats_before = problem.solver_stats.copy()
    simulator = TransientSimulator(
        model, current=current, dt=args.dt, initial_state="ambient",
        rom=args.rom, rom_dim=args.rom_dim, rom_tol=args.rom_tol,
    )
    trace = simulator.run(args.steps)
    steady_peak = float(model.solve(current).peak_silicon_c)
    delta = problem.solver_stats.diff(stats_before)
    final_peak = float(trace[-1])
    max_peak = float(trace.max())
    print("problem: {} (limit {:.1f} C)".format(problem.name, problem.max_temperature_c))
    print("deployment:  {} TECs at i = {:.3f} A".format(len(model.stamps), current))
    print("integrated:  {} steps of {:.4g} s ({:.4g} s total)".format(
        args.steps, args.dt, args.steps * args.dt))
    print("final peak:  {:.2f} C".format(final_peak))
    print("max peak:    {:.2f} C".format(max_peak))
    print("steady peak: {:.2f} C (gap {:.3f} C)".format(
        steady_peak, steady_peak - final_peak))
    if simulator.rom_active:
        print("rom:         dim {} certified error {:.2e} K".format(
            simulator.rom_stats()["dim"], simulator.certified_error_k))
    if args.solver_stats:
        _print_solver_stats(problem, delta)
    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "tec_tiles": [int(stamp.tile) for stamp in model.stamps],
            "current_a": current,
            "dt_s": float(args.dt),
            "steps": int(args.steps),
            "peak_trace_c": [float(v) for v in trace],
            "final_peak_c": final_peak,
            "max_peak_c": max_peak,
            "steady_peak_c": steady_peak,
            "steady_gap_c": steady_peak - final_peak,
            "solver_stats": delta.as_dict(),
            "rom": (
                dict(
                    simulator.rom_stats(),
                    certified_error_k=simulator.certified_error_k,
                )
                if simulator.rom_active else None
            ),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print("result written to {}".format(args.json))
    return 0 if max_peak <= problem.max_temperature_c else 1


def _add_control(subparsers):
    parser = subparsers.add_parser(
        "control",
        help="closed-loop DTM simulation (controller + sensors over the "
             "shared solve-session)",
        parents=[_rom_parent_parser()],
    )
    parser.add_argument(
        "--benchmark", type=_benchmark_name, default="alpha",
        help="registered benchmark",
    )
    parser.add_argument(
        "--tiles", nargs="+", type=int, default=None, metavar="TILE",
        help="deployed TEC tiles (default: the benchmark's greedy solution)",
    )
    parser.add_argument(
        "--controller", choices=("bangbang", "pi", "constant"),
        default="bangbang", help="DTM policy (default bangbang)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None, metavar="C",
        help="controller threshold/setpoint in C (default: the "
             "benchmark's temperature limit)",
    )
    parser.add_argument(
        "--current", type=float, default=None, metavar="A",
        help="constant-controller command (default: the deployment's I_opt)",
    )
    parser.add_argument(
        "--steps", type=int, default=400, metavar="N",
        help="integration steps (default 400)",
    )
    parser.add_argument(
        "--dt", type=float, default=0.01, metavar="S",
        help="integration step in seconds (default 10 ms)",
    )
    parser.add_argument(
        "--control-period", type=float, default=0.05, metavar="S",
        help="seconds between controller updates (default 50 ms)",
    )
    parser.add_argument(
        "--quantum", type=float, default=0.05, metavar="A",
        help="current quantization step for factorization caching "
             "(default 0.05 A)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the result as JSON")
    _add_solver_options(parser)
    parser.set_defaults(func=_cmd_control)


def _cmd_control(args):
    from repro.control.controllers import (
        BangBangController,
        ConstantCurrentController,
        PiController,
    )
    from repro.control.loop import ClosedLoopSimulator
    from repro.control.sensors import SensorArray

    if args.steps < 1:
        raise SystemExit("repro control: error: --steps must be >= 1")
    _check_current(args)
    problem, model, greedy = _deployed_model(args)
    threshold = (
        float(args.threshold) if args.threshold is not None
        else float(problem.max_temperature_c)
    )
    if args.controller == "bangbang":
        controller = BangBangController(threshold)
    elif args.controller == "pi":
        controller = PiController(threshold)
    else:
        current = (
            float(args.current) if args.current is not None
            else _default_current(model, greedy)
        )
        controller = ConstantCurrentController(current)
    # Deterministic sensors: noise-free, unquantized, fixed stream —
    # the CLI's runs must be reproducible for scripting.
    sensor_tiles = {int(stamp.tile) for stamp in model.stamps}
    sensor_tiles.add(int(model.solve(0.0).peak_tile))
    sensors = SensorArray(sensor_tiles, noise_std_c=0.0, quantization_c=0.0, seed=0)
    simulator = ClosedLoopSimulator(
        model, controller, sensors,
        dt=args.dt, control_period=args.control_period,
        current_quantum=args.quantum,
        rom=args.rom, rom_dim=args.rom_dim, rom_tol=args.rom_tol,
    )
    result = simulator.run(args.steps)
    final_peak = float(result.true_peak_c[-1])
    print("problem: {} (limit {:.1f} C)".format(problem.name, problem.max_temperature_c))
    print("loop:        {} controller, threshold {:.1f} C, {} TECs".format(
        args.controller, threshold, len(model.stamps)))
    print("integrated:  {} steps of {:.4g} s ({:.4g} s total)".format(
        args.steps, args.dt, args.steps * args.dt))
    print("max peak:    {:.2f} C (true)".format(result.max_true_peak_c))
    print("final peak:  {:.2f} C at i = {:.2f} A".format(
        final_peak, float(result.current_a[-1])))
    print("time above limit: {:.1%}".format(result.time_above(problem.max_temperature_c)))
    print("TEC energy:  {:.3f} J".format(result.tec_energy_j))
    print("factorizations: {} current levels ({} evicted)".format(
        result.factorizations, result.evictions))
    print("wall clock:  {:.3f} s for {} steps".format(result.wall_s, result.steps))
    if result.rom is not None:
        print("rom:         dim {} certified error {:.2e} K".format(
            result.rom["dim"], result.rom["certified_error_k"]))
    if args.solver_stats:
        from repro.thermal.session import SolverStats

        _print_solver_stats(problem, SolverStats(**result.solver_stats))
    if args.json:
        payload = {
            "benchmark": args.benchmark,
            "tec_tiles": [int(stamp.tile) for stamp in model.stamps],
            "controller": args.controller,
            "threshold_c": threshold,
            "dt_s": float(args.dt),
            "control_period_s": float(args.control_period),
            "current_quantum_a": float(args.quantum),
            "steps": int(args.steps),
            "max_true_peak_c": result.max_true_peak_c,
            "final_peak_c": final_peak,
            "final_current_a": float(result.current_a[-1]),
            "time_above_limit": result.time_above(problem.max_temperature_c),
            "tec_energy_j": float(result.tec_energy_j),
            "factorizations": int(result.factorizations),
            "evictions": int(result.evictions),
            "solver_stats": result.solver_stats,
            "wall_s": float(result.wall_s),
            "rom": result.rom,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print("result written to {}".format(args.json))
    return 0 if final_peak <= problem.max_temperature_c else 1


def _add_validate(subparsers):
    parser = subparsers.add_parser(
        "validate", help="compact model vs fine-grid reference (< 1.5 C claim)"
    )
    parser.add_argument("--refine", type=int, default=1)
    parser.add_argument("--trace-steps", type=int, default=20)
    parser.set_defaults(func=_cmd_validate)


def _cmd_validate(args):
    from repro.experiments.validation import run_validation

    outcome = run_validation(
        refine=args.refine, trace_steps=args.trace_steps,
        snapshots=(args.trace_steps - 1,),
    )
    for label, value in sorted(outcome.per_case.items()):
        print("  {:<24} worst |diff| = {:.3f} C".format(label, value))
    print("overall worst: {:.3f} C (tolerance {:.1f} C) -> {}".format(
        outcome.worst_abs_diff_c, outcome.tolerance_c,
        "PASS" if outcome.passed else "FAIL"))
    return 0 if outcome.passed else 1


def _add_runaway(subparsers):
    parser = subparsers.add_parser(
        "runaway", help="runaway current and blow-up curve of a deployment"
    )
    parser.add_argument("--benchmark", type=_benchmark_name, default="alpha")
    parser.set_defaults(func=_cmd_runaway)


def _cmd_runaway(args):
    from repro.core.deploy import greedy_deploy
    from repro.core.runaway import runaway_curve
    from repro.experiments.benchmarks import load_benchmark

    problem = load_benchmark(args.benchmark)
    result = greedy_deploy(problem)
    curve = runaway_curve(result.model, max_fraction=0.9999)
    print("deployment: {} TECs, I_opt {:.2f} A".format(result.num_tecs, result.current))
    print("lambda_m = {:.3f} A".format(curve.lambda_m))
    print("{:>12} {:>16}".format("i (A)", "peak (C)"))
    for current, peak in zip(curve.currents, curve.peak_c):
        print("{:>12.2f} {:>16.1f}".format(current, peak))
    return 0 if curve.diverged else 1


def _add_conjecture(subparsers):
    parser = subparsers.add_parser(
        "conjecture", help="randomized Conjecture 1 verification campaign"
    )
    parser.add_argument("--matrices", type=int, default=200)
    parser.add_argument("--min-size", type=int, default=3)
    parser.add_argument("--max-size", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1364)
    parser.set_defaults(func=_cmd_conjecture)


def _cmd_conjecture(args):
    from repro.linalg.conjecture import run_conjecture_campaign

    result = run_conjecture_campaign(
        args.matrices, size_range=(args.min_size, args.max_size), seed=args.seed
    )
    print("matrices tested: {}".format(result.matrices_tested))
    print("(k,l) pairs:     {}".format(result.pairs_tested))
    print("violations:      {}".format(len(result.violations)))
    print("worst margin:    {:.6e}".format(result.worst_margin))
    print("conjecture {} on this campaign".format("HOLDS" if result.holds else "FAILS"))
    return 0 if result.holds else 1


def _add_report(subparsers):
    parser = subparsers.add_parser(
        "report", help="generate the full markdown experiment report"
    )
    parser.add_argument("--out", metavar="PATH", help="write the report here")
    parser.add_argument(
        "--benchmarks", nargs="+", type=_benchmark_name, default=None,
        help="Table I rows to include (default: all)",
    )
    parser.add_argument("--conjecture-matrices", type=int, default=100)
    parser.set_defaults(func=_cmd_report)


def _cmd_report(args):
    from repro.experiments.report import generate_report

    report = generate_report(
        benchmarks=args.benchmarks,
        conjecture_matrices=args.conjecture_matrices,
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print("report written to {}".format(args.out))
    else:
        print(report)
    return 0


def _add_info(subparsers):
    parser = subparsers.add_parser(
        "info", help="print the calibrated package/device defaults"
    )
    parser.set_defaults(func=_cmd_info)


def _cmd_info(_args):
    from repro.tec.materials import chowdhury_thin_film_tec
    from repro.thermal.stack import PackageStack

    stack = PackageStack()
    device = chowdhury_thin_film_tec()
    print("repro {} — DATE 2010 TEC cooling reproduction".format(__version__))
    print("\npackage stack (calibrated; see DESIGN.md):")
    for layer in stack.conduction_layers():
        side = "{:.1f} mm".format(layer.side * 1e3) if layer.side else "die-sized"
        print("  {:<9} {:>7.0f} um  k={:>5.1f} W/mK  {}".format(
            layer.name, layer.thickness * 1e6,
            layer.material.thermal_conductivity, side))
    print("  convection R = {:.3f} K/W, ambient {:.1f} C".format(
        stack.convection_resistance, stack.ambient_c))
    print("\nTEC device (calibrated thin-film super-lattice):")
    print("  alpha = {:.1e} V/K, r = {:.2f} mohm, kappa = {:.1f} mW/K".format(
        device.seebeck, device.electrical_resistance * 1e3,
        device.thermal_conductance * 1e3))
    print("  contacts g_c = g_h = {:.2f} W/K, footprint {:.1f} x {:.1f} mm".format(
        device.cold_contact_conductance, device.width * 1e3, device.height * 1e3))
    print("  lumped Z = {:.2e} 1/K (ZT = {:.2f} at 358 K)".format(
        device.figure_of_merit, device.zt(358.15)))
    return 0


def _chiplet_spec(text):
    """argparse type for ``--chiplet``: ``rows,cols,row0,col0,power_w``."""
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            "expected rows,cols,row_offset,col_offset,power_w; got {!r}".format(
                text
            )
        )
    try:
        rows, cols, row0, col0 = (int(p) for p in parts[:4])
        power = float(parts[4])
    except ValueError:
        raise argparse.ArgumentTypeError(
            "chiplet fields must be 4 ints and a float, got {!r}".format(text)
        )
    return (rows, cols, row0, col0, power)


def _add_chiplet(subparsers):
    parser = subparsers.add_parser(
        "chiplet",
        help="solve or deploy a 2.5D multi-chiplet package "
             "(shared interposer + spreader/sink)",
    )
    parser.add_argument(
        "--chiplet", dest="chiplets", action="append", type=_chiplet_spec,
        default=None, metavar="R,C,R0,C0,W",
        help="one chiplet as rows,cols,row_offset,col_offset,power_w "
             "(repeatable; default: the two-chiplet demo layout)",
    )
    parser.add_argument(
        "--rows", type=int, default=8,
        help="preset chiplet rows when --chiplet is not given (default 8)",
    )
    parser.add_argument(
        "--cols", type=int, default=8,
        help="preset chiplet cols when --chiplet is not given (default 8)",
    )
    parser.add_argument(
        "--gap", type=int, default=2,
        help="preset lattice columns between the two chiplets (default 2)",
    )
    parser.add_argument(
        "--power", type=float, default=30.0, metavar="W",
        help="preset per-chiplet power when --chiplet is not given "
             "(default 30 W)",
    )
    parser.add_argument(
        "--no-interposer", action="store_true",
        help="drop the interposer (chiplets couple only through the "
             "shared spreader)",
    )
    parser.add_argument(
        "--board-resistance", type=float, default=None, metavar="K/W",
        help="lumped interposer-to-board resistance (default: adiabatic "
             "board)",
    )
    parser.add_argument(
        "--limit", type=float, default=85.0, metavar="C",
        help="temperature limit theta_max in Celsius (default 85)",
    )
    parser.add_argument(
        "--deploy", action="store_true",
        help="run GreedyDeploy (default: report the bare steady state)",
    )
    parser.add_argument(
        "--per-chiplet-current", action="store_true",
        help="after --deploy, optimize one supply current per chiplet "
             "(pin groups) and report the gain over the shared pin",
    )
    parser.add_argument("--json", metavar="PATH", help="write the result as JSON")
    _add_solver_options(parser)
    parser.set_defaults(func=_cmd_chiplet)


def _cmd_chiplet(args):
    import numpy as np

    from repro.core.problem import CoolingSystemProblem
    from repro.thermal.chiplet import (
        InterposerSpec,
        demo_two_chiplet_layout,
        layout_from_plain,
    )

    if args.no_interposer:
        interposer = False
    elif args.board_resistance is not None:
        interposer = InterposerSpec(board_resistance=args.board_resistance)
    else:
        interposer = True
    if args.chiplets:
        layout = layout_from_plain(args.chiplets, interposer=interposer)
    else:
        layout = demo_two_chiplet_layout(
            rows=args.rows, cols=args.cols, gap=args.gap,
            power_w=args.power,
            interposer=(
                None if interposer is True
                else (interposer if interposer is not False else
                      InterposerSpec())
            ),
        )
        if args.no_interposer:
            from dataclasses import replace as _replace

            layout = _replace(layout, interposer=None)
    problem = CoolingSystemProblem.from_chiplet_layout(
        layout, max_temperature_c=args.limit, name="chiplet",
    )
    if args.solver_mode is not None or args.solver_cache_size is not None:
        problem.configure_solver(
            mode=args.solver_mode, cache_size=args.solver_cache_size
        )

    grid = layout.composite_grid()
    print("package: {} chiplet(s), {} tiles on a {}x{} lattice, {:.1f} W".format(
        layout.num_chiplets, grid.num_tiles, grid.rows, grid.cols,
        layout.total_power_w))
    print("interposer: {}".format(
        "none" if layout.interposer is None else
        "{:.0f} um, microbump {:.2f} W/K per tile{}".format(
            layout.interposer.thickness * 1e6,
            layout.interposer.microbump_conductance,
            "" if layout.interposer.board_resistance is None else
            ", board {:.2f} K/W".format(layout.interposer.board_resistance))))

    stats_before = problem.solver_stats.copy()
    payload = {
        "chiplets": [
            [spec.grid.rows, spec.grid.cols, spec.row_offset,
             spec.col_offset, spec.total_power_w]
            for spec in layout.chiplets
        ],
        "limit_c": float(problem.max_temperature_c),
        "interposer": layout.interposer is not None,
    }

    def _per_chiplet_peaks(state):
        return {
            spec.name: float(np.max(
                state.silicon_c[list(layout.chiplet_tiles(index))]
            ))
            for index, spec in enumerate(layout.chiplets)
        }

    if not args.deploy:
        state = problem.model(()).solve(0.0)
        peaks = _per_chiplet_peaks(state)
        print("bare peak:   {:.2f} C (limit {:.1f} C)".format(
            state.peak_silicon_c, problem.max_temperature_c))
        for name, peak in peaks.items():
            print("  {:<12} {:.2f} C".format(name, peak))
        payload.update({
            "task": "solve",
            "peak_c": float(state.peak_silicon_c),
            "per_chiplet_peak_c": peaks,
        })
        exit_code = 0 if state.peak_silicon_c <= problem.max_temperature_c else 1
    else:
        result = problem.deploy()
        by_chiplet = result.tiles_by_chiplet()
        state = result.model.solve(result.current)
        peaks = _per_chiplet_peaks(state)
        print("feasible:     {}".format(result.feasible))
        print("no-TEC peak:  {:.2f} C".format(result.no_tec_peak_c))
        print("devices:      {}".format(result.num_tecs))
        print("I_opt:        {:.2f} A".format(result.current))
        print("P_TEC:        {:.2f} W".format(result.tec_power_w))
        print("cooled peak:  {:.2f} C".format(result.peak_c))
        for name, tiles in by_chiplet.items():
            print("  {:<12} {} TECs, peak {:.2f} C".format(
                name, len(tiles), peaks[name]))
        payload.update({
            "task": "deploy",
            "feasible": bool(result.feasible),
            "num_tecs": int(result.num_tecs),
            "current_a": float(result.current),
            "peak_c": float(result.peak_c),
            "no_tec_peak_c": float(result.no_tec_peak_c),
            "tec_power_w": float(result.tec_power_w),
            "tec_tiles": [int(t) for t in result.tec_tiles],
            "tiles_by_chiplet": {
                name: [int(t) for t in tiles]
                for name, tiles in by_chiplet.items()
            },
            "per_chiplet_peak_c": peaks,
        })
        if args.per_chiplet_current and result.model.stamps:
            from repro.core.multipin import chiplet_groups, optimize_pin_groups

            pins = optimize_pin_groups(
                result.model, groups=chiplet_groups(result.model),
                shared_start=result.current,
            )
            print("per-chiplet currents: {} (peak {:.2f} C, "
                  "gain {:.3f} C over shared pin)".format(
                      ["{:.2f}".format(c) for c in pins.group_currents],
                      pins.peak_c, pins.improvement_c))
            payload["per_chiplet_currents_a"] = [
                float(c) for c in pins.group_currents
            ]
            payload["per_chiplet_peak_after_c"] = float(pins.peak_c)
            payload["per_chiplet_gain_c"] = float(pins.improvement_c)
        exit_code = 0 if result.feasible else 1

    delta = problem.solver_stats.diff(stats_before)
    if args.solver_stats:
        _print_solver_stats(problem, delta)
    payload["solver_stats"] = delta.as_dict()
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print("result written to {}".format(args.json))
    return exit_code


def _add_serve(subparsers):
    parser = subparsers.add_parser(
        "serve",
        help="run the thermal-as-a-service HTTP API "
             "(/solve /sweep /deploy /transient)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=_port_number, default=8080,
        help="TCP port (default 8080; 0 = ephemeral)",
    )
    parser.add_argument(
        "--pool-size", type=int, default=None, metavar="N",
        help="warm-session LRU capacity, distinct chips kept hot "
             "(default 8; 0 disables the warm pool)",
    )
    parser.add_argument(
        "--batch-max", type=int, default=None, metavar="N",
        help="max solve scenarios per coalesced batch (default 64; "
             "same-chip solves queue behind a running one)",
    )
    parser.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="solve-thread tier size for /solve and /transient (default 4)",
    )
    parser.add_argument(
        "--workers", type=_workers_count, default=None, metavar="N",
        help="process-pool tier size for /deploy and /sweep "
             "(default: machine cores)",
    )
    add_backend_argument(
        parser,
        help="default solver backend applied to requests that leave "
             "'backend' unset (default: the problem default, 'reuse')",
    )
    parser.set_defaults(func=_cmd_serve)


def _cmd_serve(args):
    from repro.serve import ServeConfig, create_app
    from repro.serve.server import run

    overrides = {
        "pool_size": args.pool_size,
        "batch_max": args.batch_max,
        "threads": args.threads,
        "workers": args.workers,
        "default_backend": args.backend,
    }
    config = ServeConfig(**{
        key: value for key, value in overrides.items() if value is not None
    })
    app = create_app(config)
    print("repro serve: listening on http://{}:{} "
          "(pool {}, batch max {})".format(
              args.host, args.port, config.pool_size, config.batch_max))
    print("endpoints: POST /solve /sweep /deploy /transient; "
          "GET /healthz /stats — Ctrl-C to stop")
    run(app, host=args.host, port=args.port)
    return 0


def build_parser():
    """Construct the argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On-chip active cooling with thin-film TECs (DATE 2010 reproduction)",
    )
    parser.add_argument("--version", action="version", version="repro " + __version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_table1(subparsers)
    _add_sweep(subparsers)
    _add_solve(subparsers)
    _add_transient(subparsers)
    _add_control(subparsers)
    _add_chiplet(subparsers)
    _add_validate(subparsers)
    _add_runaway(subparsers)
    _add_conjecture(subparsers)
    _add_report(subparsers)
    _add_serve(subparsers)
    _add_info(subparsers)
    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code.

    Flags argparse can check alone (names, counts, ports) fail at parse
    time with exit code 2.  A value refused later — a ``ValueError``
    from the library, or a current at or beyond a deployment's runaway
    limit (e.g. ``transient --current`` past ``lambda_m``) — exits with
    code 1 and ``repro <command>: error: <message>``, never a
    traceback.
    """
    from repro.thermal.session import SingularSystemError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularSystemError, ValueError) as error:
        raise SystemExit("repro {}: error: {}".format(args.command, error))


if __name__ == "__main__":
    sys.exit(main())

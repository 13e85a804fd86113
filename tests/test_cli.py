"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestInfo:
    def test_prints_calibration(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "convection R" in out
        assert "alpha = 2.0e-04" in out


class TestSolve:
    def test_benchmark_solve(self, capsys):
        assert main(["solve", "--benchmark", "hc08"]) == 0
        out = capsys.readouterr().out
        assert "feasible:     True" in out
        assert "I_opt" in out

    def test_infeasible_exit_code(self, capsys):
        # hc06 is infeasible at 85 C (its table limit is 89 C)
        assert main(["solve", "--benchmark", "hc06", "--limit", "85"]) == 1

    def test_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert main(["solve", "--benchmark", "hc08", "--json", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["feasible"] is True
        assert data["num_tecs"] == len(data["tec_tiles"])

    def test_full_cover_flag(self, capsys):
        assert main(["solve", "--benchmark", "hc08", "--full-cover"]) == 0
        assert "SwingLoss" in capsys.readouterr().out

    def test_flp_requires_powers(self, tmp_path):
        flp = tmp_path / "x.flp"
        flp.write_text("u 6e-3 6e-3 0 0\n")
        with pytest.raises(SystemExit):
            main(["solve", "--flp", str(flp)])

    def test_flp_solve(self, tmp_path, capsys):
        from repro.io.flp import write_flp
        from repro.power.alpha import alpha_floorplan

        plan = alpha_floorplan()
        flp = tmp_path / "alpha.flp"
        write_flp(plan, flp)
        powers = tmp_path / "powers.json"
        powers.write_text(
            json.dumps({unit.name: unit.power_w for unit in plan.units})
        )
        code = main([
            "solve", "--flp", str(flp), "--powers", str(powers),
            "--rows", "12", "--cols", "12", "--limit", "85",
        ])
        assert code == 0
        assert "devices:" in capsys.readouterr().out


class TestSolveBackend:
    @pytest.mark.parametrize("flag", ["--backend"])
    def test_direct_backend_accepted(self, capsys, flag):
        assert main(["solve", "--benchmark", "hc08", flag, "direct",
                     "--solver-stats"]) == 0
        out = capsys.readouterr().out
        assert "feasible:     True" in out
        assert "direct backend" in out

    def test_auto_backend_accepted(self, capsys):
        assert main(["solve", "--benchmark", "hc08", "--backend", "auto"]) == 0
        assert "feasible:     True" in capsys.readouterr().out

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--benchmark", "hc08", "--backend", "jacobi"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestTransient:
    _BASE = ["transient", "--benchmark", "hc08", "--tiles", "5", "6",
             "--current", "0.5", "--dt", "0.01", "--steps", "5"]

    def test_explicit_deployment_runs(self, capsys):
        assert main(self._BASE) == 0
        out = capsys.readouterr().out
        assert "final peak:" in out
        assert "steady peak:" in out
        assert "2 TECs at i = 0.500 A" in out

    def test_solver_stats_printed(self, capsys):
        assert main(self._BASE + ["--solver-stats", "--backend", "direct"]) == 0
        out = capsys.readouterr().out
        assert "solver stats (direct backend):" in out
        assert "LU + " in out

    def test_json_written(self, capsys, tmp_path):
        path = tmp_path / "transient.json"
        assert main(self._BASE + ["--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["tec_tiles"] == [5, 6]
        assert payload["steps"] == 5
        assert len(payload["peak_trace_c"]) == 5
        assert payload["max_peak_c"] >= payload["peak_trace_c"][0]

    def test_dt_validated(self, capsys):
        with pytest.raises(SystemExit, match="--dt"):
            main(["transient", "--benchmark", "hc08", "--tiles", "5",
                  "--current", "0.5", "--dt", "0"])

    def test_current_beyond_runaway_exits_with_a_message(self, capsys):
        for backend in ([], ["--backend", "direct"], ["--backend", "mg"]):
            with pytest.raises(SystemExit, match="runaway"):
                main(["transient", "--benchmark", "hc08", "--tiles", "5",
                      "--current", "1e6", "--steps", "2"] + backend)

    def test_steps_validated(self, capsys):
        with pytest.raises(SystemExit, match="--steps"):
            main(["transient", "--benchmark", "hc08", "--tiles", "5",
                  "--current", "0.5", "--steps", "0"])

    @pytest.mark.parametrize("flags, fragment", [
        (["--tiles", "5", "144", "--current", "0.5"], "--tiles entry 144"),
        (["--tiles", "5", "--current", "-1"], "--current"),
        (["--tiles", "5", "--current", "nan"], "--current"),
    ])
    @pytest.mark.parametrize("command", ["transient", "control"])
    def test_bad_input_rejected_with_a_message(self, capsys, command,
                                               flags, fragment):
        with pytest.raises(SystemExit, match=fragment):
            main([command, "--benchmark", "hc08"] + flags)

    @pytest.mark.parametrize("limit", ["10", "nan"])
    def test_solve_limit_below_ambient_rejected(self, capsys, limit):
        with pytest.raises(SystemExit, match="ambient"):
            main(["solve", "--benchmark", "hc08", "--limit", limit])

    @pytest.mark.parametrize("command", [
        ["solve", "--benchmark", "hc08"],
        ["chiplet", "--rows", "4", "--cols", "4"],
    ])
    def test_infinite_limit_rejected(self, capsys, command):
        """An infinite limit is no limit: refused (exit 1), not a
        feasible run with no TECs."""
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--limit", "inf"])
        message = excinfo.value.code
        assert isinstance(message, str)  # exit status 1
        assert "finite" in message


class TestControl:
    _BASE = ["control", "--benchmark", "hc08", "--tiles", "5", "6",
             "--controller", "constant", "--current", "0.5",
             "--dt", "0.01", "--steps", "5"]

    def test_constant_controller_runs(self, capsys):
        assert main(self._BASE) == 0
        out = capsys.readouterr().out
        assert "constant controller" in out
        assert "factorizations:" in out

    def test_bangbang_controller_runs(self, capsys):
        assert main(["control", "--benchmark", "hc08", "--tiles", "5", "6",
                     "--steps", "5", "--dt", "0.01"]) == 0
        assert "bangbang controller" in capsys.readouterr().out

    def test_solver_stats_printed(self, capsys):
        assert main(self._BASE + ["--solver-stats"]) == 0
        assert "solver stats (" in capsys.readouterr().out

    def test_json_written(self, capsys, tmp_path):
        path = tmp_path / "control.json"
        assert main(self._BASE + ["--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["controller"] == "constant"
        assert payload["tec_tiles"] == [5, 6]
        assert payload["factorizations"] >= 1
        assert "solver_stats" in payload

    def test_steps_validated(self, capsys):
        with pytest.raises(SystemExit, match="--steps"):
            main(["control", "--benchmark", "hc08", "--tiles", "5",
                  "--steps", "0"])

    def test_loop_parameters_validated(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["control", "--benchmark", "hc08", "--tiles", "5",
                  "--steps", "5", "--dt", "0"])
        assert "repro control: error" in str(excinfo.value)


class TestRomFlags:
    """The shared ``--rom*`` parent parser on transient and control."""

    def test_modes_track_mor_literal(self):
        from repro import cli
        from repro.linalg.mor import ROM_MODES

        assert cli._ROM_MODES == ROM_MODES

    @pytest.mark.parametrize("command", ["transient", "control"])
    def test_rom_flags_parse(self, command):
        args = build_parser().parse_args(
            [command, "--rom", "always", "--rom-dim", "16",
             "--rom-tol", "1e-4"]
        )
        assert args.rom == "always"
        assert args.rom_dim == 16
        assert args.rom_tol == pytest.approx(1e-4)

    @pytest.mark.parametrize("command", ["transient", "control"])
    def test_rom_defaults(self, command):
        args = build_parser().parse_args([command])
        assert args.rom == "auto"
        assert args.rom_dim is None
        assert args.rom_tol is None

    @pytest.mark.parametrize("command", ["transient", "control"])
    def test_unknown_rom_mode_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--rom", "sometimes"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_transient_rom_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "transient.json"
        argv = TestTransient._BASE + ["--rom", "always", "--json", str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "rom:" in out and "certified error" in out
        payload = json.loads(path.read_text())
        # rom_steps is net of rewound (full-order-replayed) steps.
        assert 0 <= payload["rom"]["rom_steps"] <= 5
        assert payload["rom"]["certified_error_k"] >= 0.0

    def test_control_rom_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "control.json"
        argv = TestControl._BASE + ["--rom", "always", "--json", str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "wall clock:" in out
        assert "certified error" in out
        payload = json.loads(path.read_text())
        assert 0 <= payload["rom"]["rom_steps"] <= 5
        assert payload["wall_s"] > 0.0

    def test_rom_off_json_reports_null(self, tmp_path, capsys):
        path = tmp_path / "transient.json"
        argv = TestTransient._BASE + ["--rom", "off", "--json", str(path)]
        assert main(argv) == 0
        payload = json.loads(path.read_text())
        assert payload["rom"] is None


class TestWorkersValidation:
    """``--workers N`` with N < 1 must die with a clear argparse error,
    not a ProcessPoolExecutor traceback."""

    @pytest.mark.parametrize("value", ["0", "-1", "-4"])
    def test_table1_rejects_nonpositive(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--benchmarks", "alpha", "--workers", value])
        assert excinfo.value.code == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "-4"])
    def test_sweep_rejects_nonpositive(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--benchmark", "alpha", "--workers", value])
        assert excinfo.value.code == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err

    def test_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--benchmarks", "alpha", "--workers", "two"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_positive_value_parses(self):
        args = build_parser().parse_args(
            ["table1", "--benchmarks", "alpha", "--workers", "2"]
        )
        assert args.workers == 2


class TestRoundsAndEngine:
    """``--max-rounds`` validation mirrors ``--workers``; the
    round-stats flag rides the solve/table1 paths end to end, and the
    removed ``--engine`` flag is a usage error."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_solve_rejects_nonpositive_rounds(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--benchmark", "hc08", "--max-rounds", value])
        assert excinfo.value.code == 2
        assert "--max-rounds must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_table1_rejects_nonpositive_rounds(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--benchmarks", "alpha", "--max-rounds", value])
        assert excinfo.value.code == 2
        assert "--max-rounds must be a positive integer" in capsys.readouterr().err

    def test_non_integer_rounds_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--benchmark", "hc08", "--max-rounds", "two"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_unknown_engine_rejected(self, capsys):
        for argv in (
            ["solve", "--benchmark", "hc08", "--engine", "cold"],
            ["table1", "--benchmarks", "alpha", "--engine", "incremental"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_solve_incremental_with_round_stats(self, capsys):
        # hc05 at 80 C takes two rounds; the second covers 137 tiles,
        # a Peltier support past the warm-round threshold.
        code = main([
            "solve", "--benchmark", "hc05", "--limit", "80", "--round-stats",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "round stats (2 rounds," in out
        assert "round 0:" in out
        assert "(cold start), runaway eigen" in out
        assert "(warm first probe), runaway shift-invert" in out

    def test_solve_max_rounds_caps_loop(self, capsys):
        # hc06 at 85 C is infeasible, so the greedy loop runs multiple
        # rounds; capping at 1 must still exit cleanly (infeasible).
        code = main([
            "solve", "--benchmark", "hc06", "--limit", "85",
            "--max-rounds", "1", "--round-stats",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "round 0:" in out
        assert "round 1:" not in out

    def test_table1_round_stats(self, capsys):
        code = main([
            "table1", "--benchmarks", "alpha", "--round-stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "round 0:" in out


#: Bad inputs that once escaped as tracebacks, with the fragment the
#: refusal names.  What argparse can check alone (benchmark names, the
#: port) exits 2 at parse time; a value the library refuses later
#: exits 1 with ``repro <command>: error: <message>``.
BAD_ARGUMENTS = [
    (["solve", "--benchmark", "nope"], "nope"),
    (["runaway", "--benchmark", "nope"], "nope"),
    (["transient", "--benchmark", "nope"], "nope"),
    (["table1", "--benchmarks", "nope"], "nope"),
    (["sweep", "--budgets", "-1"], "-1"),
    (["transient", "--dt", "nan"], "--dt"),
    (["transient", "--rom", "always", "--rom-dim", "0"], "dim must be >= 1"),
    (["chiplet", "--board-resistance", "-1"], "board_resistance"),
    (["validate", "--refine", "0"], "refine"),
    (["conjecture", "--min-size", "5", "--max-size", "2"], "(5, 2)"),
    (["serve", "--threads", "0"], "threads"),
    (["serve", "--port", "-1"], "--port"),
    # Files written by ``flp_inputs``: a missing file, and a powers
    # file without the ``right`` unit of ``chip.flp``.
    (["solve", "--flp", "chip.flp", "--powers", "missing.json"],
     "missing.json"),
    (["solve", "--flp", "chip.flp", "--powers", "partial.json"],
     "no power given for unit 'right'"),
]


class TestBadInputBoundary:
    @pytest.fixture(autouse=True)
    def flp_inputs(self, tmp_path, monkeypatch):
        """A two-unit ``chip.flp`` (6 x 6 mm, the 12 x 12 default grid)
        and ``partial.json`` powering only its ``left`` unit, in the
        working directory."""
        (tmp_path / "chip.flp").write_text(
            "left 3e-3 6e-3 0 0\nright 3e-3 6e-3 3e-3 0\n"
        )
        (tmp_path / "partial.json").write_text(json.dumps({"left": 1.0}))
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "argv, fragment", BAD_ARGUMENTS,
        ids=[" ".join(argv) for argv, _ in BAD_ARGUMENTS],
    )
    def test_refused_with_a_message_not_a_traceback(self, capsys, argv,
                                                     fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        captured = capsys.readouterr()
        # argparse prints its message and exits 2; main() carries the
        # message in the SystemExit itself (exit code 1 when raised).
        message = code if isinstance(code, str) else captured.err
        assert code not in (0, None)
        assert fragment in message
        assert "Traceback" not in captured.out + captured.err + message


class TestSweepBackend:
    def test_backend_flag_pins_scenarios(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "sweep", "--benchmark", "hc08", "--power-scales", "1.0",
            "--backend", "direct", "--sweep-report", str(report_path),
        ])
        assert code == 0
        from repro.io.results import sweep_report_from_json

        report = sweep_report_from_json(str(report_path))
        assert report.ok

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--benchmark", "alpha", "--backend", "cg"])
        assert excinfo.value.code == 2


class TestBackendValidation:
    """Every backend-taking subcommand validates ``--backend`` at parse
    time against one shared list that tracks ``SOLVER_MODES`` — an
    unknown backend dies with argparse's usage error (exit code 2)
    before any model is built."""

    #: command -> extra argv needed to satisfy parse-time requirements.
    _COMMANDS = {
        "solve": ["--benchmark", "alpha"],
        "sweep": [],
        "transient": [],
        "control": [],
        "serve": [],
    }

    def test_backends_track_solver_modes(self):
        from repro import cli
        from repro.thermal.session import SOLVER_MODES

        assert cli._BACKENDS == SOLVER_MODES

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_unknown_backend_rejected_at_parse_time(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--backend", "jacobi"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize("backend", ["krylov", "cholesky"])
    def test_removed_backend_rejected_at_parse_time(
        self, capsys, command, backend
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, "--backend", backend] + self._COMMANDS[command]
            )
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize("backend", ["direct", "reuse", "mg", "auto"])
    def test_every_solver_mode_parses(self, command, backend):
        argv = [command, "--backend", backend] + self._COMMANDS[command]
        args = build_parser().parse_args(argv)
        assert args.backend == backend

    @pytest.mark.parametrize("command", ["solve", "transient", "control",
                                         "chiplet"])
    @pytest.mark.parametrize("flags", [["--solver-mode", "direct"],
                                       ["--solver-cache-size", "4"]])
    def test_removed_solver_flag_is_a_parse_error(self, capsys, command,
                                                  flags):
        """``--backend`` is the one solver flag; the old alias and the
        cache-size knob are unrecognized arguments (exit code 2)."""
        with pytest.raises(SystemExit) as excinfo:
            main([command] + flags + self._COMMANDS.get(command, []))
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTable1:
    def test_selected_rows(self, capsys, tmp_path):
        out_path = tmp_path / "rows.json"
        code = main(["table1", "--benchmarks", "alpha", "hc08",
                     "--json", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "hc08" in out
        from repro.io.results import rows_from_json

        rows = rows_from_json(str(out_path))
        assert [row.name for row in rows] == ["alpha", "hc08"]

    def test_markdown_flag(self, capsys):
        assert main(["table1", "--benchmarks", "hc08", "--markdown"]) == 0
        assert capsys.readouterr().out.startswith("| bench |")


class TestChiplet:
    def test_one_chiplet_deploy_reports_per_chiplet(self, capsys):
        """A one-chiplet layout is a composite problem: its deployment
        is grouped under the chiplet's name, and the exit code is the
        verdict."""
        code = main([
            "chiplet", "--chiplet", "8,8,0,0,30", "--no-interposer",
            "--deploy",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "feasible:     False" in captured.out
        assert "  chiplet0     64 TECs, peak " in captured.out
        assert "Traceback" not in captured.out + captured.err


class TestValidate:
    def test_pass(self, capsys):
        assert main(["validate", "--refine", "1", "--trace-steps", "8"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestRunaway:
    def test_curve_printed(self, capsys):
        assert main(["runaway", "--benchmark", "hc08"]) == 0
        out = capsys.readouterr().out
        assert "lambda_m" in out


class TestConjecture:
    def test_small_campaign(self, capsys):
        code = main(["conjecture", "--matrices", "10",
                     "--min-size", "3", "--max-size", "5", "--seed", "7"])
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

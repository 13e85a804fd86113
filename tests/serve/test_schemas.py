"""Wire-schema parsing and blueprint hashing."""

import dataclasses

import pytest

from repro.serve.schemas import (
    SchemaError,
    blueprint_key,
    parse_deploy,
    parse_solve,
    parse_sweep,
    parse_transient,
)
from repro.sweep.spec import Scenario, SweepSpec

from tests.serve.helpers import (
    BAD_DEPLOY_SETTINGS,
    SMALL_CHIP,
    small_deploy_body,
    small_solve_body,
)


class TestParseSolve:
    def test_single_current(self):
        scenarios = parse_solve(small_solve_body(current_a=0.7))
        assert len(scenarios) == 1
        scenario = scenarios[0]
        assert scenario.task == "solve"
        assert scenario.current_a == 0.7
        assert scenario.tec_tiles == tuple(SMALL_CHIP["tec_tiles"])

    def test_current_list_fans_out(self):
        body = small_solve_body()
        del body["current_a"]
        body["currents_a"] = [0.2, 0.4, 0.6]
        scenarios = parse_solve(body)
        assert [s.current_a for s in scenarios] == [0.2, 0.4, 0.6]
        assert len({s.name for s in scenarios}) == 3

    def test_benchmark_geometry(self):
        scenarios = parse_solve(
            {"benchmark": "alpha", "tec_tiles": [3], "current_a": 1.0}
        )
        assert scenarios[0].benchmark == "alpha"

    @pytest.mark.parametrize("mutation", [
        {"tec_tiles": None},                  # missing deployment
        {"current_a": None},                  # no current at all
        {"currents_a": []},                   # empty list
        {"currents_a": ["x"]},                # non-numeric
        {"bogus": 1},                         # unknown field
        {"rows": None},                       # broken geometry
    ])
    def test_rejects(self, mutation):
        body = small_solve_body()
        for key, value in mutation.items():
            if value is None:
                body.pop(key, None)
            else:
                body[key] = value
        with pytest.raises(SchemaError):
            parse_solve(body)

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError, match="JSON object"):
            parse_solve([1, 2, 3])

    def test_unknown_benchmark_is_a_schema_error(self):
        # Must be a 400 at parse time, not a KeyError 500 in the worker.
        with pytest.raises(SchemaError, match="unknown benchmark"):
            parse_solve({"benchmark": "nope", "tec_tiles": [1], "current_a": 1.0})


class TestParseTransient:
    def test_builds_transient_scenario(self):
        body = small_solve_body(dt=1e-3, steps=10)
        scenario = parse_transient(body)
        assert scenario.task == "transient"
        assert scenario.dt == 1e-3
        assert scenario.steps == 10

    def test_invalid_steps_surface_as_schema_errors(self):
        with pytest.raises(SchemaError, match="steps"):
            parse_transient(small_solve_body(steps=0))

    def test_rom_fields_forwarded(self):
        body = small_solve_body(
            dt=1e-3, steps=10, rom="always", rom_dim=16, rom_tol=1e-4
        )
        scenario = parse_transient(body)
        assert scenario.rom == "always"
        assert scenario.rom_dim == 16
        assert scenario.rom_tol == pytest.approx(1e-4)

    def test_rom_fields_default_to_none(self):
        scenario = parse_transient(small_solve_body(dt=1e-3, steps=10))
        assert scenario.rom is None
        assert scenario.rom_dim is None
        assert scenario.rom_tol is None

    def test_invalid_rom_mode_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="rom"):
            parse_transient(small_solve_body(steps=10, rom="sometimes"))

    def test_rom_fields_change_the_blueprint_key(self):
        plain = parse_transient(small_solve_body(dt=1e-3, steps=10))
        tuned = parse_transient(
            small_solve_body(dt=1e-3, steps=10, rom="always", rom_dim=24)
        )
        assert blueprint_key(plain) != blueprint_key(tuned)

    def test_sweep_scenarios_accept_rom_fields(self):
        body = {
            "name": "rom-sweep",
            "scenarios": [dict(
                small_solve_body(dt=1e-3, steps=5, rom="always"),
                name="t", task="transient",
            )],
        }
        spec = parse_sweep(body)
        assert spec.scenarios[0].rom == "always"


class TestParseDeploy:
    def test_default_is_greedy(self):
        body = {key: SMALL_CHIP[key] for key in ("rows", "cols", "power_map")}
        body["limit_c"] = 89.0
        scenario = parse_deploy(body)
        assert scenario.task == "greedy"
        assert scenario.limit_c == 89.0

    def test_full_cover_selects_table1(self):
        scenario = parse_deploy({"benchmark": "alpha", "full_cover": True})
        assert scenario.task == "table1"

    def test_engine_rejected(self):
        with pytest.raises(SchemaError, match=r"unknown field\(s\).*engine"):
            parse_deploy({"benchmark": "alpha", "engine": "incremental"})

    def test_deploy_settings_forwarded(self):
        scenario = parse_deploy(small_deploy_body(
            max_rounds=2, current_tolerance=1e-5,
        ))
        assert scenario.max_rounds == 2
        assert scenario.current_tolerance == 1e-5

    @pytest.mark.parametrize("overrides, fragment", BAD_DEPLOY_SETTINGS)
    def test_bad_deploy_settings_rejected(self, overrides, fragment):
        with pytest.raises(SchemaError, match=fragment):
            parse_deploy(small_deploy_body(**overrides))


class TestParseSweep:
    def test_spec_roundtrip(self):
        spec = SweepSpec(
            scenarios=(
                Scenario(name="a", task="solve", benchmark="alpha",
                         tec_tiles=(1, 2), current_a=0.5),
                Scenario(name="b", task="greedy", benchmark="alpha"),
            ),
            name="wire-trip",
        )
        wire = {
            "name": spec.name,
            "scenarios": [
                {k: v for k, v in dataclasses.asdict(s).items() if v is not None}
                for s in spec
            ],
        }
        parsed = parse_sweep(wire)
        assert parsed.name == spec.name
        assert parsed.scenarios == spec.scenarios

    def test_duplicate_names_rejected(self):
        entry = {"name": "dup", "task": "greedy", "benchmark": "alpha"}
        with pytest.raises(SchemaError, match="duplicate"):
            parse_sweep({"scenarios": [entry, dict(entry)]})

    def test_needs_scenarios(self):
        with pytest.raises(SchemaError, match="scenarios"):
            parse_sweep({"name": "empty"})

    def test_entry_needs_name_and_task(self):
        with pytest.raises(SchemaError, match="name"):
            parse_sweep({"scenarios": [{"task": "greedy", "benchmark": "alpha"}]})

    def test_engine_field_rejected(self):
        entry = {"name": "e", "task": "greedy", "benchmark": "alpha",
                 "engine": "cold"}
        with pytest.raises(SchemaError, match=r"unknown field\(s\).*engine"):
            parse_sweep({"scenarios": [entry]})

    def test_current_method_field_rejected(self):
        entry = {"name": "c", "task": "greedy", "benchmark": "alpha",
                 "current_method": "golden"}
        with pytest.raises(SchemaError,
                           match=r"unknown field\(s\).*current_method"):
            parse_sweep({"scenarios": [entry]})

    @pytest.mark.parametrize("overrides, fragment", BAD_DEPLOY_SETTINGS)
    def test_bad_deploy_settings_rejected(self, overrides, fragment):
        entry = dict(small_deploy_body(**overrides), name="g", task="greedy")
        with pytest.raises(SchemaError, match=fragment):
            parse_sweep({"scenarios": [entry]})

    @pytest.mark.parametrize("overrides, fragment", [
        ({"rom_dim": True}, "rom_dim"),
        ({"backend": "krylov"}, "backend"),
        ({"backend": "cholesky"}, "backend"),
    ])
    def test_bad_scenario_fields_rejected(self, overrides, fragment):
        entry = dict(small_solve_body(**overrides), name="s", task="solve")
        with pytest.raises(SchemaError, match=fragment):
            parse_sweep({"scenarios": [entry]})


class TestBlueprintKey:
    def _scenario(self, **overrides):
        fields = dict(
            name="x", task="solve", benchmark="alpha",
            tec_tiles=(1, 2), current_a=0.5,
        )
        fields.update(overrides)
        return Scenario(**fields)

    def test_current_and_tiles_do_not_change_the_key(self):
        a = self._scenario()
        b = self._scenario(name="y", current_a=2.5, tec_tiles=(7, 8, 9))
        assert blueprint_key(a) == blueprint_key(b)

    @pytest.mark.parametrize("overrides", [
        {"power_scale": 1.1},
        {"seebeck_factor": 0.5},
        {"backend": "direct"},
        {"limit_c": 80.0},
        {"benchmark": "hc01"},
    ])
    def test_matrix_relevant_fields_change_the_key(self, overrides):
        assert blueprint_key(self._scenario()) != blueprint_key(
            self._scenario(**overrides)
        )

"""Scenario and SweepSpec validation plus the standard builders."""

import pytest

from repro.experiments.benchmarks import benchmark_names
from repro.sweep import TASKS, Scenario, SweepSpec

#: GreedyDeploy settings a scenario must refuse, with the field the
#: message names (the serve tests send the same inputs over HTTP).
#: ``current_method`` is no longer a field, so even its old default is
#: refused (a TypeError naming it).
BAD_DEPLOY_SETTINGS = [
    ({"current_method": "golden"}, "current_method"),
    ({"max_rounds": 2.7}, "max_rounds"),
    ({"max_rounds": True}, "max_rounds"),
]

#: Integer fields given a value that is not a whole number, with the
#: field the refusal names; each was truncated or crashed a worker.
NOT_WHOLE_NUMBERS = [
    ({"steps": 2.7}, "steps"),
    ({"rom_dim": True}, "rom_dim"),
    ({"num_groups": 2.9, "tec_tiles": (0, 1, 2)}, "num_groups"),
    ({"rows": 2.5}, "rows"),
    ({"rows": True}, "rows"),
    ({"power_map": None, "rows": None, "cols": None,
      "chiplets": ((2.7, 3, 0, 0, 1.0),)}, "chiplet rows"),
    ({"task": "solve", "tec_tiles": (1.7, True), "current_a": 0.5},
     "tec_tiles"),
]


def _explicit(name="s", task="greedy", **overrides):
    kwargs = dict(
        name=name,
        task=task,
        rows=2,
        cols=2,
        power_map=(0.1, 0.2, 0.3, 0.4),
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestScenarioValidation:
    def test_unknown_task(self):
        with pytest.raises(ValueError, match="task"):
            Scenario(name="s", task="frobnicate", benchmark="alpha")

    def test_needs_exactly_one_geometry_missing(self):
        with pytest.raises(ValueError, match="geometry"):
            Scenario(name="s", task="greedy")

    def test_needs_exactly_one_geometry_both(self):
        with pytest.raises(ValueError, match="geometry"):
            Scenario(
                name="s", task="greedy", benchmark="alpha",
                rows=2, cols=2, power_map=(0.0,) * 4,
            )

    def test_explicit_needs_rows_and_cols(self):
        with pytest.raises(ValueError, match="rows"):
            Scenario(name="s", task="greedy", power_map=(0.0,) * 4)

    def test_power_map_length_checked(self):
        with pytest.raises(ValueError, match="entries"):
            _explicit(power_map=(0.1, 0.2, 0.3))

    def test_power_map_coerced_to_float_tuple(self):
        scenario = _explicit(power_map=[0, 1, 2, 3])
        assert scenario.power_map == (0.0, 1.0, 2.0, 3.0)

    def test_power_scale_positive(self):
        with pytest.raises(ValueError, match="power_scale"):
            _explicit(power_scale=0.0)

    @pytest.mark.parametrize(
        "task", ["optimize", "solve", "pareto", "transient", "multipin"]
    )
    def test_deployed_tasks_need_tec_tiles(self, task):
        with pytest.raises(ValueError, match="tec_tiles"):
            _explicit(task=task, current_a=1.0, budget_w=1.0)

    def test_tec_tiles_normalized(self):
        scenario = _explicit(task="optimize", tec_tiles=[3, 1, 3, 0])
        assert scenario.tec_tiles == (0, 1, 3)

    def test_backend_defaults_to_none(self):
        assert _explicit().backend is None

    @pytest.mark.parametrize("backend", ["direct", "reuse", "mg", "auto"])
    def test_valid_backends_accepted(self, backend):
        assert _explicit(backend=backend).backend == backend

    @pytest.mark.parametrize("backend", ["krylov", "cholesky"])
    def test_removed_backends_rejected(self, backend):
        with pytest.raises(ValueError, match="backend"):
            _explicit(backend=backend)

    @pytest.mark.parametrize("overrides, fragment", NOT_WHOLE_NUMBERS)
    def test_integer_fields_need_whole_numbers(self, overrides, fragment):
        with pytest.raises(ValueError, match=fragment):
            _explicit(**overrides)

    def test_whole_number_strings_and_floats_coerce(self):
        scenario = _explicit(rows="2", cols=2.0, steps="3")
        assert (scenario.rows, scenario.cols, scenario.steps) == (2, 2, 3)
        deployed = _explicit(task="solve", tec_tiles=("3", 1.0, 1), current_a=0.5)
        assert deployed.tec_tiles == (1, 3)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            _explicit(backend="jacobi")

    def test_unknown_benchmark_rejected(self):
        # At construction, not as a bare KeyError in the worker.
        with pytest.raises(ValueError, match="unknown benchmark 'nope'"):
            Scenario(name="s", task="greedy", benchmark="nope")
        with pytest.raises(ValueError, match="unknown benchmark 'nope'"):
            SweepSpec.table1(["nope"])

    def test_max_rounds_defaults_to_none(self):
        assert _explicit().max_rounds is None

    def test_unknown_engine_rejected(self):
        # GreedyDeploy has one loop; the deploy-engine field is gone.
        with pytest.raises(TypeError, match="engine"):
            _explicit(engine="cold")

    def test_max_rounds_coerced_and_validated(self):
        assert _explicit(max_rounds="3").max_rounds == 3
        assert _explicit(max_rounds=4.0).max_rounds == 4
        assert _explicit(max_rounds=0).max_rounds == 0
        with pytest.raises(ValueError, match="max_rounds"):
            _explicit(max_rounds=-1)

    @pytest.mark.parametrize("overrides, fragment", BAD_DEPLOY_SETTINGS)
    def test_bad_deploy_settings_rejected(self, overrides, fragment):
        with pytest.raises((TypeError, ValueError), match=fragment):
            _explicit(**overrides)

    def test_solve_needs_current(self):
        with pytest.raises(ValueError, match="current_a"):
            _explicit(task="solve", tec_tiles=(0,))

    def test_pareto_needs_budget(self):
        with pytest.raises(ValueError, match="budget_w"):
            _explicit(task="pareto", tec_tiles=(0,))

    def test_pareto_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget_w"):
            _explicit(task="pareto", tec_tiles=(0,), budget_w=-1.0)

    def test_transient_needs_current(self):
        with pytest.raises(ValueError, match="current_a"):
            _explicit(task="transient", tec_tiles=(0,))

    def test_dt_coerced_and_validated(self):
        scenario = _explicit(
            task="transient", tec_tiles=(0,), current_a=0.5, dt="0.01"
        )
        assert scenario.dt == 0.01
        with pytest.raises(ValueError, match="dt"):
            _explicit(task="transient", tec_tiles=(0,), current_a=0.5, dt=0.0)

    def test_steps_coerced_and_validated(self):
        scenario = _explicit(
            task="transient", tec_tiles=(0,), current_a=0.5, steps="50"
        )
        assert scenario.steps == 50
        with pytest.raises(ValueError, match="steps"):
            _explicit(
                task="transient", tec_tiles=(0,), current_a=0.5, steps=0
            )

    def test_rom_mode_validated(self):
        scenario = _explicit(
            task="transient", tec_tiles=(0,), current_a=0.5, rom="always"
        )
        assert scenario.rom == "always"
        with pytest.raises(ValueError, match="rom"):
            _explicit(
                task="transient", tec_tiles=(0,), current_a=0.5,
                rom="sometimes",
            )

    def test_rom_dim_coerced_and_validated(self):
        scenario = _explicit(
            task="transient", tec_tiles=(0,), current_a=0.5, rom_dim="16"
        )
        assert scenario.rom_dim == 16
        with pytest.raises(ValueError, match="rom_dim"):
            _explicit(
                task="transient", tec_tiles=(0,), current_a=0.5, rom_dim=0
            )

    def test_rom_tol_coerced_and_validated(self):
        scenario = _explicit(
            task="transient", tec_tiles=(0,), current_a=0.5, rom_tol="1e-4"
        )
        assert scenario.rom_tol == 1e-4
        with pytest.raises(ValueError, match="rom_tol"):
            _explicit(
                task="transient", tec_tiles=(0,), current_a=0.5, rom_tol=0.0
            )

    def test_rom_fields_default_to_none(self):
        scenario = _explicit(task="transient", tec_tiles=(0,), current_a=0.5)
        assert scenario.rom is None
        assert scenario.rom_dim is None
        assert scenario.rom_tol is None

    def test_num_groups_bounded_by_deployment(self):
        scenario = _explicit(
            task="multipin", tec_tiles=(0, 1), num_groups="2"
        )
        assert scenario.num_groups == 2
        with pytest.raises(ValueError, match="num_groups"):
            _explicit(task="multipin", tec_tiles=(0, 1), num_groups=3)
        with pytest.raises(ValueError, match="num_groups"):
            _explicit(task="multipin", tec_tiles=(0, 1), num_groups=0)

    def test_all_tasks_constructible(self):
        extras = {
            "optimize": dict(tec_tiles=(0,)),
            "solve": dict(tec_tiles=(0,), current_a=0.5),
            "pareto": dict(tec_tiles=(0,), budget_w=0.0),
            "transient": dict(tec_tiles=(0,), current_a=0.5),
            "multipin": dict(tec_tiles=(0,), num_groups=1),
        }
        for task in TASKS:
            scenario = _explicit(task=task, **extras.get(task, {}))
            assert scenario.task == task


#: Client inputs every front end must reject with a message before any
#: build (the serve twin is ``tests/serve/test_app.py::TestBadInput``):
#: field overrides on a 2x2 ``solve`` scenario -> message fragment.
BAD_SCENARIO_INPUTS = [
    ({"current_a": -1.0}, "current_a"),
    ({"current_a": float("nan")}, "current_a"),
    ({"current_a": float("inf")}, "current_a"),
    ({"power_map": (0.1, -0.2, 0.3, 0.4)}, "power_map"),
    ({"power_map": (0.1, float("nan"), 0.3, 0.4)}, "power_map"),
    ({"seebeck_factor": 0.0}, "seebeck_factor"),
    ({"resistance_factor": float("nan")}, "resistance_factor"),
    ({"power_scale": float("nan")}, "power_scale"),
]

#: Fields that must fit the package, checked by ``Scenario.check_chip``
#: (the 2x2 geometry has tiles 0..3, the package ambient is 45 C).
BAD_CHIP_INPUTS = [
    ({"tec_tiles": (1, 99)}, "tec_tiles entry 99"),
    ({"tec_tiles": (-1,)}, "tec_tiles entry -1"),
    ({"tec_tiles": (4,)}, "tec_tiles entry 4"),
    ({"limit_c": 10.0}, "limit_c"),
    ({"limit_c": float("nan")}, "limit_c"),
]


class TestBoundaryValidation:
    @pytest.mark.parametrize("overrides, fragment", BAD_SCENARIO_INPUTS)
    def test_bad_input_rejected_with_a_message(self, overrides, fragment):
        fields = dict(task="solve", tec_tiles=(0,), current_a=0.5)
        fields.update(overrides)
        with pytest.raises(ValueError, match=fragment):
            _explicit(**fields)

    @pytest.mark.parametrize("overrides, fragment", BAD_CHIP_INPUTS)
    def test_chip_check_rejects_with_a_message(self, overrides, fragment):
        fields = dict(task="solve", tec_tiles=(0,), current_a=0.5)
        fields.update(overrides)
        scenario = _explicit(**fields)
        with pytest.raises(ValueError, match=fragment):
            scenario.check_chip()

    def test_chip_check_accepts_a_fitting_scenario(self):
        _explicit(task="solve", tec_tiles=(0, 3), current_a=0.5,
                  limit_c=60.0).check_chip()

    def test_num_tiles_per_geometry(self):
        assert Scenario(name="b", task="greedy", benchmark="hc08").num_tiles == 144
        chiplets = ((2, 3, 0, 0, 1.0), (4, 4, 0, 5, 2.0))
        assert Scenario(name="c", task="greedy", chiplets=chiplets).num_tiles == 22

    @pytest.mark.parametrize("entry", [
        (2, 2, 0, 0, -1.0), (0, 2, 0, 0, 1.0), (2, 2, -1, 0, 1.0),
    ])
    def test_bad_chiplet_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="chiplet"):
            Scenario(name="c", task="greedy", chiplets=(entry,))

    def test_nan_budget_and_dt_rejected(self):
        with pytest.raises(ValueError, match="budget_w"):
            _explicit(task="pareto", tec_tiles=(0,), budget_w=float("nan"))
        with pytest.raises(ValueError, match="dt"):
            _explicit(task="transient", tec_tiles=(0,), current_a=0.5,
                      dt=float("nan"))


class TestGeometryKey:
    def test_limit_siblings_share_key(self):
        a = _explicit(limit_c=80.0)
        b = _explicit(limit_c=90.0)
        assert a.geometry_key() == b.geometry_key()

    def test_deployment_does_not_change_key(self):
        a = _explicit(task="optimize", tec_tiles=(0,))
        b = _explicit(task="optimize", tec_tiles=(1, 2))
        assert a.geometry_key() == b.geometry_key()

    @pytest.mark.parametrize(
        "override",
        [
            dict(power_scale=1.1),
            dict(seebeck_factor=0.5),
            dict(resistance_factor=2.0),
            dict(power_map=(0.1, 0.2, 0.3, 0.5)),
        ],
    )
    def test_package_changes_change_key(self, override):
        assert _explicit().geometry_key() != _explicit(**override).geometry_key()


class TestSweepSpec:
    def test_rejects_non_scenarios(self):
        with pytest.raises(TypeError, match="Scenario"):
            SweepSpec(scenarios=["not a scenario"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(scenarios=[_explicit("same"), _explicit("same")])

    def test_len_and_iter(self):
        spec = SweepSpec(scenarios=[_explicit("a"), _explicit("b")])
        assert len(spec) == 2
        assert [s.name for s in spec] == ["a", "b"]

    def test_geometry_keys_deduplicated(self):
        spec = SweepSpec(
            scenarios=[
                _explicit("a"),
                _explicit("b"),
                _explicit("c", power_scale=1.2),
            ]
        )
        assert len(spec.geometry_keys()) == 2

    def test_with_name(self):
        spec = SweepSpec(scenarios=[_explicit()], name="original")
        renamed = spec.with_name("renamed")
        assert renamed.name == "renamed"
        assert renamed.scenarios == spec.scenarios


class TestBuilders:
    def test_table1_defaults_to_all_benchmarks(self):
        spec = SweepSpec.table1()
        assert [s.name for s in spec] == benchmark_names()
        assert all(s.task == "table1" for s in spec)
        assert all(s.benchmark == s.name for s in spec)

    def test_table1_subset_keeps_order(self):
        spec = SweepSpec.table1(["hc02", "alpha"])
        assert [s.name for s in spec] == ["hc02", "alpha"]

    def test_power_scaling(self):
        spec = SweepSpec.power_scaling("alpha", factors=(0.9, 1.1), limit_c=80.0)
        assert [s.power_scale for s in spec] == [0.9, 1.1]
        assert all(s.task == "greedy" and s.limit_c == 80.0 for s in spec)

    def test_device_grid_is_full_product(self):
        spec = SweepSpec.device_grid(
            "alpha", (3, 4), seebeck_factors=(0.5, 1.0),
            resistance_factors=(1.0, 2.0, 4.0),
        )
        assert len(spec) == 6
        assert all(s.task == "optimize" and s.tec_tiles == (3, 4) for s in spec)
        pairs = {(s.seebeck_factor, s.resistance_factor) for s in spec}
        assert len(pairs) == 6

    def test_budget_sweep_sorted_ascending(self):
        spec = SweepSpec.budget_sweep("alpha", (3,), [1.0, 0.0, 0.5])
        assert [s.budget_w for s in spec] == [0.0, 0.5, 1.0]
        assert all(s.task == "pareto" for s in spec)

    def test_budget_sweep_rejects_empty(self):
        with pytest.raises(ValueError, match="budget"):
            SweepSpec.budget_sweep("alpha", (3,), [])

    def test_solve_grid_cross_product(self):
        spec = SweepSpec.solve_grid(
            ["alpha", "hc01"],
            [("a", (0,)), ("b", (1, 2))],
            [0.5, 1.0],
            power_scales=(1.0, 1.1),
        )
        assert len(spec) == 2 * 2 * 2 * 2
        assert all(s.task == "solve" for s in spec)

    def test_solve_grid_default_backend_unset(self):
        spec = SweepSpec.solve_grid(["alpha"], [("a", (0,))], [0.5])
        assert all(s.backend is None for s in spec)

    def test_solve_grid_backends_axis(self):
        spec = SweepSpec.solve_grid(
            ["alpha"], [("a", (0,))], [0.5],
            backends=("reuse", "direct"),
        )
        assert len(spec) == 2
        assert [s.backend for s in spec] == ["reuse", "direct"]
        # backend names must keep scenario names unique
        assert len({s.name for s in spec}) == 2

    def test_with_backend_pins_every_scenario(self):
        spec = SweepSpec.power_scaling("alpha", factors=(0.9, 1.1))
        pinned = spec.with_backend("mg")
        assert all(s.backend == "mg" for s in pinned)
        assert all(s.backend is None for s in spec)  # original untouched

    def test_with_backend_validates(self):
        spec = SweepSpec.power_scaling("alpha", factors=(1.0,))
        with pytest.raises(ValueError, match="backend"):
            spec.with_backend("jacobi")

"""BENCHMARK.json against the benchmark's own code and the contract."""

import json
import re
from pathlib import Path

import pytest

from perfbench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_top_level_keys(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60


def test_names_and_units(spec):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")


def test_workloads_match_the_runner(spec):
    names = [entry["name"] for entry in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_lists_exactly_the_printed_metrics(spec):
    listed = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    assert listed == layers.END_TO_END
    printed = run.metric_block(dict.fromkeys(layers.END_TO_END, 1.0), layers.END_TO_END)
    assert set(printed) == set(listed)
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25


def test_setup_time_has_the_largest_bound(spec):
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    setup = bounds["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in bounds.values())


def test_per_layer_lists_exactly_the_printed_metrics(spec):
    listed = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    assert listed == layers.PER_LAYER
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert set(layers.SELF_TIME_METRICS.values()) <= set(listed)
    assert set(layers.CALL_METRICS.values()) <= set(listed)
    assert set(layers.VALUE_METRICS.values()) <= set(listed)


def test_runner_fails_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "table1", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

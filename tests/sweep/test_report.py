"""SweepReport aggregation, metrics and summaries (synthetic records)."""

import pytest

from repro.sweep import ScenarioError, ScenarioResult, SweepReport
from repro.thermal.session import SolverStats


def _result(index, name="s", elapsed=1.0, stats=None):
    return ScenarioResult(
        index=index,
        name="{}{}".format(name, index),
        task="solve",
        values={"peak_c": 80.0 + index},
        elapsed_s=elapsed,
        solver_stats=stats,
    )


def _report(**overrides):
    kwargs = dict(
        spec_name="demo",
        backend="process",
        workers=4,
        results=(
            _result(0, stats={"solves": 3, "factorizations": 1}),
            _result(1, stats={"solves": 2, "factorizations": 1}),
        ),
        errors=(
            ScenarioError(
                index=2, name="bad", task="solve",
                error_type="ValueError", message="boom",
            ),
        ),
        wall_time_s=1.0,
        scenario_time_s=2.0,
    )
    kwargs.update(overrides)
    return SweepReport(**kwargs)


class TestMetrics:
    def test_counts(self):
        report = _report()
        assert report.num_scenarios == 3
        assert not report.ok

    def test_ok_without_errors(self):
        assert _report(errors=()).ok

    def test_throughput(self):
        assert _report().throughput == pytest.approx(3.0)
        assert _report(wall_time_s=0.0).throughput == 0.0

    def test_speedup(self):
        assert _report().speedup == pytest.approx(2.0)
        assert _report(wall_time_s=0.0).speedup == 1.0


class TestAggregation:
    def test_solver_stats_merged(self):
        merged = _report().aggregate_solver_stats()
        assert isinstance(merged, SolverStats)
        assert merged.solves == 5
        assert merged.factorizations == 2

    def test_missing_stats_tolerated(self):
        report = _report(results=(_result(0, stats=None),), errors=())
        assert report.aggregate_solver_stats().solves == 0

    def test_result_for_hits_and_misses(self):
        report = _report()
        assert report.result_for("s1").index == 1
        with pytest.raises(KeyError, match="bad"):
            report.result_for("bad")  # failed scenarios are not results


class TestSummary:
    def test_mentions_counts_and_backend(self):
        summary = _report().summary()
        assert "3 scenarios" in summary
        assert "2 ok" in summary
        assert "1 failed" in summary
        assert "process" in summary

    def test_lists_failures(self):
        summary = _report().summary()
        assert "FAILED [2] bad: ValueError: boom" in summary

    def test_clean_summary_has_no_failures(self):
        assert "FAILED" not in _report(errors=()).summary()

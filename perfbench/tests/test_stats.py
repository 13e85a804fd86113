import math
import statistics

import pytest

from perfbench import stats


@pytest.mark.parametrize("count, tails", [
    (1, []),
    (99, []),
    (100, [90.0]),
    (999, [90.0]),
    (1000, [90.0, 99.0]),
    (9999, [90.0, 99.0]),
    (10000, [90.0, 99.0, 99.9]),
])
def test_tail_needs_ten_samples_beyond(count, tails):
    assert stats.supported_tails(count) == tails


def test_summary_reports_count_and_only_supported_tails():
    summary = stats.latency_summary([float(i) for i in range(150)])
    assert summary["n"] == 150
    assert set(summary) == {"n", "p50", "p90"}
    big = stats.latency_summary([1.0] * 1000)
    assert set(big) == {"n", "p50", "p90", "p99"}


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 100.0) == 4.0
    assert stats.percentile([5.0], 99.0) == 5.0


def test_percentile_never_averages_a_failure_away():
    sample = [1.0, 2.0, math.inf]
    assert stats.percentile(sample, 50.0) == 2.0
    assert stats.percentile(sample, 90.0) == math.inf
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_failures_count_and_enter_latency_as_inf():
    outcomes = stats.Outcomes()
    for latency in (10.0, 11.0, 12.0):
        outcomes.ok(latency)
    outcomes.fail("refused")
    assert outcomes.attempted == 4
    assert outcomes.failed == 1
    assert outcomes.error_rate == 0.25
    assert outcomes.latencies_ms[-1] == math.inf
    assert outcomes.failures == ["refused"]
    # Half the sample failed: the median itself misses every limit.
    outcomes.fail("timeout")
    outcomes.fail("wrong answer")
    assert stats.percentile(outcomes.latencies_ms, 50.0) == math.inf


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.quartiles(values)[1] == statistics.median(values)

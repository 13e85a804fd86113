"""Sample statistics shared by the runner, the A/A mode and the tests.

Latency samples may hold ``math.inf``: a job that failed or returned a
wrong answer misses any latency limit, so it enters the sample as
+inf instead of being dropped.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles the benchmark can report, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q):
    """The ``q``-th percentile by linear interpolation between ranks.

    Infinite samples sort last; an interpolation that touches one
    yields +inf, so a failure is never averaged into a finite value.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100], got {}".format(q))
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    a, b = ordered[low], ordered[high]
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return float(a + (b - a) * (position - low))


def supported_tails(count):
    """Tail percentiles with at least ten samples beyond them.

    ``p90`` needs 100 samples, ``p99`` 1000 and ``p99.9`` 10000.
    """
    return [
        q for q in TAIL_PERCENTILES
        if count * (100.0 - q) >= MIN_SAMPLES_BEYOND * 100.0 - 1e-6
    ]


def percentile_name(q):
    """``90.0 -> "p90"``, ``99.9 -> "p99.9"``."""
    text = "{:g}".format(q)
    return "p" + text


def latency_summary(samples_ms):
    """Median plus every supported tail, with the sample count.

    Returns ``{"n": count, "p50": ..., "p90": ...}``; tails appear only
    when :func:`supported_tails` allows them.
    """
    summary = {"n": len(samples_ms), "p50": percentile(samples_ms, 50.0)}
    for q in supported_tails(len(samples_ms)):
        summary[percentile_name(q)] = percentile(samples_ms, q)
    return summary


class Outcomes:
    """Failure accounting for one run.

    Every attempted job is recorded once, with its latency when it
    completed and answered correctly, or as a failure.  Failures count
    toward :attr:`error_rate` and enter the latency sample as +inf.
    """

    def __init__(self):
        self.latencies_ms = []
        self.failed = 0
        self.failures = []

    def ok(self, latency_ms):
        self.latencies_ms.append(float(latency_ms))

    def fail(self, reason):
        self.failed += 1
        self.latencies_ms.append(math.inf)
        if len(self.failures) < 20:
            self.failures.append(str(reason))

    @property
    def attempted(self):
        return len(self.latencies_ms)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def spread(values):
    """Inter-quartile range as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(middle)


def quartiles(values):
    """``(q1, median, q3)`` of a list of run values."""
    q1, _, q3 = statistics.quantiles(list(values), n=4)
    return q1, statistics.median(values), q3

import math

import pytest

from perfbench import tracing, workloads


def test_compare_values_tolerance_and_structure():
    expected = {"peak_c": 84.0, "tiles": [1, 2], "feasible": True, "rom": {"dim": 3}}
    assert workloads.compare_values(dict(expected), expected, 1e-9) is None
    near = dict(expected, peak_c=84.0 + 5e-10)
    assert workloads.compare_values(near, expected, 1e-9) is None
    far = dict(expected, peak_c=84.0 + 5e-9)
    assert "peak_c" in workloads.compare_values(far, expected, 1e-9)
    assert workloads.compare_values(dict(expected, tiles=[1, 3]), expected, 1e-9)
    assert workloads.compare_values(dict(expected, feasible=False), expected, 1e-9)
    assert workloads.compare_values({"peak_c": 84.0}, expected, 1e-9)
    assert workloads.compare_values({"x": math.nan}, {"x": 1.0}, 1e-9)


class CountingWorkload:
    name = "fake"

    def __init__(self, unit, job_s):
        self.unit = unit
        self.job_s = job_s
        self.prepared = []

    def before_job(self, index):
        self.prepared.append(index)

    def job(self, index):
        if index == 3:
            raise RuntimeError("boom")
        import time
        time.sleep(self.job_s)
        return index


def test_run_jobs_runs_whole_units_and_records_errors():
    workload = CountingWorkload(unit=2, job_s=0.001)
    records, seconds = workloads.run_jobs(workload, 0.0)
    assert [record.index for record in records] == [0, 1]  # one unit at least
    workload = CountingWorkload(unit=2, job_s=0.001)
    records, seconds = workloads.run_jobs(workload, 0.05)
    assert len(records) % 2 == 0 and len(records) >= 4
    assert workload.prepared == [record.index for record in records]
    assert records[3].error is not None and "boom" in records[3].error
    assert seconds == pytest.approx(sum(record.seconds for record in records))


def test_traced_runs_alternate_traced_and_untraced_jobs():
    workload = CountingWorkload(unit=1, job_s=0.0)
    tracer = tracing.Tracer()
    records, _ = workloads.run_jobs(workload, 0.0, tracer)
    assert [r.traced for r in records] == [True]
    workload = CountingWorkload(unit=3, job_s=0.0)
    records, _ = workloads.run_jobs(workload, 0.0, tracer)
    assert [r.traced for r in records] == [True, False, True]
    jobs = [span for span in tracer.spans if span.name == "job"]
    assert [span.job for span in jobs] == [0, 0, 2]
    assert tracer.enabled is False

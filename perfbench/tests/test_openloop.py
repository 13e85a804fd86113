import threading

import pytest

from perfbench import openloop


class VirtualTime:
    """A clock that only moves when the generator sleeps or a request runs."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_latency_runs_from_the_due_time():
    time = VirtualTime()
    service_s = 0.025

    def perform(_state, _index):
        time.now += service_s
        return True, None

    due = [0.010 * i for i in range(5)]
    origin, records = openloop.run_open_loop(
        due, perform, 1, clock=time.clock, sleep=time.sleep, lead_s=0.0
    )
    assert origin == 100.0
    # Requests arrive every 10 ms but take 25 ms: a backlog builds, and
    # each request's latency includes its wait behind the earlier ones.
    for i, record in enumerate(records):
        assert record.due == pytest.approx(origin + due[i])
        assert record.sent == pytest.approx(origin + service_s * i)
        assert record.latency_ms == pytest.approx(1000 * (service_s * (i + 1) - due[i]))
        assert record.late_ms == pytest.approx(1000 * (service_s * i - due[i]))
    assert records[4].latency_ms == pytest.approx(85.0)


def test_generator_waits_for_due_time_when_idle():
    time = VirtualTime()

    def perform(_state, _index):
        time.now += 0.001
        return True, None

    _, records = openloop.run_open_loop(
        [0.0, 0.5], perform, 1, clock=time.clock, sleep=time.sleep, lead_s=0.0
    )
    assert records[1].late_ms == pytest.approx(0.0)
    assert records[1].latency_ms == pytest.approx(1.0)


def test_failed_request_is_recorded_not_raised():
    time = VirtualTime()

    def perform(_state, index):
        if index == 1:
            raise ConnectionRefusedError("refused")
        return True, "fine"

    _, records = openloop.run_open_loop(
        [0.0, 0.0, 0.0], perform, 1, clock=time.clock, sleep=time.sleep, lead_s=0.0
    )
    assert [record.ok for record in records] == [True, False, True]
    assert "refused" in records[1].info


def test_connections_share_the_schedule_in_due_order():
    seen = []
    guard = threading.Lock()

    def perform(state, index):
        state.setdefault("requests", 0)
        state["requests"] += 1
        with guard:
            seen.append(index)
        return True, threading.get_ident()

    done = []
    thread = threading.Thread(
        target=lambda: done.append(openloop.run_open_loop([0.0] * 20, perform, 2, lead_s=0.0))
    )
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    _, records = done[0]
    assert sorted(seen) == list(range(20))
    assert all(record.ok for record in records)

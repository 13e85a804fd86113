"""Request batcher: in-flight coalescing, flush triggers, failure fan-out.

No test relies on timing to make requests coalesce.
``_RecordingExecutor`` holds the batches of chosen scenarios open
until ``release()``, so "a batch is running" is a state the test sets
up and ends on its own schedule.
"""

import asyncio

import pytest

from repro.serve.batcher import RequestBatcher


class _RecordingExecutor:
    """Echo executor that records every batch it receives.

    Every batch yields to the event loop once, as a real executor
    does.  A batch holding a scenario in ``hold`` waits until
    :meth:`release` lets that scenario go; a batch holding a scenario
    in ``fail_on`` raises once it is let go.  Build it inside the
    running event loop (each gate is an ``asyncio.Event``).
    """

    def __init__(self, hold=(), fail_on=()):
        self.calls = []
        self.fail_on = set(fail_on)
        self._gates = {scenario: asyncio.Event() for scenario in hold}

    def release(self, *scenarios):
        """Let the named held scenarios (default: all of them) go."""
        for scenario in scenarios or self._gates:
            self._gates[scenario].set()

    async def __call__(self, key, scenarios):
        self.calls.append((key, list(scenarios)))
        await asyncio.sleep(0)
        for scenario in scenarios:
            if scenario in self._gates:
                await self._gates[scenario].wait()
        if self.fail_on.intersection(scenarios):
            raise RuntimeError("executor blew up")
        return ["{}:{}".format(key, scenario) for scenario in scenarios]


async def _ticks(count):
    for _ in range(count):
        await asyncio.sleep(0)


async def _hold_first(batcher, executor, key="k", scenario="first"):
    """Submit one scenario and return once its batch is running."""
    running = asyncio.ensure_future(batcher.submit(key, scenario))
    await _ticks(3)
    assert executor.calls[-1] == (key, [scenario])
    return running


class TestCoalescing:
    def test_same_key_submissions_share_one_batch(self):
        """Submissions that land in one event-loop tick ride one batch."""

        async def scenario():
            executor = _RecordingExecutor()
            batcher = RequestBatcher(executor)
            results = await asyncio.gather(
                batcher.submit("k", "a"), batcher.submit("k", "b")
            )
            return executor, batcher, results

        executor, batcher, results = asyncio.run(scenario())
        assert executor.calls == [("k", ["a", "b"])]
        assert results == ["k:a", "k:b"]
        assert batcher.stats()["coalesced_requests"] == 1

    def test_different_keys_do_not_share(self):
        async def scenario():
            executor = _RecordingExecutor()
            batcher = RequestBatcher(executor)
            await asyncio.gather(
                batcher.submit("k1", "a"), batcher.submit("k2", "b")
            )
            return executor

        executor = asyncio.run(scenario())
        assert sorted(key for key, _ in executor.calls) == ["k1", "k2"]

    def test_zero_window_coalesces_within_one_tick(self):
        """With no batch window at all, an idle key still dispatches on
        the next tick, so every submission of the current tick rides
        along (the old ``window_s=0`` behaviour, now the only one)."""

        async def scenario():
            executor = _RecordingExecutor()
            batcher = RequestBatcher(executor)
            await asyncio.gather(*(batcher.submit("k", i) for i in range(3)))
            return executor, batcher

        executor, batcher = asyncio.run(scenario())
        assert len(executor.calls) == 1
        assert executor.calls[0] == ("k", [0, 1, 2])
        assert batcher.stats()["coalesced_requests"] == 2

    def test_sequential_submissions_run_separately(self):
        async def scenario():
            executor = _RecordingExecutor()
            batcher = RequestBatcher(executor)
            await batcher.submit("k", "first")
            await batcher.submit("k", "second")
            return executor

        executor = asyncio.run(scenario())
        assert executor.calls == [("k", ["first"]), ("k", ["second"])]

    def test_lone_submission_dispatches_without_a_timer(self):
        async def scenario():
            executor = _RecordingExecutor()
            batcher = RequestBatcher(executor)
            pending = asyncio.ensure_future(batcher.submit("k", "a"))
            await asyncio.sleep(0)  # let submit() register the request
            assert batcher.requests == 1
            await _ticks(2)
            dispatched = list(executor.calls)
            return dispatched, await asyncio.wait_for(pending, timeout=5.0)

        dispatched, result = asyncio.run(scenario())
        assert dispatched == [("k", ["a"])]
        assert result == "k:a"

    def test_submissions_during_a_held_batch_form_one_next_batch(self):
        async def scenario():
            executor = _RecordingExecutor(hold={"first"})
            batcher = RequestBatcher(executor)
            first = await _hold_first(batcher, executor)
            queued = []
            for name in ("a", "b", "c"):  # one tick apart, never together
                queued.append(asyncio.ensure_future(batcher.submit("k", name)))
                await _ticks(3)
            held_calls = list(executor.calls)
            held_stats = batcher.stats()
            executor.release()
            results = await asyncio.wait_for(
                asyncio.gather(first, *queued), timeout=5.0
            )
            return executor, batcher, held_calls, held_stats, results

        executor, batcher, held_calls, held_stats, results = asyncio.run(
            scenario()
        )
        assert held_calls == [("k", ["first"])]
        assert held_stats["in_flight"] == 1
        assert held_stats["pending_keys"] == 1
        assert executor.calls == [("k", ["first"]), ("k", ["a", "b", "c"])]
        assert results == ["k:first", "k:a", "k:b", "k:c"]
        stats = batcher.stats()
        assert (stats["batches"], stats["coalesced_requests"]) == (2, 2)
        assert (stats["in_flight"], stats["pending_keys"]) == (0, 0)

    def test_held_key_does_not_block_another_key(self):
        async def scenario():
            executor = _RecordingExecutor(hold={"first"})
            batcher = RequestBatcher(executor)
            held = await _hold_first(batcher, executor, key="slow")
            other = await asyncio.wait_for(
                batcher.submit("fast", "b"), timeout=5.0
            )
            still_held = not held.done()
            executor.release()
            return other, still_held, await asyncio.wait_for(held, 5.0)

        other, still_held, held = asyncio.run(scenario())
        assert other == "fast:b"
        assert still_held
        assert held == "slow:first"


class TestFlushTriggers:
    def test_max_batch_flushes_immediately(self):
        """A queued batch that reaches ``max_batch`` dispatches while the
        running one is still held."""

        async def scenario():
            executor = _RecordingExecutor(hold={"first", "a"})
            batcher = RequestBatcher(executor, max_batch=2)
            first = await _hold_first(batcher, executor)
            queued = [
                asyncio.ensure_future(batcher.submit("k", name))
                for name in ("a", "b")
            ]
            await _ticks(3)
            held_calls = list(executor.calls)
            held_in_flight = batcher.stats()["in_flight"]
            executor.release()
            results = await asyncio.wait_for(
                asyncio.gather(first, *queued), timeout=5.0
            )
            return held_calls, held_in_flight, results

        held_calls, held_in_flight, results = asyncio.run(scenario())
        assert held_calls == [("k", ["first"]), ("k", ["a", "b"])]
        assert held_in_flight == 2
        assert results == ["k:first", "k:a", "k:b"]

    def test_drain_flushes_pending_batches(self):
        """``drain()`` completes a batch queued behind a running one and
        one that queues while it drains, however long they take."""

        async def scenario():
            executor = _RecordingExecutor(hold={"first", "late"})
            batcher = RequestBatcher(executor)
            first = await _hold_first(batcher, executor)
            queued = asyncio.ensure_future(batcher.submit("k", "a"))
            await asyncio.sleep(0)  # let submit() queue the request
            draining = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0)
            late = asyncio.ensure_future(batcher.submit("k", "late"))
            executor.release("first")
            await _ticks(6)
            drained_early = draining.done()
            executor.release("late")
            await asyncio.wait_for(draining, timeout=5.0)
            waiters = (first, queued, late)
            done = [waiter.done() for waiter in waiters]
            results = [waiter.result() for waiter in waiters]
            return executor, batcher, drained_early, done, results

        executor, batcher, drained_early, done, results = asyncio.run(
            scenario()
        )
        assert not drained_early
        assert done == [True, True, True]
        assert results == ["k:first", "k:a", "k:late"]
        assert executor.calls == [
            ("k", ["first"]), ("k", ["a"]), ("k", ["late"]),
        ]
        stats = batcher.stats()
        assert (stats["in_flight"], stats["pending_keys"]) == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            RequestBatcher(object(), max_batch=0)


class TestFailureFanOut:
    def test_executor_error_rejects_every_waiter(self):
        async def scenario():
            executor = _RecordingExecutor(fail_on={"a"})
            batcher = RequestBatcher(executor)
            results = await asyncio.gather(
                batcher.submit("k", "a"), batcher.submit("k", "b"),
                return_exceptions=True,
            )
            return executor, results

        executor, results = asyncio.run(scenario())
        assert len(executor.calls) == 1
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_failure_does_not_poison_later_batches(self):
        async def scenario():
            executor = _RecordingExecutor(fail_on={"a"})
            batcher = RequestBatcher(executor)
            with pytest.raises(RuntimeError):
                await batcher.submit("k", "a")
            return await batcher.submit("k", "b")

        assert asyncio.run(scenario()) == "k:b"

    def test_raise_in_the_running_batch_still_dispatches_the_queued_one(self):
        async def scenario():
            executor = _RecordingExecutor(hold={"first"}, fail_on={"first"})
            batcher = RequestBatcher(executor)
            first = await _hold_first(batcher, executor)
            queued = asyncio.ensure_future(batcher.submit("k", "a"))
            await asyncio.sleep(0)
            executor.release()
            results = await asyncio.wait_for(
                asyncio.gather(first, queued, return_exceptions=True),
                timeout=5.0,
            )
            return executor, batcher, results

        executor, batcher, (first, queued) = asyncio.run(scenario())
        assert isinstance(first, RuntimeError)
        assert queued == "k:a"
        assert executor.calls == [("k", ["first"]), ("k", ["a"])]
        assert batcher.stats()["in_flight"] == 0


class TestQueueWaitStats:
    def test_queued_request_records_the_hold_an_idle_one_does_not(self):
        async def scenario():
            executor = _RecordingExecutor(hold={"first"})
            batcher = RequestBatcher(executor)
            await asyncio.wait_for(batcher.submit("idle", "a"), timeout=5.0)
            idle = batcher.stats()["queue_wait_ms"]
            first = await _hold_first(batcher, executor, key="held")
            queued = asyncio.ensure_future(batcher.submit("held", "b"))
            await asyncio.sleep(0.02)
            executor.release()
            await asyncio.wait_for(asyncio.gather(first, queued), timeout=5.0)
            return idle, batcher.stats()["queue_wait_ms"]

        idle, held = asyncio.run(scenario())
        assert idle["max"] < 15.0
        assert held["max"] >= 15.0
        assert idle["mean"] <= idle["max"]
        assert 0.0 < held["mean"] <= held["max"]

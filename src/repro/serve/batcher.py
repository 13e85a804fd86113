"""Same-blueprint request coalescing.

``/solve`` traffic is bursty and repetitive: load steps hit one chip
with many currents at once, and monitoring loops re-ask the same
``(deployment, current)`` point.  The batcher exploits both shapes
without holding anything back on a timer (continuous batching):

* the first submission for a key with no batch running dispatches on
  the next event-loop tick, together with whatever else lands in that
  tick (the currents of one ``currents_a`` request ride one batch);
* submissions that arrive while a batch of the key runs collect into
  the key's next batch, which dispatches when the running one ends
  (succeeded or raised) or as soon as it reaches ``max_batch``.

Each batch is handed to the executor as *one* batch against one warm
session, which answers it one current at a time
(:meth:`~repro.thermal.session.SessionView.solve_batch`): the batch
saves the per-request dispatch, lock and pool round trips, not
arithmetic.  A current at or beyond the chip's runaway limit fails
only its own requests.  Identical ``(tiles, current)`` submissions are
deduplicated by the executor so k requests for one point cost one
solve.

Determinism: the executor answers every scenario through the same
``model.solve(current)`` call the serial path uses, so batched
responses are bit-identical to per-request solves — coalescing is a
scheduling optimization, never a numerical one.
"""

from __future__ import annotations

import asyncio

#: Default cap on scenarios per batch.
DEFAULT_MAX_BATCH = 64


class RequestBatcher:
    """Coalesce same-key submissions that queue behind in-flight work.

    ``executor`` is an async callable ``(key, scenarios) -> results``
    returning one result per scenario, in order.  It runs as a task per
    batch; a raise rejects every future in the batch with that error.
    All methods must be called from the event loop thread.
    """

    def __init__(self, executor, *, max_batch=DEFAULT_MAX_BATCH):
        max_batch = int(max_batch)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1, got {}".format(max_batch))
        self.executor = executor
        self.max_batch = max_batch
        self._pending = {}   # key -> [(scenario, future, submit time)]
        self._running = {}   # key -> batches of that key in flight
        self._tasks = set()
        self.requests = 0
        self.batches = 0
        self.max_batch_seen = 0
        self._wait_total_s = 0.0
        self._wait_max_s = 0.0

    async def submit(self, key, scenario):
        """Queue one scenario; resolves to its executor result."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        batch = self._pending.get(key)
        if batch is None:
            batch = self._pending[key] = []
            if not self._running.get(key):
                loop.call_soon(self._flush, key, batch)
        batch.append((scenario, future, loop.time()))
        self.requests += 1
        if len(batch) >= self.max_batch:
            self._flush(key, batch)
        return await future

    def _flush(self, key, batch):
        if self._pending.get(key) is not batch:
            return  # already dispatched (max_batch or drain came first)
        del self._pending[key]
        loop = asyncio.get_running_loop()
        now = loop.time()
        for _, _, submitted in batch:
            self._wait_total_s += now - submitted
            self._wait_max_s = max(self._wait_max_s, now - submitted)
        self._running[key] = self._running.get(key, 0) + 1
        self.batches += 1
        self.max_batch_seen = max(self.max_batch_seen, len(batch))
        task = loop.create_task(self._run(key, batch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run(self, key, batch):
        scenarios = [scenario for scenario, _, _ in batch]
        try:
            results = await self.executor(key, scenarios)
        except Exception as error:  # noqa: BLE001 — fanned out to waiters
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(error)
        else:
            for (_, future, _), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
        finally:
            self._running[key] -= 1
            if not self._running[key]:
                del self._running[key]
            queued = self._pending.get(key)
            if queued is not None:
                self._flush(key, queued)

    async def drain(self):
        """Dispatch pending batches and wait until none is left (shutdown)."""
        while self._pending or self._tasks:
            for key, batch in list(self._pending.items()):
                self._flush(key, batch)
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def stats(self):
        """Plain-data batcher counters for ``/stats``."""
        coalesced = self.requests - self.batches
        dispatched = self.requests - sum(map(len, self._pending.values()))
        return {
            "max_batch": self.max_batch,
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_requests": max(coalesced, 0),
            "max_batch_seen": self.max_batch_seen,
            "pending_keys": len(self._pending),
            "in_flight": len(self._tasks),
            "queue_wait_ms": {
                "mean": 1e3 * self._wait_total_s / dispatched if dispatched else 0.0,
                "max": 1e3 * self._wait_max_s,
            },
        }

"""Open-loop request generator.

Requests are sent on a fixed schedule regardless of how fast the
server answers, over a few keep-alive connections.  A request due
while every connection is busy waits for the next free one, in due
order, and that wait counts: latency runs from the *due* time, so a
stall also charges every request queued behind it.  How late the
generator sent each request is recorded separately.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass


@dataclass
class Record:
    """One request's timing (clock seconds) and outcome."""

    due: float
    sent: float
    done: float
    ok: bool
    info: object

    @property
    def latency_ms(self):
        """Due time to completion."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self):
        """Due time to the moment the generator sent the request."""
        return (self.sent - self.due) * 1000.0


def run_open_loop(due_s, perform, connections, *, clock=time.perf_counter,
                  sleep=time.sleep, lead_s=0.05):
    """Issue request ``i`` at ``origin + due_s[i]`` for every ``i``.

    ``perform(state, i)`` sends request ``i`` on the connection whose
    private ``state`` dict it gets and returns ``(ok, info)``; an
    exception counts as a failed request.  ``due_s`` must be sorted.
    Returns ``(origin, records)`` with one :class:`Record` per request.
    """
    count = len(due_s)
    records = [None] * count
    lock = threading.Lock()
    cursor = [0]
    origin = clock() + lead_s

    def connection_loop():
        state = {}
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= count:
                        return
                    cursor[0] += 1
                due = origin + due_s[index]
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                sent = clock()
                try:
                    ok, info = perform(state, index)
                except Exception as error:  # noqa: BLE001 — a failed request
                    ok, info = False, "{}: {}".format(type(error).__name__, error)
                records[index] = Record(due, sent, clock(), bool(ok), info)
        finally:
            connection = state.get("connection")
            if connection is not None:
                connection.close()

    if connections == 1:
        connection_loop()
    else:
        threads = [threading.Thread(target=connection_loop, daemon=True)
                   for _ in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return origin, records


def http_perform(host, port, requests, timeout_s=60.0):
    """A ``perform`` for :func:`run_open_loop` over HTTP/1.1 keep-alive.

    ``requests[i]`` is ``(method, path, body_bytes_or_None)``.  Returns
    ``(status == 200, (status, body, traced_header))``; the body is
    parsed later, outside the timed phase.
    """

    def perform(state, index):
        method, path, body = requests[index]
        connection = state.get("connection")
        if connection is None:
            connection = state["connection"] = http.client.HTTPConnection(
                host, port, timeout=timeout_s
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            state["connection"] = None
            raise
        traced = response.getheader("x-perfbench-traced")
        return response.status == 200, (response.status, raw, traced)

    return perform

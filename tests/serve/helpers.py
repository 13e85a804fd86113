"""Shared helpers for the serve-layer tests.

``asgi_request`` drives the app in-process through the raw ASGI
interface (no sockets); ``with_app`` runs an async scenario against a
fresh app inside one event loop and guarantees executor teardown.
Both keep every request of a test on a single loop, which is what the
pool's per-entry ``asyncio.Lock`` objects require.  ``SolveGate``
holds ``/solve`` batches open so a test can queue requests behind a
running batch without relying on timing.
"""

import asyncio
import json

from repro.serve import ServeConfig, create_app

#: A 4x4 chip with a 2x2 hot block — small enough that a cold
#: build-plus-solve is a few milliseconds.
SMALL_CHIP = {
    "rows": 4,
    "cols": 4,
    "power_map": [0.08] * 16,
    "tec_tiles": [5, 6, 9, 10],
}
for _tile in SMALL_CHIP["tec_tiles"]:
    SMALL_CHIP["power_map"][_tile] = 0.55


#: GreedyDeploy settings every front end must refuse up front, with
#: the fragment the refusal names.  ``current_method`` is gone (one
#: Problem 2 search serves every round), so even its old default is
#: an unknown field.
BAD_DEPLOY_SETTINGS = [
    ({"current_method": "golden"}, "current_method"),
    ({"max_rounds": 2.7}, "max_rounds"),
    ({"max_rounds": True}, "max_rounds"),
]


def small_deploy_body(**overrides):
    body = {
        "rows": SMALL_CHIP["rows"],
        "cols": SMALL_CHIP["cols"],
        "power_map": list(SMALL_CHIP["power_map"]),
    }
    body.update(overrides)
    return body


def small_solve_body(**overrides):
    body = {
        "rows": SMALL_CHIP["rows"],
        "cols": SMALL_CHIP["cols"],
        "power_map": list(SMALL_CHIP["power_map"]),
        "tec_tiles": list(SMALL_CHIP["tec_tiles"]),
        "current_a": 0.8,
    }
    body.update(overrides)
    return body


async def asgi_request(app, method, path, payload=None):
    """One in-process request; returns ``(status, parsed_body)``."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    inbox = [{"type": "http.request", "body": body, "more_body": False}]
    outbox = []

    async def receive():
        if inbox:
            return inbox.pop(0)
        return {"type": "http.disconnect"}

    async def send(message):
        outbox.append(message)

    scope = {
        "type": "http",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "method": method,
        "scheme": "http",
        "path": path,
        "query_string": b"",
        "headers": [(b"content-type", b"application/json")] if payload is not None else [],
        "client": ("testclient", 0),
        "server": ("testserver", 80),
    }
    await app(scope, receive, send)
    status = next(
        message["status"] for message in outbox
        if message["type"] == "http.response.start"
    )
    raw = b"".join(
        message.get("body", b"") for message in outbox
        if message["type"] == "http.response.body"
    )
    return status, json.loads(raw)


def with_app(scenario, **config_kwargs):
    """Run ``await scenario(app)`` on a fresh app in one event loop."""

    async def main():
        app = create_app(ServeConfig(**config_kwargs))
        try:
            return await scenario(app)
        finally:
            await app.shutdown()

    return asyncio.run(main())


class SolveGate:
    """Hold every ``/solve`` batch of ``app`` open until :meth:`release`.

    Wraps the batcher's executor, so a test decides when a running
    batch ends; ``sizes`` records the scenario count of each batch as
    it is dispatched.  Create it inside the running event loop.
    """

    def __init__(self, app):
        self.sizes = []
        self._released = asyncio.Event()
        inner = app.batcher.executor

        async def gated(key, scenarios):
            self.sizes.append(len(scenarios))
            await self._released.wait()
            return await inner(key, scenarios)

        app.batcher.executor = gated

    def release(self):
        self._released.set()


async def until(condition, ticks=100):
    """Yield event-loop ticks until ``condition()`` holds (bounded)."""
    for _ in range(ticks):
        if condition():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition not reached within {} ticks".format(ticks))

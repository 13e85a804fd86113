"""Run ``repro serve`` with its default configuration for the benchmark.

Usage: ``python3 perfbench/serve_launcher.py [--trace PATH]``

The app is ``repro.serve.create_app()`` with the default
``ServeConfig`` on the stdlib server, as ``repro serve`` runs it; only
the port is ephemeral.  The launcher prints ``port N`` once it
listens and serves until SIGTERM, then shuts the app (and its process
tier) down.

With ``--trace PATH`` the layer wrappers are installed in this
process and the spans are written to PATH on shutdown.  Tracing runs
in alternating half-second slots; every response carries an
``x-perfbench-traced: 1|0`` header saying whether its request started
in a traced slot, so the load generator can compare traced and untraced
latency within one run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Length of one traced (or untraced) slot.
TRACE_SLOT_S = 0.5


def traced_app(app, tracer):
    """Wrap the ASGI app: time each HTTP call and mark its response."""

    async def call(scope, receive, send):
        if scope["type"] != "http":
            await app(scope, receive, send)
            return
        tracer.count("serve.app")
        traced = tracer.active()
        flag = b"1" if traced else b"0"

        async def marked_send(message):
            if message["type"] == "http.response.start":
                headers = list(message.get("headers", []))
                headers.append((b"x-perfbench-traced", flag))
                message = dict(message, headers=headers)
            await send(message)

        if not traced:
            await app(scope, receive, marked_send)
            return
        index = tracer.open("serve.app", nested=False)
        try:
            await app(scope, receive, marked_send)
        finally:
            tracer.close(index, nested=False)

    return call


def spans_payload(tracer):
    return {
        "calls": dict(tracer.calls),
        "spans": [
            [span.name, span.start, span.end, span.parent, span.thread, span.value]
            for span in tracer.spans
        ],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="install the layer wrappers; write spans to PATH")
    args = parser.parse_args(argv)

    from repro.serve import create_app
    from repro.serve.server import AsgiHttpServer

    app = create_app()
    served = app
    tracer = installation = None
    if args.trace:
        from perfbench import layers, tracing

        started = time.monotonic()
        tracer = tracing.Tracer(
            active=lambda: int((time.monotonic() - started) / TRACE_SLOT_S) % 2 == 0
        )
        installation = tracing.install(tracer, layers.wrap_points())
        served = traced_app(app, tracer)

    async def serve():
        server = AsgiHttpServer(served, "127.0.0.1", 0)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        print("port {}".format(server.port), flush=True)
        try:
            await stop.wait()
        finally:
            await server.stop()

    asyncio.run(serve())
    _stop_forkserver()
    if installation is not None:
        installation.remove()
        with open(args.trace, "w") as handle:
            json.dump(spans_payload(tracer), handle)
    return 0


def _stop_forkserver():
    """Stop and reap the process tier's fork server, if one started."""
    from multiprocessing import forkserver

    server = getattr(forkserver, "_forkserver", None)
    stop = getattr(server, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())

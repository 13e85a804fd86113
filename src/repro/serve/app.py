"""Thermal-as-a-service: the ASGI application.

A dependency-free ASGI 3 callable (the container ships no
FastAPI/starlette, so the app implements the interface directly — any
ASGI server can host it, and :mod:`repro.serve.server` provides a
stdlib one).  Endpoints:

``POST /solve``
    Steady-state solve(s) of one chip/deployment at one or more
    currents.  Answered through the warm session pool and the request
    batcher: a chip with no solve running dispatches at once, requests
    that arrive while one runs coalesce into its next batch, identical
    points are deduplicated, and
    every response carries the per-solve solver-stats delta so clients
    can see cache behaviour (``cache_hits``) and batching
    (``coalesced``).
``POST /transient``
    Backward-Euler transient envelope on a warm session.
``POST /deploy``
    GreedyDeploy (optionally plus the Full-Cover baseline) — CPU-bound
    minutes-long work, so it runs on the process-pool tier.
``POST /sweep``
    A full :class:`~repro.sweep.SweepSpec` in JSON, fanned out over
    the shared process pool; the response is the standard sweep
    report.
``GET /healthz`` / ``GET /stats``
    Liveness and counters (server, pool, batcher, process tier).

A current at or beyond a deployment's runaway limit ``lambda_m`` is
refused with a 422 and the solver's message; in a coalesced ``/solve``
batch only the requests holding such a current fail.

Determinism contract: ``/solve`` and ``/transient`` run the same
:func:`repro.sweep.worker.run_task` implementations the CLI and sweep
engine use, on problems built by the same worker builder — responses
are bit-identical to ``repro solve`` output for the same scenario.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass

from repro.serve import schemas
from repro.serve.batcher import DEFAULT_MAX_BATCH, RequestBatcher
from repro.serve.pool import DEFAULT_MAX_ENTRIES, SessionPool
from repro.sweep.report import ScenarioError, SweepReport
from repro.sweep.runner import pool_fault
from repro.sweep.worker import execute, run_task, solve_batch_rows
from repro.thermal.session import SOLVER_MODES, SingularSystemError


def _ignore_sigint():
    """Process-pool worker initializer: a terminal Ctrl-C delivers
    SIGINT to the whole foreground process group, and workers dying
    mid-shutdown with KeyboardInterrupt tracebacks is pure noise —
    their lifetime is managed by the executor, not the keyboard."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the serving tier.

    ``pool_size=0`` disables the warm pool (every request builds cold —
    the benchmark baseline).  ``batch_max`` caps the scenarios of one
    coalesced ``/solve`` batch.  ``threads`` (at least 1) sizes the
    solve-thread tier; ``workers=None`` sizes the process pool to the
    machine.  ``default_backend`` is applied to every
    request scenario that leaves ``backend`` unset (one of
    :data:`~repro.thermal.session.SOLVER_MODES`; None keeps the
    problem default, ``"reuse"``) — it participates in the warm-pool
    blueprint key, so two backends never share a session.
    """

    pool_size: int = DEFAULT_MAX_ENTRIES
    batch_max: int = DEFAULT_MAX_BATCH
    threads: int = 4
    workers: int = None
    request_max_bytes: int = 8 * 1024 * 1024
    default_backend: str = None

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(
                "threads must be >= 1, got {}".format(self.threads)
            )
        if (
            self.default_backend is not None
            and self.default_backend not in SOLVER_MODES
        ):
            raise ValueError(
                "default_backend must be one of {} (or None), got {!r}".format(
                    SOLVER_MODES, self.default_backend
                )
            )


class _HttpError(Exception):
    """Internal: carries a status + JSON body to the dispatcher."""

    def __init__(self, status, message, **extra):
        super().__init__(message)
        self.status = status
        self.body = dict(extra, error=message)


class ReproServeApp:
    """The ASGI 3 application object (``await app(scope, receive, send)``)."""

    def __init__(self, config=None):
        self.config = config if config is not None else ServeConfig()
        self.pool = SessionPool(self.config.pool_size)
        self.batcher = RequestBatcher(
            self._execute_solve_batch, max_batch=self.config.batch_max
        )
        self._threads = None
        self._processes = None
        self._started_s = None
        self.requests = {}     # "METHOD PATH" -> count
        self.errors = 0
        self.process_pool_restarts = 0
        self._routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/stats"): self._handle_stats,
            ("POST", "/solve"): self._handle_solve,
            ("POST", "/transient"): self._handle_transient,
            ("POST", "/deploy"): self._handle_deploy,
            ("POST", "/sweep"): self._handle_sweep,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def startup(self):
        """Create the executor tiers (idempotent)."""
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.config.threads,
                thread_name_prefix="repro-solve",
            )
        if self._started_s is None:
            self._started_s = time.monotonic()

    async def shutdown(self):
        """Drain the batcher and tear the executors down."""
        await self.batcher.drain()
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        if self._processes is not None:
            self._processes.shutdown(wait=True)
            self._processes = None
        self.pool.clear()

    def _process_pool(self):
        """The lazy process-pool tier (created on first /deploy or /sweep).

        Workers use the ``forkserver`` start method where available:
        by the time the first /deploy arrives the server is running an
        event loop plus executor threads, and ``fork``-ing a threaded
        process is unsound (CPython re-inits thread state in the child
        and spits ``Exception ignored in _after_fork`` noise).  The
        fork server forks from a clean, thread-free helper instead.
        """
        if self._processes is None:
            import multiprocessing

            try:
                context = multiprocessing.get_context("forkserver")
            except ValueError:  # platform without forkserver
                context = multiprocessing.get_context("spawn")
            self._processes = ProcessPoolExecutor(
                max_workers=self.config.workers, mp_context=context,
                initializer=_ignore_sigint,
            )
        return self._processes

    def _process_workers(self):
        """Worker count of the process tier (machine default when unset)."""
        if self.config.workers is not None:
            return self.config.workers
        import os

        return os.cpu_count() or 1

    def _reset_process_pool(self):
        """Replace a broken process pool so later requests recover."""
        broken, self._processes = self._processes, None
        self.process_pool_restarts += 1
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # ASGI plumbing
    # ------------------------------------------------------------------

    async def __call__(self, scope, receive, send):
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(
                "unsupported ASGI scope type {!r}".format(scope["type"])
            )
        self.startup()
        method = scope["method"].upper()
        path = scope["path"].rstrip("/") or "/"
        label = "{} {}".format(method, path)
        self.requests[label] = self.requests.get(label, 0) + 1
        try:
            handler = self._route(method, path)
            payload = await self._read_json(scope, receive, method)
            status, body = await handler(payload)
        except _HttpError as error:
            self.errors += 1
            status, body = error.status, error.body
        except SingularSystemError as error:
            # A current at/beyond lambda_m: the request, not the
            # server, is at fault.
            self.errors += 1
            status = 422
            body = {"error": str(error), "error_type": type(error).__name__}
        except Exception as error:  # noqa: BLE001 — 500 boundary
            self.errors += 1
            status = 500
            body = {"error": "{}: {}".format(type(error).__name__, error)}
        await self._send_json(send, status, body)

    async def _lifespan(self, receive, send):
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                self.startup()
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await self.shutdown()
                await send({"type": "lifespan.shutdown.complete"})
                return

    def _route(self, method, path):
        handler = self._routes.get((method, path))
        if handler is None:
            known = {route_path for _, route_path in self._routes}
            if path in known:
                raise _HttpError(
                    405, "method {} not allowed on {}".format(method, path)
                )
            raise _HttpError(404, "no such endpoint: {}".format(path))
        return handler

    async def _read_json(self, scope, receive, method):
        chunks = []
        size = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise _HttpError(400, "client disconnected mid-request")
            chunks.append(message.get("body", b""))
            size += len(chunks[-1])
            if size > self.config.request_max_bytes:
                raise _HttpError(413, "request body too large")
            if not message.get("more_body", False):
                break
        if method != "POST":
            return None
        raw = b"".join(chunks)
        if not raw:
            raise _HttpError(400, "request body must be JSON")
        try:
            return json.loads(raw)
        except ValueError as error:
            raise _HttpError(400, "invalid JSON body: {}".format(error))

    @staticmethod
    async def _send_json(send, status, payload):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        await send({
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", b"application/json"),
                (b"content-length", str(len(body)).encode("ascii")),
            ],
        })
        await send({"type": "http.response.body", "body": body})

    # ------------------------------------------------------------------
    # Warm-tier execution
    # ------------------------------------------------------------------

    def _apply_backend(self, scenario):
        """Fill an unset scenario backend from the server default.

        Runs *before* :func:`~repro.serve.schemas.blueprint_key` /
        :meth:`_acquire` in every handler, so warm-pool keys and
        process-tier payloads always carry the effective backend.
        """
        if self.config.default_backend is None or scenario.backend is not None:
            return scenario
        return dataclasses.replace(
            scenario, backend=self.config.default_backend
        )

    def _acquire(self, scenario):
        """Warm pool entry for a scenario's chip: ``(key, entry, hit)``.

        The problem is built by the sweep worker's builder, so pooled
        problems are constructed exactly like CLI/sweep ones — that,
        plus the shared task implementations, is the bit-identity
        guarantee.
        """
        from repro.sweep.worker import _build_problem, _limit_for

        key = schemas.blueprint_key(scenario)
        entry, hit = self.pool.acquire(
            key, lambda: _build_problem(scenario, _limit_for(scenario))
        )
        return key, entry, hit

    async def _execute_solve_batch(self, key, scenarios):
        """Batch executor behind the request batcher.

        Runs the whole batch on one warm session under the entry lock;
        identical ``(tiles, current)`` points are deduplicated.  Each
        result carries the solver-stats delta of the solve that
        answered it.
        """
        loop = asyncio.get_running_loop()
        _, entry, hit = self._acquire(scenarios[0])
        async with entry.lock:
            rows = await loop.run_in_executor(
                self._threads, _solve_batch_sync, entry.problem, scenarios
            )
        for row in rows:
            row["pool"] = {"key": key, "hit": hit}
        return rows

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _handle_healthz(self, _payload):
        return 200, {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_s,
            "pool_entries": len(self.pool),
        }

    async def _handle_stats(self, _payload):
        return 200, {
            "server": {
                "uptime_s": time.monotonic() - self._started_s,
                "requests": dict(self.requests),
                "errors": self.errors,
                "process_pool_restarts": self.process_pool_restarts,
            },
            "config": asdict(self.config),
            "pool": self.pool.stats(),
            "batcher": self.batcher.stats(),
        }

    async def _handle_solve(self, payload):
        scenarios = [
            self._apply_backend(scenario)
            for scenario in self._parse(schemas.parse_solve, payload)
        ]
        key = schemas.blueprint_key(scenarios[0])
        rows = await asyncio.gather(
            *(self.batcher.submit(key, scenario) for scenario in scenarios)
        )
        for row in rows:
            if "error" in row:
                # The row's exception is shared with coalesced
                # duplicates in other requests: raise a fresh one.
                raise SingularSystemError(str(row["error"]))
        results = []
        for scenario, row in zip(scenarios, rows):
            delta = row["solver_stats"]
            results.append({
                "name": scenario.name,
                "current_a": scenario.current_a,
                "values": row["values"],
                "solver_stats": delta,
                "cache_hits": delta["cache_hits"] + delta["solution_hits"],
                "coalesced": row["coalesced"],
                "pool": row["pool"],
            })
        return 200, {"results": results, "count": len(results),
                     "pool_key": key}

    async def _handle_transient(self, payload):
        scenario = self._apply_backend(
            self._parse(schemas.parse_transient, payload)
        )
        loop = asyncio.get_running_loop()
        key, entry, hit = self._acquire(scenario)
        async with entry.lock:
            values, delta = await loop.run_in_executor(
                self._threads, _run_task_with_stats, entry.problem, scenario
            )
        return 200, {
            "values": values,
            "solver_stats": delta,
            "pool": {"key": key, "hit": hit},
        }

    async def _handle_deploy(self, payload):
        scenario = self._apply_backend(
            self._parse(schemas.parse_deploy, payload)
        )
        outcome = await self._run_in_process(0, scenario)
        if isinstance(outcome, ScenarioError):
            status = 503 if outcome.kind == "pool" else 422
            return status, _error_body(outcome)
        return 200, {
            "task": outcome.task,
            "values": outcome.values,
            "elapsed_s": outcome.elapsed_s,
            "solver_stats": outcome.solver_stats,
        }

    async def _handle_sweep(self, payload):
        spec = self._parse(schemas.parse_sweep, payload)
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(self._run_in_process(index, self._apply_backend(scenario))
              for index, scenario in enumerate(spec))
        )
        report = SweepReport.from_outcomes(
            spec_name=spec.name,
            backend="process",
            workers=self._process_workers(),
            outcomes=list(outcomes),
            wall_time_s=time.perf_counter() - start,
        )
        body = dataclasses.asdict(report)
        body["summary"] = report.summary()
        return 200, body

    # ------------------------------------------------------------------
    # Process tier
    # ------------------------------------------------------------------

    async def _run_in_process(self, index, scenario):
        """One scenario on the process pool; faults become records.

        Mirrors the sweep runner's crash semantics: an in-scenario
        exception arrives as a normal :class:`ScenarioError` (the
        worker never raises), while a pool crash becomes a
        ``kind="pool"`` fault and the pool is replaced so the *next*
        request gets a fresh tier.
        """
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._process_pool(), execute, index, scenario
            )
        except Exception as error:  # noqa: BLE001 — pool crash path
            if isinstance(error, BrokenExecutor) and self._processes is not None:
                self._reset_process_pool()
            return pool_fault(index, scenario, error)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _parse(parser, payload):
        try:
            return parser(payload)
        except schemas.SchemaError as error:
            raise _HttpError(400, str(error))


def _run_task_with_stats(problem, scenario):
    """Thread-tier execution: task values plus the solver-stats delta."""
    before = problem.solver_stats.copy()
    values = run_task(scenario, problem)
    delta = problem.solver_stats.diff(before).as_dict()
    return values, delta


def _solve_batch_sync(problem, scenarios):
    """Run one coalesced batch on a warm problem (worker thread).

    Delegates to the sweep worker's batch kernel
    (:func:`repro.sweep.worker.solve_batch_rows`): each deployment's
    distinct operating points go through one
    :meth:`~repro.thermal.session.SessionView.solve_batch` call (one
    solve per current), identical ``(tiles, current)`` points solve
    once and fan out to every duplicate, and each row records the
    stats delta of the solve that produced its values.  Row values are
    bit-identical to the serial/CLI solves, so batching cannot change
    any numbers.
    """
    return solve_batch_rows(problem, scenarios)


def _error_body(fault):
    return {
        "error": fault.message,
        "error_type": fault.error_type,
        "kind": fault.kind,
        "name": fault.name,
        "task": fault.task,
        "traceback": fault.traceback,
    }


def create_app(config=None):
    """Build the ASGI application (``repro serve`` and tests)."""
    return ReproServeApp(config)

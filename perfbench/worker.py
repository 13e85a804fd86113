"""One fresh interpreter of a benchmark run.

Started by ``run.py``; not meant to be run by hand::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --role setup|run --spawned-at EPOCH --outdir DIR

The worker sets the workload up (imports, inputs, and on serve-mix the
server plus a warm pass) and prints ``ready {phases}``.  A ``setup``
worker then tears down and exits; a ``run`` worker runs the timed
phase, checks every answer and prints ``result {json}``.  Everything
else goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import env, layers, openloop, stats, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, max_connections, run_jobs  # noqa: E402

LAUNCHER = Path(__file__).with_name("serve_launcher.py")


class ServerProcess:
    """``serve_launcher.py`` in a child process on an ephemeral port."""

    def __init__(self, trace_path=None):
        command = [sys.executable, str(LAUNCHER)]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        self.trace_path = trace_path
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env.child_env(ROOT), cwd=ROOT,
        )
        line = self.process.stdout.readline()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError("server did not start (got {!r})".format(line))
        self.port = int(line.split()[1])

    @property
    def pid(self):
        return self.process.pid

    def request(self, method, path, body=None):
        """One request on a fresh connection; returns the parsed body."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise RuntimeError("{} {} -> {}: {}".format(method, path, response.status, raw[:500]))
        return json.loads(raw)

    def stop(self):
        """SIGTERM, then wait (the launcher shuts its process tier down)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def parse_args(argv):
    parser = argparse.ArgumentParser(description="one fresh interpreter of a benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="epoch time at which the parent spawned this process")
    parser.add_argument("--outdir", type=Path, required=True)
    return parser.parse_args(argv)


def emit(tag, payload):
    print(tag, json.dumps(payload), flush=True)


def main(argv=None):
    args = parse_args(argv)
    spawned = args.spawned_at
    workload = WORKLOADS[args.workload]()
    workload.imports()
    imported = time.time()
    server = None
    try:
        if args.workload == "serve-mix":
            workload.inputs(args.seed, args.seconds)
            inputs_done = time.time()
            trace_path = None
            if args.trace and args.role == "run":
                trace_path = args.outdir / "server-spans-{}.json".format(os.getpid())
            server = ServerProcess(trace_path)
            for method, path, body in workload.warm_requests:
                server.request(method, path, body)
        else:
            workload.inputs(args.seed)
            inputs_done = time.time()
        gc.collect()
        ready = time.time()
        emit("ready", {
            "import_s": imported - spawned,
            "inputs_s": inputs_done - imported,
            "warm_s": ready - inputs_done,
        })
        if args.role == "setup":
            return 0
        if server is not None:
            result = run_serve(workload, server, args)
            server = None
        else:
            result = run_batch(workload, args)
    finally:
        if server is not None:
            server.stop()
    emit("result", result)
    return 0


def run_batch(workload, args):
    tracer = counters = installation = None
    if args.trace:
        counters = layers.SolverCounters()
        tracer = tracing.Tracer()
        installation = tracing.install(tracer, layers.wrap_points(counters))
    try:
        records, job_seconds = run_jobs(workload, args.seconds, tracer, counters)
    finally:
        if installation is not None:
            installation.remove()
    failures = workload.check(records)
    outcomes = stats.Outcomes()
    for record in records:
        if record.error is not None:
            outcomes.fail(record.error)
        elif record.index in failures:
            outcomes.fail(failures[record.index])
        else:
            outcomes.ok(record.seconds * 1000.0)
    result = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.failures,
        "latency_ms": outcomes.latencies_ms,
        "jobs_per_s": (outcomes.attempted - outcomes.failed) / job_seconds,
        "peak_rss_mb": env.own_peak_rss_mb(),
        "env": env.environment(),
    }
    if tracer is not None:
        result.update(batch_layers(workload, args, tracer, counters, records))
    return result


def batch_layers(workload, args, tracer, counters, records):
    traced = [record.seconds * 1000.0 for record in records if record.traced]
    untraced = [record.seconds * 1000.0 for record in records if not record.traced]
    totals = tracing.layer_totals(tracer.spans)
    metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
    metrics.update(layers.thermal_layer_metrics(totals, len(traced), counters.totals))
    metrics["trace.coverage"] = layers.work_coverage(totals)
    metrics["trace.overhead_ms"] = (
        statistics.median(traced) - statistics.median(untraced)
        if traced and untraced else 0.0
    )
    chrome = args.outdir / "trace-{}-seed{}.json".format(args.workload, args.seed)
    tracing.write_chrome_trace(chrome, tracing.chrome_trace(tracer.spans))
    return {
        "layers": metrics,
        "layer_shares": layer_shares(totals),
        "calls": dict(tracer.calls),
        "missing_calls": layers.missing_calls(workload.name, tracer.calls),
        "traced_jobs": len(traced),
        "chrome_trace": str(chrome.relative_to(ROOT)),
    }


def layer_shares(totals):
    """Each span name's self time as a share of all traced job time."""
    job_total = totals.get("job", {}).get("total_s", 0.0)
    if job_total <= 0:
        return {}
    return {
        name: entry["self_s"] / job_total
        for name, entry in sorted(totals.items())
    }


def run_serve(workload, server, args):
    before = server.request("GET", "/stats")
    origin, records = openloop.run_open_loop(
        workload.due,
        openloop.http_perform("127.0.0.1", server.port, workload.requests),
        max_connections(),
    )
    after = server.request("GET", "/stats")
    peak_rss = env.process_peak_rss_mb(server.pid)
    server.stop()

    bodies = [json.loads(record.info[1]) if record.ok else None for record in records]
    failures = workload.check(workload.requests, bodies)
    outcomes = stats.Outcomes()
    for index, record in enumerate(records):
        if not record.ok:
            # ``info`` is (status, body, header) for an HTTP error, else the exception.
            reason = record.info[:2] if isinstance(record.info, tuple) else record.info
            outcomes.fail("request {} ({}): {}".format(index, workload.kinds[index], reason))
        elif index in failures:
            outcomes.fail(failures[index])
        else:
            outcomes.ok(record.latency_ms)
    duration = max(record.done for record in records) - origin
    delta = pool_delta(before, after)
    result = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.failures,
        "latency_ms": outcomes.latencies_ms,
        "jobs_per_s": (outcomes.attempted - outcomes.failed) / duration,
        "peak_rss_mb": peak_rss,
        "late_ms_p99": stats.percentile([record.late_ms for record in records], 99.0),
        "env": env.environment(),
        "pool": delta,
    }
    if server.trace_path is not None:
        result.update(serve_layers(workload, server, origin, records, delta, args))
    return result


def pool_delta(before, after):
    """Pool and solver counters accumulated during the timed phase."""
    fields = ("hits", "misses", "evictions")
    delta = {field: after["pool"][field] - before["pool"][field] for field in fields}
    solver_before = before["pool"]["lifetime_solver_stats"]
    solver_after = after["pool"]["lifetime_solver_stats"]
    delta["solver"] = {
        field: solver_after[field] - solver_before[field]
        for field in layers.SolverCounters.FIELDS
    }
    return delta


def serve_layers(workload, server, origin, records, delta, args):
    with open(server.trace_path) as handle:
        payload = json.load(handle)
    os.remove(server.trace_path)
    spans = []
    for name, start, end, parent, thread, value in payload["spans"]:
        span = tracing.Span(name, start, parent, None, thread)
        span.end = end
        span.value = value
        spans.append(span)
    metrics, traced = layers.serve_layer_metrics(spans, records, origin, delta)
    # Call counts cover the server's whole life, warm pass included: they
    # only prove that each wrapper is reached.
    calls = dict(payload["calls"])
    chrome = args.outdir / "trace-{}-seed{}.json".format(args.workload, args.seed)
    tracing.write_chrome_trace(chrome, tracing.chrome_trace(spans, pid=server.pid))
    return {
        "layers": metrics,
        "calls": calls,
        "missing_calls": layers.missing_calls(workload.name, calls),
        "traced_jobs": traced,
        "chrome_trace": str(chrome.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())

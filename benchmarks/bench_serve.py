"""Serving-tier acceptance: warm-pool throughput and CLI agreement.

Boots the real HTTP server (``ServerThread`` on an ephemeral port)
twice against the same request stream — a cycle of solve requests on
the Alpha greedy deployment — and measures:

* **warm**: the default serving configuration (blueprint-keyed warm
  session pool + same-chip request batching).  The first request
  builds and factorizes; every later request reuses the warm session.
* **cold**: ``pool_size=0`` — the pool is disabled and every request
  rebuilds the problem, reassembles the nodal system and refactorizes,
  which is what serving without the pool would cost.

Both run the default batcher: a chip's solve dispatches at once when
no batch of that chip is running, and requests that arrive meanwhile
ride its next batch.  The first request stays inside the timed phase.

Acceptance criteria of the serving PR:

* warm throughput >= 3x cold throughput;
* every response agrees with ``repro solve --json`` to within 1e-9 K
  (in fact bit-identical — both paths run the same task impl on the
  same assembled system);
* p50/p95/p99 latencies and each configuration's ``/stats`` batcher
  counters (``requests``, ``batches``, ``max_batch_seen``) recorded to
  ``BENCH_serve.json`` at the repo root (schema:
  :func:`repro.io.results.bench_report_to_json`).

Environment knobs for CI-sized runs:

* ``BENCH_SERVE_REQUESTS`` — requests per configuration (default 1024;
  the warm phase must last well over 0.2 s, or the one cold first
  request and scheduler noise decide the warm/cold ratio);
* ``BENCH_SERVE_CLIENTS``  — concurrent load-generator clients
  (default 4).

A run with any ``BENCH_SERVE_*`` override writes
``BENCH_serve-fast.json`` instead, so a fast run never overwrites the
checked-in full-run numbers.

Run:  pytest benchmarks/bench_serve.py -s
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.io.results import bench_report_to_json
from repro.serve import RequestPool, ServeConfig, ServerThread, create_app

_REPO_ROOT = Path(__file__).resolve().parent.parent
_REQUESTS = int(os.environ.get("BENCH_SERVE_REQUESTS", "1024"))
_CLIENTS = int(os.environ.get("BENCH_SERVE_CLIENTS", "4"))
_FULL_RUN = not any(name.startswith("BENCH_SERVE_") for name in os.environ)
_CURRENT_CYCLE = 8
_BATCHER_COUNTERS = ("requests", "batches", "max_batch_seen")


@pytest.fixture(scope="module")
def cli_reference(tmp_path_factory):
    """The deployment ``repro solve`` finds for alpha, via the real CLI."""
    out = tmp_path_factory.mktemp("serve") / "alpha.json"
    assert cli_main(["solve", "--benchmark", "alpha", "--json", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def request_stream(cli_reference):
    """A cycle of solve requests on the alpha deployment: the same chip
    at a handful of repeating drive currents, which is the traffic the
    warm pool and the batcher are built for."""
    base = cli_reference["current_a"]
    currents = [
        round(base * (0.6 + 0.1 * step), 6) for step in range(_CURRENT_CYCLE)
    ]
    currents[_CURRENT_CYCLE // 2] = base  # the CLI's exact operating point
    return [
        ("POST", "/solve", {
            "benchmark": "alpha",
            "tec_tiles": cli_reference["tec_tiles"],
            "current_a": currents[index % _CURRENT_CYCLE],
        })
        for index in range(_REQUESTS)
    ]


def _drive(config, requests):
    """Replay ``requests`` on a fresh server: ``(report, wall, batcher)``."""
    app = create_app(config)
    with ServerThread(app) as server:
        pool = RequestPool(server.host, server.port, clients=_CLIENTS)
        start = time.perf_counter()
        report = pool.run(requests)
        wall = time.perf_counter() - start
        stats = RequestPool(server.host, server.port, clients=1).run(
            [("GET", "/stats", None)]
        )
    assert report.errors == 0
    assert all(status == 200 for status, _ in report.responses)
    batcher = stats.responses[0][1]["batcher"]
    return report, wall, {name: batcher[name] for name in _BATCHER_COUNTERS}


@pytest.fixture(scope="module")
def runs(request_stream):
    return {
        "warm": _drive(ServeConfig(), request_stream),
        "cold": _drive(ServeConfig(pool_size=0), request_stream),
    }


def _entry(configuration, report, wall, batcher):
    summary = report.as_dict()
    summary.update({
        "configuration": configuration, "wall_s": wall, "batcher": batcher,
    })
    return summary


def test_responses_agree_with_cli(runs, cli_reference):
    base_current = cli_reference["current_a"]
    for configuration, (report, _, _) in runs.items():
        checked = 0
        for _, body in report.responses:
            result = body["results"][0]
            if abs(result["current_a"] - base_current) > 1e-12:
                continue  # stream point away from the CLI's optimum
            assert abs(
                result["values"]["peak_c"] - cli_reference["peak_c"]
            ) <= 1e-9, configuration
            checked += 1
        # The cycle pins the CLI's exact operating point, so it is
        # exercised in every configuration.
        assert checked > 0


def test_writes_bench_json(runs):
    entries = [
        _entry("warm-pool", *runs["warm"]),
        _entry("cold-rebuild", *runs["cold"]),
    ]
    entries[0]["speedup_vs_cold"] = (
        entries[0]["throughput_rps"] / entries[1]["throughput_rps"]
    )
    path = _REPO_ROOT / (
        "BENCH_serve.json" if _FULL_RUN else "BENCH_serve-fast.json"
    )
    bench_report_to_json(
        "serve", entries, path,
        metadata={
            "workload": "{} solve requests, {} clients, {}-current cycle "
                        "on the alpha greedy deployment".format(
                            _REQUESTS, _CLIENTS, _CURRENT_CYCLE),
            "run": "full" if _FULL_RUN else "fast",
            "cpu_count": os.cpu_count(),
        },
    )
    assert path.exists()


def test_warm_pool_beats_cold_by_3x(runs):
    speedup = runs["warm"][0].throughput_rps / runs["cold"][0].throughput_rps
    print()
    for label, (report, wall, batcher) in (("warm", runs["warm"]),
                                           ("cold", runs["cold"])):
        stats = report.as_dict()["latency_ms"]
        print("{}: {:7.1f} req/s  p50 {:6.2f} ms  p95 {:6.2f} ms  "
              "p99 {:6.2f} ms  ({:.2f} s wall, {} batches for {} "
              "requests, max {})".format(
                  label, report.throughput_rps, stats["p50"],
                  stats["p95"], stats["p99"], wall, batcher["batches"],
                  batcher["requests"], batcher["max_batch_seen"]))
    print("warm-vs-cold throughput: {:.1f}x".format(speedup))
    assert speedup >= 3.0

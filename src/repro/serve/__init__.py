"""Thermal-as-a-service: async HTTP serving of the paper's solvers.

The repo's engines — steady solves, transient envelopes, GreedyDeploy,
scenario sweeps — are exposed as a small JSON API so interactive DTM
experiments (and load tests) stop paying cold-start costs per query:

* :mod:`repro.serve.schemas` — requests parse into the sweep engine's
  plain-data :class:`~repro.sweep.spec.Scenario` vocabulary, and chips
  hash to blueprint keys;
* :mod:`repro.serve.pool` — a blueprint-keyed LRU of warm
  :class:`~repro.core.problem.CoolingSystemProblem` sessions with
  per-key locks and eviction-safe stats;
* :mod:`repro.serve.batcher` — same-chip request coalescing into one
  batch per warm session;
* :mod:`repro.serve.app` — the dependency-free ASGI application
  (``POST /solve``, ``/sweep``, ``/deploy``, ``/transient``; ``GET
  /healthz``, ``/stats``);
* :mod:`repro.serve.server` — a stdlib asyncio HTTP/1.1 host plus a
  background-thread harness for tests;
* :mod:`repro.serve.loadgen` — a closed-loop latency/throughput load
  generator (``benchmarks/bench_serve.py``).

Served numbers are bit-identical to ``repro solve`` output: the
handlers run the exact worker task implementations the CLI and the
sweep backends run.
"""

from repro.serve.app import ReproServeApp, ServeConfig, create_app
from repro.serve.batcher import RequestBatcher
from repro.serve.loadgen import LoadReport, RequestPool
from repro.serve.pool import PoolEntry, SessionPool
from repro.serve.schemas import SchemaError, blueprint_key
from repro.serve.server import AsgiHttpServer, ServerThread, run

__all__ = [
    "AsgiHttpServer",
    "LoadReport",
    "PoolEntry",
    "ReproServeApp",
    "RequestBatcher",
    "RequestPool",
    "SchemaError",
    "ServeConfig",
    "ServerThread",
    "SessionPool",
    "blueprint_key",
    "create_app",
    "run",
]

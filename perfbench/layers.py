"""The benchmark's metrics and the layer map behind the traced run.

``END_TO_END`` and ``PER_LAYER`` are the metric names and units the
runner prints; ``BENCHMARK.json`` must list exactly these (a test
checks it).  ``wrap_points`` says where each layer is timed: every
entry point is wrapped where its caller looks it up, so the program
itself is untouched.
"""

from __future__ import annotations

import statistics

from perfbench import stats
from perfbench.tracing import WrapPoint, layer_totals

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "job_ms.p50": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.  Times and counts are
#: per job, ratios over the run; serve counters are per request.
PER_LAYER = {
    "thermal.model.build_ms": "ms",
    "thermal.model.blueprint_ms": "ms",
    "thermal.model.builds": "count",
    "thermal.assembly.replay_ms": "ms",
    "thermal.assembly.assemble_ms": "ms",
    "thermal.assembly.calls": "count",
    "thermal.session.factor_ms": "ms",
    "thermal.session.factorizations": "count",
    "thermal.session.solve_ms": "ms",
    "thermal.session.rhs_columns": "count",
    "thermal.session.cache_hit_ratio": "ratio",
    "linalg.runaway.runaway_ms": "ms",
    "linalg.runaway.calls": "count",
    "core.current.search_ms": "ms",
    "core.current.evaluations": "count",
    "core.deploy.self_ms": "ms",
    "core.deploy.rounds": "count",
    "sweep.dispatch_ms": "ms",
    "serve.app_ms": "ms",
    "serve.http_ms": "ms",
    "serve.batch_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.pool.hit_ratio": "ratio",
    "serve.pool.evictions": "count",
    "serve.late_ms.p99": "ms",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "setup.warm_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ms": "ms",
}

#: Span name -> per-layer metric carrying that span's self time.
SELF_TIME_METRICS = {
    "thermal.model.build": "thermal.model.build_ms",
    "thermal.model.blueprint": "thermal.model.blueprint_ms",
    "thermal.assembly.replay": "thermal.assembly.replay_ms",
    "thermal.assembly.assemble": "thermal.assembly.assemble_ms",
    "thermal.session.factor": "thermal.session.factor_ms",
    "thermal.session.solve": "thermal.session.solve_ms",
    "linalg.runaway": "linalg.runaway.runaway_ms",
    "core.current.search": "core.current.search_ms",
    "core.deploy": "core.deploy.self_ms",
    "sweep.dispatch": "sweep.dispatch_ms",
}

#: Span name -> per-layer metric counting its calls per job.
CALL_METRICS = {
    "thermal.assembly.assemble": "thermal.assembly.calls",
    "thermal.session.factor": "thermal.session.factorizations",
    "linalg.runaway": "linalg.runaway.calls",
}

#: Span name -> per-layer metric summing the count its hook recorded.
VALUE_METRICS = {
    "core.current.search": "core.current.evaluations",
    "core.deploy": "core.deploy.rounds",
}

#: Spans that wrap a whole job: the job itself, ``run_table1`` and the
#: deploy loops.  Work that no layer wrapper reaches lands in their
#: self time, so ``trace.coverage`` leaves them out.
ENCLOSING_SPANS = ("job", "sweep.dispatch", "core.deploy")

#: Wrap points that must record calls on each workload.  A rename in
#: the program then fails the traced run instead of zeroing a layer.
REQUIRED = {
    "table1": (
        "problem.model", "blueprint.package", "replay", "assemble", "splu",
        "view.solve", "runaway", "search.deploy", "search.baselines",
        "deploy.greedy", "deploy.full_cover", "dispatch",
    ),
    "die-deploy": (
        "problem.model", "blueprint.package", "replay", "assemble", "splu",
        "view.solve", "runaway", "search.deploy", "deploy.greedy",
    ),
    "serve-mix": (
        "problem.model", "blueprint.package", "assemble", "splu",
        "view.solve_batch", "serve.app", "serve.submit", "serve.rows",
    ),
}


class SolverCounters:
    """Per-job deltas of the public ``problem.solver_stats`` counters.

    Every problem whose ``model()`` runs during a job is noted with a
    snapshot of its stats; at the end of the job the deltas are summed
    (stats objects shared between sibling problems count once).
    """

    FIELDS = ("full_builds", "incremental_builds", "rhs_columns",
              "cache_hits", "solution_hits", "cache_misses")

    def __init__(self):
        self._seen = {}
        self.totals = dict.fromkeys(self.FIELDS, 0)

    def note(self, problem):
        stats = problem.solver_stats
        if id(stats) not in self._seen:
            self._seen[id(stats)] = (stats, stats.copy())

    def end_job(self):
        for stats, before in self._seen.values():
            delta = stats.diff(before)
            for field in self.FIELDS:
                self.totals[field] += getattr(delta, field)
        self._seen.clear()


def _evaluations(span, _args, _kwargs, result):
    span.value = result[1] if isinstance(result, tuple) else result.evaluations


def _rounds(span, _args, _kwargs, result):
    span.value = len(result.iterations)


def _batch_size(span, args, _kwargs, _result):
    span.value = len(args[1])


def wrap_points(counters=None):
    """Every layer entry point, as looked up by its callers.

    ``counters`` (a :class:`SolverCounters`) is told about each problem
    whose ``model()`` is called; without it no problem is tracked.
    """

    def note_problem(args):
        if counters is not None:
            counters.note(args[0])

    session = "repro.thermal.session"
    return [
        WrapPoint("problem.model", "repro.core.problem",
                  "CoolingSystemProblem.model", "thermal.model.build",
                  before=note_problem),
        WrapPoint("blueprint.package", "repro.thermal.model",
                  "PackageThermalModel.network_blueprint", "thermal.model.blueprint"),
        WrapPoint("blueprint.composite", "repro.thermal.model",
                  "CompositeThermalModel.network_blueprint", "thermal.model.blueprint"),
        WrapPoint("replay", "repro.thermal.assembly",
                  "NetworkBlueprint.instantiate", "thermal.assembly.replay"),
        WrapPoint("assemble", "repro.thermal.model", "assemble",
                  "thermal.assembly.assemble"),
        WrapPoint("splu", session, "splu", "thermal.session.factor"),
        WrapPoint("spd_factorize", session, "spd_factorize", "thermal.session.factor"),
        WrapPoint("mg_hierarchy", "repro.linalg.multigrid",
                  "MultigridHierarchy.__init__", "thermal.session.factor"),
        WrapPoint("view.solve", session, "SessionView.solve", "thermal.session.solve"),
        WrapPoint("view.solve_batch", session, "SessionView.solve_batch",
                  "thermal.session.solve"),
        WrapPoint("view.solve_rhs", session, "SessionView.solve_rhs",
                  "thermal.session.solve"),
        WrapPoint("view.influence_rows", session, "SessionView.influence_rows",
                  "thermal.session.solve"),
        WrapPoint("view.solve_diagonal", session, "SessionView.solve_diagonal",
                  "thermal.session.solve"),
        WrapPoint("runaway", "repro.thermal.model", "_runaway_current", "linalg.runaway"),
        WrapPoint("runaway.eigen", "repro.core.engine", "runaway_current_eigen",
                  "linalg.runaway"),
        WrapPoint("runaway.shift_invert", "repro.core.engine",
                  "runaway_current_shift_invert", "linalg.runaway"),
        WrapPoint("search.deploy", "repro.core.deploy", "minimize_peak_temperature",
                  "core.current.search", _evaluations),
        WrapPoint("search.baselines", "repro.core.baselines",
                  "minimize_peak_temperature", "core.current.search", _evaluations),
        WrapPoint("search.engine", "repro.core.engine", "minimize_peak_temperature",
                  "core.current.search", _evaluations),
        WrapPoint("polish.engine", "repro.core.engine", "polish_current",
                  "core.current.search", _evaluations),
        WrapPoint("deploy.greedy", "repro.core.deploy", "greedy_deploy",
                  "core.deploy", _rounds),
        WrapPoint("deploy.full_cover", "repro.core.baselines", "full_cover",
                  "core.deploy"),
        WrapPoint("dispatch", "repro.experiments.table1", "run_table1",
                  "sweep.dispatch"),
        WrapPoint("serve.submit", "repro.serve.batcher", "RequestBatcher.submit",
                  "serve.batch.submit"),
        WrapPoint("serve.rows", "repro.serve.app", "solve_batch_rows",
                  "serve.batch.rows", _batch_size),
    ]


def cache_hit_ratio(solver):
    """Share of session cache lookups answered from a cache: factor
    cache hits plus solution-cache hits over all lookups."""
    hits = solver["cache_hits"] + solver["solution_hits"]
    lookups = hits + solver["cache_misses"]
    return hits / lookups if lookups else 0.0


def missing_calls(workload, calls):
    """Required wrap points of ``workload`` that recorded no call."""
    return [key for key in REQUIRED[workload] if calls.get(key, 0) == 0]


def thermal_layer_metrics(totals, jobs, solver, solver_jobs=None):
    """Per-job self times, call counts and solver counters.

    ``totals`` comes from :func:`perfbench.tracing.layer_totals` over
    ``jobs`` traced jobs; ``solver`` holds solver-stats deltas summed
    over ``solver_jobs`` jobs (default: the traced ones).
    """
    metrics = {}
    jobs = max(jobs, 1)
    solver_jobs = max(solver_jobs if solver_jobs is not None else jobs, 1)
    for span, metric in SELF_TIME_METRICS.items():
        metrics[metric] = 1000.0 * totals.get(span, {}).get("self_s", 0.0) / jobs
    for span, metric in CALL_METRICS.items():
        metrics[metric] = totals.get(span, {}).get("calls", 0) / jobs
    for span, metric in VALUE_METRICS.items():
        metrics[metric] = totals.get(span, {}).get("value", 0.0) / jobs
    metrics["thermal.model.builds"] = (
        solver["full_builds"] + solver["incremental_builds"]
    ) / solver_jobs
    metrics["thermal.session.rhs_columns"] = solver["rhs_columns"] / solver_jobs
    metrics["thermal.session.cache_hit_ratio"] = cache_hit_ratio(solver)
    return metrics


def work_coverage(totals):
    """Share of traced job time spent in the self time of the layers
    that do the work, i.e. of every span but :data:`ENCLOSING_SPANS`."""
    job_total = totals.get("job", {}).get("total_s", 0.0)
    if job_total <= 0:
        return 0.0
    work = sum(
        entry["self_s"] for name, entry in totals.items() if name not in ENCLOSING_SPANS
    )
    return work / job_total


def serve_layer_metrics(spans, records, origin, pool):
    """Per-layer metrics of a traced serve-mix run.

    ``spans`` come from the server process, ``records`` are the load
    generator's :class:`perfbench.openloop.Record` list with timed-phase
    ``origin``, on the same monotonic clock.  Only spans that start
    within the timed phase count, so the warm pass and the ``/stats``
    calls around it stay out.  ``pool`` holds the ``GET /stats`` deltas
    over the timed phase.  Returns ``(metrics, traced requests)``.
    """
    end = max(record.done for record in records)
    totals = layer_totals([span for span in spans if origin <= span.start <= end])
    traced = [r for r in records if r.ok and r.info[2] == "1"]
    untraced = [r for r in records if r.ok and r.info[2] == "0"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(thermal_layer_metrics(
        totals, len(traced), pool["solver"], solver_jobs=len(records),
    ))

    def mean_ms(name):
        entry = totals.get(name)
        return 1000.0 * entry["total_s"] / entry["calls"] if entry else 0.0

    app_ms = mean_ms("serve.app")
    client_ms = (
        statistics.fmean((r.done - r.sent) * 1000.0 for r in traced) if traced else 0.0
    )
    rows = totals.get("serve.batch.rows")
    lookups = pool["hits"] + pool["misses"]
    metrics.update({
        "serve.app_ms": app_ms,
        "serve.http_ms": client_ms - app_ms,
        "serve.batch_wait_ms": mean_ms("serve.batch.submit") - mean_ms("serve.batch.rows"),
        "serve.batch_size": rows["value"] / rows["calls"] if rows else 0.0,
        "serve.pool.hit_ratio": pool["hits"] / lookups if lookups else 0.0,
        "serve.pool.evictions": float(pool["evictions"]),
        "serve.late_ms.p99": stats.percentile([r.late_ms for r in records], 99.0),
        "trace.coverage": app_ms / client_ms if client_ms > 0 else 0.0,
        "trace.overhead_ms": (
            stats.percentile([r.latency_ms for r in traced], 50.0)
            - stats.percentile([r.latency_ms for r in untraced], 50.0)
            if traced and untraced else 0.0
        ),
    })
    return metrics, len(traced)

"""Result records of the scenario-sweep engine.

A sweep produces one :class:`ScenarioResult` per successfully executed
scenario and one :class:`ScenarioError` per scenario that raised —
failures are *captured*, never propagated, so a thousand-scenario
sweep survives one bad instance.  Both records are plain data
(picklable, JSON-representable) because they cross process boundaries
on the way back from :class:`~repro.sweep.runner.SweepRunner` workers.

The :class:`SweepReport` aggregates the per-scenario records with
wall-time/throughput metrics and the merged
:class:`~repro.thermal.session.SolverStats` of every scenario's solve
engine.  JSON serialization lives in :mod:`repro.io.results`
(``sweep_report_to_json`` / ``sweep_report_from_json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.thermal.session import SolverStats


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one successfully executed scenario.

    Attributes
    ----------
    index:
        Position of the scenario in its :class:`~repro.sweep.spec.SweepSpec`
        (results keep spec order regardless of execution order).
    name / task:
        Copied from the scenario for self-contained reports.
    values:
        Task-specific plain-data payload (e.g. ``peak_c``, ``i_opt_a``,
        ``tec_tiles`` for a ``greedy`` scenario).  Every value is a
        builtin scalar, string, list or dict, so the record serializes
        losslessly.
    elapsed_s:
        Wall time of this scenario alone (inside its worker).
    solver_stats:
        Per-scenario :class:`~repro.thermal.session.SolverStats` delta as
        a plain dict (None when the scenario ran no solver).
    """

    index: int
    name: str
    task: str
    values: dict
    elapsed_s: float
    solver_stats: dict = None


@dataclass(frozen=True)
class ScenarioError:
    """A captured per-scenario failure.

    The original exception never crosses the process boundary (it may
    not be picklable); its type name, message and formatted traceback
    do.

    ``kind`` distinguishes the two failure classes:

    ``"scenario"``
        The scenario's own code raised — captured worker-side by
        :func:`~repro.sweep.worker.execute`, traceback included.
    ``"pool"``
        The scenario never returned because the execution machinery
        failed (a crashed worker process / ``BrokenProcessPool``, a
        poisoned pipe, an unpicklable result) — captured runner-side,
        so there is no worker traceback.  Scenarios that completed
        before the crash keep their results.
    """

    index: int
    name: str
    task: str
    error_type: str
    message: str
    traceback: str = ""
    kind: str = "scenario"


@dataclass(frozen=True)
class SweepReport:
    """Aggregate outcome of one sweep run.

    Attributes
    ----------
    spec_name:
        Name of the :class:`~repro.sweep.spec.SweepSpec` that was run.
    backend / workers:
        Execution backend (``"serial"`` or ``"process"``) and worker
        count actually used.
    results:
        Successful :class:`ScenarioResult` records, ordered by scenario
        index.
    errors:
        Captured :class:`ScenarioError` records, ordered by scenario
        index.
    wall_time_s:
        End-to-end wall time of the sweep (submission to last result).
    scenario_time_s:
        Sum of the per-scenario ``elapsed_s`` — on the process backend
        this exceeds ``wall_time_s`` when parallelism is effective.
    """

    spec_name: str
    backend: str
    workers: int
    results: tuple = ()
    errors: tuple = ()
    wall_time_s: float = 0.0
    scenario_time_s: float = 0.0
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_outcomes(cls, *, spec_name, backend, workers, outcomes,
                      wall_time_s, metadata=None):
        """Assemble a report from a mixed outcome list.

        ``outcomes`` holds :class:`ScenarioResult` and
        :class:`ScenarioError` records in any order; they are
        partitioned and re-sorted by scenario index so reports are
        reproducible regardless of completion order.  Shared by the
        sweep runner backends and the serve layer's ``/sweep``
        endpoint.
        """
        results = []
        errors = []
        for outcome in outcomes:
            (errors if isinstance(outcome, ScenarioError) else results).append(
                outcome
            )
        return cls(
            spec_name=spec_name,
            backend=backend,
            workers=workers,
            results=tuple(sorted(results, key=lambda r: r.index)),
            errors=tuple(sorted(errors, key=lambda e: e.index)),
            wall_time_s=wall_time_s,
            scenario_time_s=sum(r.elapsed_s for r in results),
            metadata=dict(metadata) if metadata else {},
        )

    @property
    def num_scenarios(self):
        """Total scenarios attempted (successes plus failures)."""
        return len(self.results) + len(self.errors)

    @property
    def ok(self):
        """True when every scenario succeeded."""
        return not self.errors

    @property
    def throughput(self):
        """Scenarios per wall-clock second (0 for an empty sweep)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.num_scenarios / self.wall_time_s

    @property
    def speedup(self):
        """Aggregate-scenario-time over wall-time ratio.

        ~1.0 on the serial backend; approaches the worker count when
        the process backend parallelizes perfectly.
        """
        if self.wall_time_s <= 0.0:
            return 1.0
        return self.scenario_time_s / self.wall_time_s

    @property
    def pool_faults(self):
        """Errors caused by the execution machinery (``kind="pool"``),
        not by scenario code — e.g. a mid-sweep ``BrokenProcessPool``."""
        return tuple(e for e in self.errors if e.kind == "pool")

    @property
    def scenario_faults(self):
        """Errors raised by scenario code itself (``kind="scenario"``)."""
        return tuple(e for e in self.errors if e.kind != "pool")

    def result_for(self, name):
        """The :class:`ScenarioResult` of the named scenario.

        Raises ``KeyError`` when the scenario failed or does not exist.
        """
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError("no successful scenario named {!r}".format(name))

    def aggregate_solver_stats(self):
        """Merged :class:`~repro.thermal.session.SolverStats` over all results."""
        total = SolverStats()
        for result in self.results:
            if result.solver_stats:
                total.merge(SolverStats(**result.solver_stats))
        return total

    def summary(self):
        """Compact human-readable report for CLIs and benchmarks."""
        lines = [
            "sweep {!r}: {} scenarios ({} ok, {} failed) on {} backend "
            "x{} workers".format(
                self.spec_name,
                self.num_scenarios,
                len(self.results),
                len(self.errors),
                self.backend,
                self.workers,
            ),
            "wall {:.3f} s, aggregate {:.3f} s, {:.1f} scen/s, "
            "speedup {:.2f}x".format(
                self.wall_time_s,
                self.scenario_time_s,
                self.throughput,
                self.speedup,
            ),
        ]
        if self.results:
            lines.append("solver: " + self.aggregate_solver_stats().summary())
        for error in self.errors:
            lines.append(
                "FAILED [{}] {}: {}: {}{}".format(
                    error.index,
                    error.name,
                    error.error_type,
                    error.message,
                    " (pool fault)" if error.kind == "pool" else "",
                )
            )
        return "\n".join(lines)

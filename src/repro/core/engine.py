"""The warm GreedyDeploy round and per-round instrumentation.

:func:`~repro.core.deploy.greedy_deploy` runs every round cold — build
the model, compute ``lambda_m`` exactly, search the whole capped
current interval — except a round that is not the first and whose
Peltier support ``2 |S_TEC|`` reaches :data:`_DIRECT_MIN_SUPPORT`.
Such a round runs :func:`warm_round`, which carries three things over
from the round before:

1. **Warm-started runaway current**
   (:func:`~repro.linalg.runaway.runaway_current_shift_invert`): the
   previous round's runaway eigenvector — mapped across the rounds'
   node renumbering by stable node *names* — seeds a few shift-
   inverted inverse iterations through the round's own solves,
   replacing the dense eigensolve.  After a cold round the vector is
   the one that round's exact eigensolve kept on its model
   (``runaway_eigenpair()``), so no eigenproblem is solved twice.  The
   Rayleigh quotient certifies an upper bound on ``lambda_m``; if it
   overshoots past the safety margin, the resulting
   :class:`SingularSystemError` is caught, the exact eigenvalue
   recomputed and the round's search rerun from a cold start
   (``DeployStats.runaway_rescues``).
2. **Warm-started Problem 2**: the previous optimum, scaled by the
   ``lambda_m`` ratio, is the first probe of the one Problem 2 search
   (:func:`~repro.core.current.minimize_peak_temperature`), whose
   certified tangent-cut bracket still starts from the whole capped
   interval.
3. **A per-current backend**: a warm round evaluates only a handful of
   distinct currents, so under ``reuse`` (also ``auto`` resolving to
   it) the round runs on ``"direct"`` — one sparse SPD factorization
   per current instead of the support-last factorization, whose dense
   ``m x m`` trailing block and pencil eigendecomposition grow as
   ``m^2`` and ``m^3``.  Every other backend keeps its own.

A warm round's optimum is the search's certified answer, reported as
the search left it, the same as a cold round's.

Per-round instrumentation is threaded through :class:`DeployStats` /
:class:`RoundStats` and surfaces in ``DeploymentResult.deploy_stats``,
the sweep worker's values, the CLI and the JSON reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.current import minimize_peak_temperature
from repro.linalg.runaway import runaway_current_shift_invert
from repro.thermal.session import SingularSystemError

# Not called here: every exact bound reads the model's kept pair
# (``model.runaway_eigenpair()``), and no round polishes its optimum.
# perfbench's ``runaway.eigen`` and ``polish.engine`` layers still look
# the names up on this module.
from repro.core.current import polish_current  # noqa: F401
from repro.linalg.runaway import runaway_current_eigen  # noqa: F401


@dataclass
class RoundStats:
    """Timing / reuse breakdown of one GreedyDeploy round.

    Attributes
    ----------
    index:
        Round number (0-based, matches ``GreedyIteration.index``).
    wall_s:
        Wall-clock time of the whole round.
    assembly_s / runaway_s / current_opt_s / steady_s:
        Phase split: model build, ``lambda_m`` computation, the 1-D
        Problem 2 search, and the post-optimization steady-state solve
        plus offender scan.
    evaluations:
        Steady-state solves spent by the Problem 2 search.
    runaway_method:
        ``"eigen"`` (exact; riding the solve session's condensed pencil
        under reuse) or ``"shift-invert"`` (warm) — with ``"+rescue"``
        appended when a singular solve forced an exact recomputation
        mid-round.
    runaway_iterations:
        Shift-invert solve count (0 for the exact eigensolve).
    current_warm:
        True when the Problem 2 search's first probe was the previous
        round's optimum (a warm round); its certified bracket still
        starts from the whole capped interval.
    lambda_m:
        The runaway estimate the round searched under (A).
    """

    index: int
    wall_s: float = 0.0
    assembly_s: float = 0.0
    runaway_s: float = 0.0
    current_opt_s: float = 0.0
    steady_s: float = 0.0
    evaluations: int = 0
    runaway_method: str = ""
    runaway_iterations: int = 0
    current_warm: bool = False
    lambda_m: float = 0.0

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class DeployStats:
    """Whole-run instrumentation for GreedyDeploy.

    ``rounds`` holds one :class:`RoundStats` per greedy round; the
    counters aggregate across the run: exact runaway eigensolves
    (``runaway_dense``; a model answers repeats from its kept pair, so
    a model cached from an earlier run adds none) and warm
    (``runaway_warm``) runaway bounds, warm seeds that fell back
    to the exact eigensolve, rescued warm searches and searches whose
    first probe was warm.
    """

    rounds: list = field(default_factory=list)
    runaway_dense: int = 0
    runaway_warm: int = 0
    runaway_fallbacks: int = 0
    runaway_rescues: int = 0
    current_warm_rounds: int = 0

    @property
    def total_wall_s(self):
        return sum(r.wall_s for r in self.rounds)

    @property
    def total_evaluations(self):
        return sum(r.evaluations for r in self.rounds)

    def as_dict(self):
        """Plain-data view (JSON-representable)."""
        data = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "rounds"
        }
        data["rounds"] = [r.as_dict() for r in self.rounds]
        data["total_wall_s"] = self.total_wall_s
        data["total_evaluations"] = self.total_evaluations
        return data

    def summary(self):
        """Compact one-line report for CLIs and benchmarks."""
        return (
            "{} rounds, {} evals, runaway {} warm / {} dense "
            "({} fallbacks, {} rescues), current warm {} rounds".format(
                len(self.rounds),
                self.total_evaluations,
                self.runaway_warm,
                self.runaway_dense,
                self.runaway_fallbacks,
                self.runaway_rescues,
                self.current_warm_rounds,
            )
        )


#: Initial shift-invert shift, as a fraction of the previous round's
#: lambda_m.  Growing the deployment grows the Peltier support, so
#: lambda_m (near-)monotonically shrinks round over round; starting
#: well below the previous value keeps the first shifted system
#: positive definite in the common case, and the geometric backoff
#: recovers when a round shrinks lambda_m by more than this.
_SHIFT_HINT_FRACTION = 0.6

#: Peltier support size (~2 nodes per deployed tile) from which a
#: round after the first runs warm (:func:`warm_round`).  Below it a
#: cold round is cheap: the condensed pencil's ``m x m``
#: eigendecomposition answers ``lambda_m`` and every current of the
#: search.  Above it that eigendecomposition dominates, and a few
#: shift-inverted solves plus a warm-started search over a handful of
#: per-current factorizations beat it.
_DIRECT_MIN_SUPPORT = 256


def _map_vector(vector, names, model):
    """Carry an eigenvector across rounds by stable node names.

    Rounds renumber nodes (covering a tile removes its TIM node), but
    names persist, so the previous round's runaway eigenvector maps
    onto the new ordering entry-by-entry; nodes new to this round
    (fresh TEC pairs) start at zero.
    """
    mapped = np.zeros(model.num_nodes)
    hits = 0
    for index, node in enumerate(model.network.nodes):
        j = names.get(node.name)
        if j is not None:
            mapped[index] = vector[j]
            hits += 1
    if hits == 0 or not np.any(mapped):
        return None
    return mapped


def _exact_runaway(model, stats=None):
    """Exact ``lambda_m`` + eigenvector: the model's kept
    :meth:`~PackageThermalModel.runaway_eigenpair`, solved here only on
    a model that has none (counted in ``stats.runaway_dense``).  Under
    (effective) reuse it reads the session's condensed pencil — zero
    additional factorizations; other backends pay one standalone
    sparse factorization of ``G``.
    """
    if stats is not None and not model.runaway_solved:
        stats.runaway_dense += 1
    result, vector = model.runaway_eigenpair()
    return result.value, vector, "eigen", 0


def _runaway_estimate(model, previous_model, previous_lambda, vector, stats):
    """Warm shift-invert seeded by ``vector`` (an eigenvector of
    ``previous_model``), the exact eigensolve when no seed maps."""
    if vector is not None:
        names = {
            node.name: index
            for index, node in enumerate(previous_model.network.nodes)
        }
        guess = _map_vector(vector, names, model)
        if guess is not None:
            shift = None
            if math.isfinite(previous_lambda) and previous_lambda > 0.0:
                shift = _SHIFT_HINT_FRACTION * previous_lambda
            result, vector = runaway_current_shift_invert(
                model.solver.solve_rhs,
                model.system.g_matrix,
                model.system.d_diagonal,
                guess=guess,
                shift=shift,
            )
            if result is not None and math.isfinite(result.value):
                stats.runaway_warm += 1
                return result.value, vector, "shift-invert", result.iterations
    stats.runaway_fallbacks += 1
    return _exact_runaway(model, stats)


def warm_round(problem, deployment, previous, round_stats, stats, *,
               current_tolerance):
    """Run one warm GreedyDeploy round on ``deployment``.

    ``previous`` is ``(model, optimum, vector)`` of the round before:
    its model, its :class:`~repro.core.current.CurrentOptimizationResult`
    and its runaway eigenvector, None after a cold round (the vector is
    then the one kept on that round's model).  The search's first
    probe is the previous optimum scaled by the ``lambda_m`` ratio;
    without one, and in the rescue, it starts cold.  Fills
    ``round_stats`` and ``stats``; returns ``(model, optimum, state,
    vector)``.
    """
    previous_model, previous_optimum, vector = previous
    previous_lambda = previous_optimum.lambda_m

    phase_start = time.perf_counter()
    # The problem's own model resolves ``auto`` for this system.
    model = problem.model(deployment)
    if model.solver.effective_mode == "reuse":
        direct = problem.with_solver_mode("direct")
        # One shared counter object, so the run's solver-stats delta
        # covers the warm round too.
        direct.solver_stats = problem.solver_stats
        model = direct.model(deployment)
    round_stats.assembly_s = time.perf_counter() - phase_start

    phase_start = time.perf_counter()
    if vector is None:
        vector = _exact_runaway(previous_model)[1]
    lam, vector, runaway_method, iterations = _runaway_estimate(
        model, previous_model, previous_lambda, vector, stats
    )
    round_stats.runaway_s = time.perf_counter() - phase_start
    round_stats.runaway_method = runaway_method
    round_stats.runaway_iterations = iterations
    round_stats.lambda_m = lam

    bounds = None
    if (
        math.isfinite(lam)
        and math.isfinite(previous_lambda)
        and previous_lambda > 0.0
        and previous_optimum.current > 0.0
    ):
        guess = previous_optimum.current * (lam / previous_lambda)
        bounds = (guess, guess)

    try:
        optimum = minimize_peak_temperature(
            model, tolerance=current_tolerance, lambda_m=lam, bounds=bounds
        )
        phase_start = time.perf_counter()
        state = model.solve(optimum.current)
    except SingularSystemError:
        # The warm Rayleigh bound overshot lambda_m past the safety
        # margin and a capped-interval solve went singular: recover
        # with the exact eigenvalue and a cold-start retry.
        stats.runaway_rescues += 1
        lam, vector, _, _ = _exact_runaway(model, stats)
        round_stats.runaway_method = runaway_method + "+rescue"
        round_stats.lambda_m = lam
        optimum = minimize_peak_temperature(
            model, tolerance=current_tolerance, lambda_m=lam
        )
        phase_start = time.perf_counter()
        state = model.solve(optimum.current)
    round_stats.steady_s = time.perf_counter() - phase_start
    round_stats.current_opt_s = optimum.search_s
    round_stats.runaway_s += optimum.runaway_s
    round_stats.evaluations = optimum.evaluations
    round_stats.current_warm = optimum.warm_started
    if optimum.warm_started:
        stats.current_warm_rounds += 1
    return model, optimum, state, vector


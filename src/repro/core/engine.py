"""Incremental GreedyDeploy engine: round-to-round reuse (perf layer).

The cold :func:`~repro.core.deploy.greedy_deploy` loop treats every
round as a fresh problem: rebuild the model, recompute ``lambda_m``
exactly, restart the Problem 2 bracket from zero.
Consecutive rounds differ by a handful of TEC stamps, so almost all
of that work is redundant.  :func:`incremental_greedy_deploy` runs
the *same algorithm* (Figure 5 — identical round structure, identical
termination rules) through three reuse layers:

1. **Cross-round factorization bordering**
   (:class:`~repro.thermal.border.BorderedDeployContext`): reuse-mode
   rounds solve through the anchor round's sparse LU plus a bordered
   dense correction, so a whole run pays one sparse factorization.
2. **Warm-started runaway current**
   (:func:`~repro.linalg.runaway.runaway_current_shift_invert`): the
   previous round's runaway eigenvector — mapped across the rounds'
   node renumbering by stable node *names* — seeds a few shift-
   inverted inverse iterations through the solve engine, replacing
   the dense eigensolve.  The Rayleigh-quotient estimate certifies an
   upper bound on ``lambda_m``; if it ever overshoots past the safety
   margin, the resulting :class:`SingularSystemError` is caught, the
   exact eigenvalue recomputed, and the round's optimization retried
   (counted in ``DeployStats.runaway_rescues``).
3. **Warm-started Problem 2**: the previous optimum, scaled by the
   ``lambda_m`` ratio, brackets the next one; the bounded search
   (default ``"brent"``) converges in a fraction of the cold
   evaluation count.

Because a warmed round touches only a handful of distinct currents,
rounds with a large Peltier support (``_DIRECT_MIN_SUPPORT``) skip
the Woodbury machinery entirely and run on the ``"direct"`` backend —
one small sparse LU per current instead of building the dense
influence block.  A cold-start round on ``reuse`` builds that block
once and shares it between the exact runaway eigensolve and its
Woodbury solves; other backends pay one standalone sparse LU for the
eigensolve.  Such rounds report ``border_mode == "direct"``.

The final optimum is refined by
:func:`~repro.core.current.polish_current`, making the reported
``I_opt`` agree with an identically polished cold run to ~1e-6 A —
solver round-off otherwise scatters raw argmins across the
objective's noise plateau.

Per-round instrumentation is threaded through :class:`DeployStats` /
:class:`RoundStats` (also populated by the cold path) and surfaces in
``DeploymentResult.deploy_stats``, the sweep worker's values, the CLI
and the JSON reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.current import minimize_peak_temperature, polish_current
from repro.linalg.runaway import (
    runaway_current_eigen,
    runaway_current_shift_invert,
)
from repro.thermal.border import BorderedDeployContext
from repro.thermal.solve import SingularSystemError


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
        ``"eigen"`` (exact; riding the solve session's influence block
        under reuse) or ``"shift-invert"`` (warm) — with ``"+rescue"``
        appended when a singular solve forced an exact recomputation
        mid-round.
    runaway_iterations:
        Shift-invert solve count (0 for the dense paths).
    current_warm:
        True when the Problem 2 search ran inside a warm-start bracket.
    border_mode:
        :meth:`BorderedDeployContext.attach` outcome for the round
        (``"anchor"``, ``"bordered"``, ``"refactorized"``,
        ``"reanchored"``, ``"skipped"``), ``"direct"`` for a warm
        round served by per-current sparse factorizations (large
        support, see ``_DIRECT_MIN_SUPPORT``), or ``"off"`` for the
        cold path.
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
    border_mode: str = "off"
    lambda_m: float = 0.0

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class DeployStats:
    """Whole-run reuse instrumentation for GreedyDeploy.

    ``rounds`` holds one :class:`RoundStats` per greedy round; the
    counters aggregate reuse hits across the run.
    """

    engine: str = "cold"
    rounds: list = field(default_factory=list)
    runaway_dense: int = 0
    runaway_warm: int = 0
    runaway_fallbacks: int = 0
    runaway_rescues: int = 0
    current_warm_rounds: int = 0
    border_anchor: int = 0
    border_bordered: int = 0
    border_refactorized: int = 0
    border_reanchored: int = 0
    border_direct: int = 0
    polish_evaluations: int = 0

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
            "{} engine: {} rounds, {} evals, runaway {} warm / {} dense "
            "({} fallbacks, {} rescues), current warm {} rounds, border "
            "{} anchor / {} bordered / {} refactorized / {} reanchored / "
            "{} direct".format(
                self.engine,
                len(self.rounds),
                self.total_evaluations,
                self.runaway_warm,
                self.runaway_dense,
                self.runaway_fallbacks,
                self.runaway_rescues,
                self.current_warm_rounds,
                self.border_anchor,
                self.border_bordered,
                self.border_refactorized,
                self.border_reanchored,
                self.border_direct,
            )
        )

    def record_border_mode(self, mode):
        if mode == "anchor":
            self.border_anchor += 1
        elif mode == "bordered":
            self.border_bordered += 1
        elif mode == "refactorized":
            self.border_refactorized += 1
        elif mode == "reanchored":
            self.border_reanchored += 1
        elif mode == "direct":
            self.border_direct += 1


#: Half-width of the warm-start bracket, as a fraction of the scaled
#: previous optimum (the lambda-ratio scaling is accurate to far
#: better than this in practice).
_WARM_HALF_FRACTION = 0.5

#: Initial shift-invert shift, as a fraction of the previous round's
#: lambda_m.  Growing the deployment grows the Peltier support, so
#: lambda_m (near-)monotonically shrinks round over round; starting
#: well below the previous value keeps the first shifted system
#: positive definite in the common case, and the geometric backoff
#: recovers when a round shrinks lambda_m by more than this.
_SHIFT_HINT_FRACTION = 0.6

#: Problem 2 safety fraction (mirrors minimize_peak_temperature).
_SAFETY_FRACTION = 0.98

#: Peltier support size (~2 nodes per deployed tile) above which a
#: *warm* round runs on the ``"direct"`` backend instead of the
#: Woodbury machinery.  A warm round evaluates only a handful of
#: distinct currents (one shift-invert shift plus ~5-8 slope
#: root-find points), so a per-current sparse LU each beats building
#: the dense influence block: measured at support 1774 / 4888 nodes,
#: one sparse LU costs 25 ms against a 1.1 s influence build plus
#: 160 ms per capacitance factorization.  Cold-start rounds always
#: stay on the reuse backend — the exact runaway eigensolve reads the
#: session's influence block, and a cold bracket search evaluates
#: enough currents to amortize it.
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
    """Exact ``lambda_m`` + eigenvector, riding cached solver state.

    In (effective) reuse mode the eigenproblem reads the solve
    session's influence block (:meth:`PackageThermalModel.runaway_influence`)
    — zero additional factorizations, and on a bordered round the
    block rides the adopted cross-round solve.  Other backends pay one
    standalone sparse LU inside :func:`runaway_current_eigen`.
    """
    if stats is not None:
        stats.runaway_dense += 1
    result, vector = runaway_current_eigen(
        model.system.g_matrix,
        model.system.d_diagonal,
        return_vector=True,
        influence=model.runaway_influence(),
    )
    return result.value, vector, "eigen", 0


def _runaway_estimate(model, previous, stats):
    """Warm shift-invert when a seed is available, exact otherwise."""
    if previous is not None and previous.get("vector") is not None:
        guess = _map_vector(previous["vector"], previous["names"], model)
        if guess is not None:
            shift = None
            if math.isfinite(previous["lambda_m"]) and previous["lambda_m"] > 0.0:
                shift = _SHIFT_HINT_FRACTION * previous["lambda_m"]
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


def incremental_greedy_deploy(
    problem,
    *,
    current_method="brent",
    current_tolerance=1.0e-4,
    max_rounds=None,
    polish=True,
    border=True,
):
    """GreedyDeploy with cross-round reuse (see the module docstring).

    Same algorithm, arguments and result contract as
    :func:`~repro.core.deploy.greedy_deploy` (which dispatches here
    for ``engine="incremental"``), plus:

    polish:
        Refine the final optimum with
        :func:`~repro.core.current.polish_current` (kept only when it
        does not change the feasibility verdict).
    border:
        Enable the cross-round bordered factorization context;
        automatically inert for rounds resolved to a non-reuse
        backend.
    """
    from repro.core.deploy import DeploymentResult, GreedyIteration

    start = time.perf_counter()
    if max_rounds is None:
        max_rounds = problem.grid.num_tiles
    max_rounds = int(max_rounds)
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative, got {}".format(max_rounds))

    shared_stats = getattr(problem, "solver_stats", None)
    stats_before = shared_stats.copy() if shared_stats is not None else None

    def _stats_delta():
        if shared_stats is None:
            return None
        return shared_stats.diff(stats_before)

    deploy_stats = DeployStats(engine="incremental")

    bare_model = problem.model(())
    bare_state = bare_model.solve(0.0)
    no_tec_peak = bare_state.peak_silicon_c
    offenders = problem.tiles_above_limit(bare_state)

    if not offenders or max_rounds == 0:
        return DeploymentResult(
            feasible=not offenders,
            tec_tiles=(),
            current=0.0,
            peak_c=no_tec_peak,
            no_tec_peak_c=no_tec_peak,
            tec_power_w=0.0,
            iterations=[],
            runtime_s=time.perf_counter() - start,
            problem=problem,
            model=bare_model,
            current_result=None,
            solver_stats=_stats_delta(),
            deploy_stats=deploy_stats,
        )

    context = BorderedDeployContext() if border else None
    direct_problem = None
    previous = None
    deployment = set()
    iterations = []
    model = bare_model
    optimum = None
    state = bare_state
    lam = math.inf
    feasible = False

    for round_index in range(max_rounds):
        round_stats = RoundStats(index=round_index)
        round_start = time.perf_counter()

        added = tuple(sorted(offenders - deployment))
        deployment |= offenders

        warm = previous is not None and previous.get("vector") is not None
        direct_round = warm and 2 * len(deployment) >= _DIRECT_MIN_SUPPORT

        phase_start = time.perf_counter()
        if direct_round:
            if direct_problem is None:
                direct_problem = problem.with_solver_mode("direct")
                if shared_stats is not None:
                    # One shared counter object so the result's
                    # solver-stats delta covers direct rounds too.
                    direct_problem.solver_stats = shared_stats
            model = direct_problem.model(deployment)
        else:
            model = problem.model(deployment)
        round_stats.assembly_s = time.perf_counter() - phase_start

        if direct_round:
            round_stats.border_mode = "direct"
            deploy_stats.record_border_mode("direct")
        elif context is not None:
            round_stats.border_mode = context.attach(model)
            deploy_stats.record_border_mode(round_stats.border_mode)

        phase_start = time.perf_counter()
        lam, vector, runaway_method, runaway_iters = _runaway_estimate(
            model, previous, deploy_stats
        )
        round_stats.runaway_s = time.perf_counter() - phase_start
        round_stats.runaway_method = runaway_method
        round_stats.runaway_iterations = runaway_iters
        round_stats.lambda_m = lam

        bounds = None
        if (
            previous is not None
            and math.isfinite(lam)
            and math.isfinite(previous["lambda_m"])
            and previous["lambda_m"] > 0.0
            and previous["current"] > 0.0
        ):
            guess = previous["current"] * (lam / previous["lambda_m"])
            half = max(_WARM_HALF_FRACTION * guess, 50.0 * current_tolerance)
            bounds = (guess - half, guess + half)

        # Warm rounds switch to the slope root-find: with a trusted
        # bracket it needs the fewest factorizations per round of all
        # the methods.  Cold-start rounds use the requested method on
        # the full capped interval.
        round_method = "newton" if bounds is not None else current_method
        try:
            optimum = minimize_peak_temperature(
                model,
                method=round_method,
                tolerance=current_tolerance,
                lambda_m=lam,
                bounds=bounds,
            )
            phase_start = time.perf_counter()
            state = model.solve(optimum.current)
        except SingularSystemError:
            # The warm Rayleigh bound overshot lambda_m past the safety
            # margin and a capped-interval solve went singular: recover
            # with the exact eigenvalue and a cold-bracket retry.
            deploy_stats.runaway_rescues += 1
            lam, vector, _, _ = _exact_runaway(model)
            round_stats.runaway_method = runaway_method + "+rescue"
            round_stats.lambda_m = lam
            optimum = minimize_peak_temperature(
                model,
                method=current_method,
                tolerance=current_tolerance,
                lambda_m=lam,
            )
            phase_start = time.perf_counter()
            state = model.solve(optimum.current)
        offenders = problem.tiles_above_limit(state)
        round_stats.steady_s = time.perf_counter() - phase_start
        round_stats.current_opt_s = optimum.search_s
        round_stats.runaway_s += optimum.runaway_s
        round_stats.evaluations = optimum.evaluations
        round_stats.current_warm = optimum.warm_started
        if optimum.warm_started:
            deploy_stats.current_warm_rounds += 1

        iterations.append(
            GreedyIteration(
                index=round_index,
                added_tiles=added,
                deployment_size=len(deployment),
                current=optimum.current,
                peak_c=state.peak_silicon_c,
                offending_tiles=tuple(sorted(offenders)),
            )
        )
        previous = {
            "lambda_m": lam,
            "vector": vector,
            "names": {
                node.name: index
                for index, node in enumerate(model.network.nodes)
            },
            "current": optimum.current,
        }
        round_stats.wall_s = time.perf_counter() - round_start
        deploy_stats.rounds.append(round_stats)

        if not offenders:
            feasible = True
            break
        if offenders <= deployment:
            feasible = False
            break

    final_current = optimum.current
    if polish and model.stamps:
        upper = _SAFETY_FRACTION * lam if math.isfinite(lam) else None
        polished, evals = polish_current(
            model, optimum.current, upper=upper
        )
        deploy_stats.polish_evaluations += evals
        if polished != final_current:
            polished_state = model.solve(polished)
            polished_offenders = problem.tiles_above_limit(polished_state)
            verdict_stable = bool(polished_offenders) == bool(offenders) and (
                not polished_offenders or polished_offenders <= deployment
            )
            if verdict_stable:
                final_current = polished
                state = polished_state

    return DeploymentResult(
        feasible=feasible,
        tec_tiles=tuple(sorted(deployment)),
        current=final_current,
        peak_c=state.peak_silicon_c,
        no_tec_peak_c=no_tec_peak,
        tec_power_w=state.tec_input_power_w(),
        iterations=iterations,
        runtime_s=time.perf_counter() - start,
        problem=problem,
        model=model,
        current_result=optimum,
        solver_stats=_stats_delta(),
        deploy_stats=deploy_stats,
    )

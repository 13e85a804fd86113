"""The GreedyDeploy algorithm (Section V.B, Figure 5).

Iteratively cover every tile whose temperature exceeds the limit, then
re-optimize the shared supply current for the enlarged deployment:

    S_TEC = {}
    solve G theta = p
    T = { tiles above theta_max }
    loop:
        S_TEC = S_TEC u T
        i_opt = argmin peak temperature            (Problem 2)
        solve (G - i_opt D) theta = p(i_opt)
        T = { tiles above theta_max }
        if T == {}:      return success
        if T subset S_TEC: return failure

Adding TECs cools the covered tiles but heats everything else (the
devices' input power dissipates inside the package), so new tiles can
cross the limit between iterations; the loop terminates because S_TEC
grows monotonically over a finite tile set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import engine
from repro.core.current import minimize_peak_temperature
from repro.core.engine import DeployStats, RoundStats


@dataclass
class GreedyIteration:
    """Snapshot of one GreedyDeploy iteration.

    ``added_tiles`` is the set ``T`` merged into the deployment at the
    start of the iteration; the remaining fields describe the state
    after the current re-optimization.
    """

    index: int
    added_tiles: tuple
    deployment_size: int
    current: float
    peak_c: float
    offending_tiles: tuple


@dataclass
class DeploymentResult:
    """Outcome of GreedyDeploy on one problem instance.

    Attributes
    ----------
    feasible:
        True when the final peak temperature meets the limit (the
        algorithm of Figure 5 returned True).
    tec_tiles:
        The deployment ``S_TEC`` (flat indices, sorted).
    current:
        The optimized shared supply current for the final deployment.
    peak_c:
        Final peak silicon temperature (Celsius).
    no_tec_peak_c:
        Peak temperature of the bare chip (the ``theta_peak`` column).
    tec_power_w:
        Electrical input power of the deployed devices at ``current``
        (the ``P_TEC`` column).
    iterations:
        Per-iteration :class:`GreedyIteration` records.
    runtime_s:
        Wall-clock time of the whole deployment run.
    problem / model:
        The problem instance and the final deployed model.
    solver_stats:
        :class:`~repro.thermal.session.SolverStats` delta accumulated by
        the problem's solve engine over the whole run (None when the
        problem does not expose shared stats).
    deploy_stats:
        :class:`~repro.core.engine.DeployStats` with per-round timing
        and warm-round counters.
    """

    feasible: bool
    tec_tiles: tuple
    current: float
    peak_c: float
    no_tec_peak_c: float
    tec_power_w: float
    iterations: list = field(default_factory=list)
    runtime_s: float = 0.0
    problem: object = None
    model: object = None
    current_result: object = None
    solver_stats: object = None
    deploy_stats: object = None

    @property
    def num_tecs(self):
        """Number of deployed devices (the ``#TECs`` column)."""
        return len(self.tec_tiles)

    @property
    def cooling_swing_c(self):
        """Drop of the peak temperature vs the bare chip (Section VI.B)."""
        return self.no_tec_peak_c - self.peak_c

    def tiles_by_chiplet(self):
        """The deployment grouped per chiplet.

        For a problem built from a
        :class:`~repro.thermal.chiplet.ChipletLayout` (see
        :meth:`~repro.core.problem.CoolingSystemProblem.from_chiplet_layout`),
        returns the layout's
        :meth:`~repro.thermal.chiplet.ChipletLayout.tiles_by_chiplet`
        of the deployment — ``{chiplet_name: (global flat tiles...)}``
        over every chiplet, empty tuples included: the per-chiplet
        ``#TECs`` breakdown of a 2.5D report.  Single-die problems
        report the whole deployment under ``"die"``.
        """
        layout = getattr(self.problem, "layout", None)
        if layout is None:
            return {"die": tuple(self.tec_tiles)}
        return layout.tiles_by_chiplet(self.tec_tiles)


def greedy_deploy(problem, *, current_tolerance=1.0e-4, max_rounds=None):
    """Run GreedyDeploy (Figure 5) on a :class:`CoolingSystemProblem`.

    Every round runs cold — build the deployment's model, solve
    Problem 2 from a cold start over the whole capped interval, solve
    the steady state — except a round that is not the first and
    whose Peltier support ``2 |S_TEC|`` reaches
    :data:`repro.core.engine._DIRECT_MIN_SUPPORT`.  Such a round runs
    :func:`~repro.core.engine.warm_round`: a shift-inverted runaway
    bound seeded by the previous round's eigenvector and the same
    search, first probing the previous optimum scaled by the
    ``lambda_m`` ratio.  Every run is returned as its rounds left it:
    the last round's certified optimum, unpolished.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.CoolingSystemProblem`.
    current_tolerance:
        Passed to :func:`~repro.core.current.minimize_peak_temperature`
        for the per-iteration Problem 2 solves.
    max_rounds:
        Safety cap on iterations; defaults to the tile count (the loop
        provably terminates within that many rounds since the
        deployment grows each round).

    Returns
    -------
    DeploymentResult
    """
    start = time.perf_counter()
    if max_rounds is None:
        max_rounds = problem.grid.num_tiles
    max_rounds = int(max_rounds)
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative, got {}".format(max_rounds))

    shared_stats = getattr(problem, "solver_stats", None)
    stats_before = shared_stats.copy() if shared_stats is not None else None
    deploy_stats = DeployStats()

    model = problem.model(())
    state = model.solve(0.0)
    no_tec_peak = state.peak_silicon_c
    offenders = problem.tiles_above_limit(state)

    # A bare chip within the limit is the answer; one above it with no
    # round budget (max_rounds == 0) is an infeasible one.
    feasible = not offenders
    deployment = set()
    iterations = []
    optimum = None
    previous = None
    for round_index in range(max_rounds if offenders else 0):
        round_start = time.perf_counter()
        added = tuple(sorted(offenders - deployment))
        deployment |= offenders
        warm = (
            round_index > 0
            and 2 * len(deployment) >= engine._DIRECT_MIN_SUPPORT
        )
        if warm:
            round_stats = RoundStats(index=round_index)
            model, optimum, state, vector = engine.warm_round(
                problem, deployment, previous, round_stats, deploy_stats,
                current_tolerance=current_tolerance,
            )
        else:
            round_stats = RoundStats(index=round_index, runaway_method="eigen")
            phase_start = time.perf_counter()
            model = problem.model(deployment)
            round_stats.assembly_s = time.perf_counter() - phase_start
            solved = model.runaway_solved
            optimum = minimize_peak_temperature(
                model, tolerance=current_tolerance
            )
            phase_start = time.perf_counter()
            state = model.solve(optimum.current)
            round_stats.steady_s = time.perf_counter() - phase_start
            round_stats.runaway_s = optimum.runaway_s
            round_stats.current_opt_s = optimum.search_s
            round_stats.evaluations = optimum.evaluations
            round_stats.lambda_m = optimum.lambda_m
            if not solved:
                deploy_stats.runaway_dense += 1
            vector = None
        phase_start = time.perf_counter()
        offenders = problem.tiles_above_limit(state)
        round_stats.steady_s += time.perf_counter() - phase_start
        previous = (model, optimum, vector)
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
        round_stats.wall_s = time.perf_counter() - round_start
        deploy_stats.rounds.append(round_stats)
        if not offenders:
            feasible = True
            break
        if offenders <= deployment:
            break

    return DeploymentResult(
        feasible=feasible,
        tec_tiles=tuple(sorted(deployment)),
        current=0.0 if optimum is None else optimum.current,
        peak_c=state.peak_silicon_c,
        no_tec_peak_c=no_tec_peak,
        tec_power_w=state.tec_input_power_w(),
        iterations=iterations,
        runtime_s=time.perf_counter() - start,
        problem=problem,
        model=model,
        current_result=optimum,
        solver_stats=(
            shared_stats.diff(stats_before) if shared_stats is not None else None
        ),
        deploy_stats=deploy_stats,
    )

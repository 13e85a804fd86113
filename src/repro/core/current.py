"""Problem 2: peak tile temperature minimization (Section V.C).

Given a deployment, find the shared supply current minimizing the
maximum silicon tile temperature:

    minimize  max_{k in SIL} theta_k(i)
    s.t.      (G - i D) theta = p(i),   0 <= i < lambda_m

The search range is capped by the runaway current ``lambda_m``
(Theorem 1): beyond it the steady state ceases to exist and
temperatures diverge (Theorem 2).  Under Conjecture 1 every
``theta_k(i)`` is convex on ``[0, lambda_m)`` (Theorem 3 + the Lemma 4
certificate), so the max is convex and any local minimum is global.

Three solvers are provided (:data:`CURRENT_METHODS`):

* ``method="golden"`` (default): bracket the minimum by doubling from
  zero, then golden-section — derivative-free, robust, and optimal for
  a 1-D convex objective; every cold GreedyDeploy round and every
  Full-Cover baseline runs it;
* ``method="newton"``: safeguarded secant (Illinois) root-find on the
  exact slope ``theta'(i)`` — each evaluation reuses the current's
  factorized system for the derivative solve, so a warm-started round
  converges in ~6-8 factorizations; the workhorse of GreedyDeploy's
  warm rounds (:func:`repro.core.engine.warm_round`);
* ``method="gradient"``: the paper's projected gradient descent with
  backtracking line search, using the exact derivative
  ``theta'(i) = H (D theta + 2 i j)`` obtained from
  ``H' = H D H`` and ``p'(i) = 2 i j`` — the Section V.C.3 reference
  the tests check golden section against.

Warm starts: callers that already know ``lambda_m`` (a warm round's
shift-inverted estimate) pass it via ``lambda_m=`` to skip
the per-round dense eigensolve, and seed the ``"newton"`` search with
``bounds=`` — a sub-interval of ``[0, upper]`` around the previous
round's optimum, from which the slope-sign bracket discovery starts.

:func:`polish_current` refines any approximate minimizer by one
deterministic parabolic fit through three fixed-spacing samples —
independent of the evaluation path that produced the input, so two
differently warm-started searches polished the same way agree to
~1e-6 A even though solver round-off localizes the raw argmin only to
the plateau width ``sqrt(2 eps / f'')``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.utils.validate import check_in_range, check_positive

#: Golden ratio constant for the section search.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Problem 2 search methods accepted by :func:`minimize_peak_temperature`.
CURRENT_METHODS = ("golden", "gradient", "newton")


@dataclass
class CurrentOptimizationResult:
    """Outcome of one Problem 2 solve.

    Attributes
    ----------
    current:
        The optimal shared supply current ``I_opt`` (A).
    peak_c:
        Peak silicon temperature at ``current`` (Celsius).
    lambda_m:
        Runaway current bounding the search (A; ``inf`` if no TEC).
    evaluations:
        Number of steady-state solves performed.
    method:
        The search method, one of :data:`CURRENT_METHODS`.
    converged:
        True when the bracket/step tolerance was met within the
        iteration budget.  For the gradient method this also requires
        that an Armijo line-search failure happened at a (projected)
        stationary point — exhausting the backtracking loop far from
        one reports False.
    history:
        Optional list of ``(current, peak_c)`` pairs visited.
    stats:
        :class:`~repro.thermal.solve.SolverStats` delta accumulated by
        the model's solve engine during this optimization.
    runaway_s / search_s:
        Wall-clock split: computing ``lambda_m`` (zero when injected
        by the caller) vs the 1-D search itself.
    warm_started:
        True when the search started from caller-provided ``bounds``.
    """

    current: float
    peak_c: float
    lambda_m: float
    evaluations: int
    method: str
    converged: bool
    history: list = field(default_factory=list)
    stats: object = None
    runaway_s: float = 0.0
    search_s: float = 0.0
    warm_started: bool = False


class _PeakObjective:
    """Callable computing ``max_k theta_k(i)`` with solve counting."""

    def __init__(self, model, record_history=False):
        self.model = model
        self.evaluations = 0
        self.history = [] if record_history else None

    def __call__(self, current):
        self.evaluations += 1
        peak = self.model.solve(current).peak_silicon_c
        if self.history is not None:
            self.history.append((float(current), float(peak)))
        return peak

    def gradient(self, current):
        """Exact derivative of the peak tile temperature at ``current``.

        Differentiating ``(G - i D) theta = p_base + i^2 j`` gives
        ``theta'(i) = (G - i D)^{-1} (D theta + 2 i j)``; the active
        (hottest) tile's component is a (sub)gradient of the max.
        """
        state = self.model.solve(current)
        system = self.model.system
        rhs = system.d_diagonal * state.theta_k + 2.0 * current * system.joule
        derivative = self.model.solver.solve_rhs(current, rhs)
        return float(derivative[self.model.silicon_nodes[state.peak_tile]]), state


def minimize_peak_temperature(
    model,
    *,
    method="golden",
    tolerance=1.0e-4,
    safety_fraction=0.98,
    max_iterations=200,
    record_history=False,
    lambda_m=None,
    bounds=None,
):
    """Solve Problem 2 for one deployment.

    Parameters
    ----------
    model:
        A :class:`~repro.thermal.model.PackageThermalModel` with at
        least one TEC deployed.  (With none, the result is trivially
        ``i = 0``.)
    method:
        ``"golden"`` (default), ``"gradient"`` (the paper's descent)
        or ``"newton"`` (safeguarded secant on the exact slope).
    tolerance:
        Absolute current tolerance on the final bracket / step (A).
    safety_fraction:
        The search is restricted to ``[0, safety_fraction * lambda_m]``
        to keep the linear solves well-conditioned; temperatures
        diverge at ``lambda_m``, so the minimizer is interior and
        unaffected for any sensible instance.
    max_iterations:
        Iteration budget for the section search / descent.
    record_history:
        Keep the ``(i, peak)`` evaluation trace in the result.
    lambda_m:
        Externally computed runaway current (a float or anything with
        ``.value``/``__float__``).  Skips the internal
        ``model.runaway_current()`` eigensolve — a warm GreedyDeploy
        round passes its shift-inverted estimate here.  Must be an *upper* bound on the true value only up to
        the safety margin: a ``1/safety_fraction`` overestimate still
        keeps the capped search interval valid.
    bounds:
        Optional ``(lo, hi)`` warm-start interval (A) believed to
        contain the minimizer — typically the previous greedy round's
        optimum scaled by the ``lambda_m`` ratio.  ``"newton"`` only
        (any other method raises ``ValueError``): clipped to
        ``[0, upper]``, it seeds the slope-sign bracket discovery — no
        validation probes, a drifted minimum just costs extra
        doubling steps.

    Returns
    -------
    CurrentOptimizationResult
    """
    check_positive(tolerance, "tolerance")
    check_in_range(safety_fraction, "safety_fraction", 0.0, 1.0, inclusive=(False, False))
    if method not in CURRENT_METHODS:
        raise ValueError(
            "unknown method {!r}; use one of {}".format(
                method, ", ".join(CURRENT_METHODS)
            )
        )
    if bounds is not None and method != "newton":
        raise ValueError(
            "bounds seed only the 'newton' search, not {!r}".format(method)
        )
    objective = _PeakObjective(model, record_history=record_history)
    stats_before = model.solver.stats.copy()

    runaway_start = time.perf_counter()
    if lambda_m is None:
        lambda_m = model.runaway_current().value
    else:
        lambda_m = float(lambda_m)
        if lambda_m <= 0.0:
            raise ValueError(
                "injected lambda_m must be positive, got {}".format(lambda_m)
            )
    runaway_s = time.perf_counter() - runaway_start

    search_start = time.perf_counter()
    if not model.stamps:
        peak = objective(0.0)
        return CurrentOptimizationResult(
            current=0.0,
            peak_c=peak,
            lambda_m=lambda_m,
            evaluations=objective.evaluations,
            method=method,
            converged=True,
            history=objective.history or [],
            stats=model.solver.stats.diff(stats_before),
            runaway_s=runaway_s,
            search_s=time.perf_counter() - search_start,
        )

    if math.isinf(lambda_m):
        # D has no positive entry; physically impossible for a stamped
        # TEC (the hot node always carries +alpha), so treat as a
        # configuration error.
        raise ValueError("deployment has TECs but no runaway current; D is degenerate")
    upper = safety_fraction * lambda_m

    if method == "golden":
        result = _golden_section(objective, upper, tolerance, max_iterations)
    elif method == "gradient":
        result = _gradient_descent(objective, upper, tolerance, max_iterations)
    else:  # "newton"
        result = _newton_on_slope(objective, bounds, upper, tolerance, max_iterations)
    current, peak, converged = result
    return CurrentOptimizationResult(
        current=current,
        peak_c=peak,
        lambda_m=lambda_m,
        evaluations=objective.evaluations,
        method=method,
        converged=converged,
        history=objective.history or [],
        stats=model.solver.stats.diff(stats_before),
        runaway_s=runaway_s,
        search_s=time.perf_counter() - search_start,
        warm_started=bounds is not None,
    )


def _newton_on_slope(objective, bounds, upper, tolerance, max_iterations):
    """Safeguarded secant (Illinois) root-find on the exact slope.

    The objective is convex on ``[0, upper]``, so its derivative is
    nondecreasing and the minimizer is the slope's sign change.  Each
    evaluation costs one solver factorization for the temperature plus
    one back-substitution for the derivative (same current, hence a
    cached factorization) — the cheapest information per factorization
    of all the methods.  Discovery doubles outward from the warm guess
    until the slope changes sign; Illinois refinement then converges
    superlinearly with a bisection-grade worst case.
    """
    evaluated = {}

    def eval_at(current):
        if current in evaluated:
            return evaluated[current]
        slope, state = objective.gradient(current)
        objective.evaluations += 1
        peak = float(state.peak_silicon_c)
        if objective.history is not None:
            objective.history.append((float(current), peak))
        evaluated[current] = (slope, peak)
        return slope, peak

    if bounds is not None:
        lo = min(max(float(bounds[0]), 0.0), upper)
        hi = min(max(float(bounds[1]), lo), upper)
        x = 0.5 * (lo + hi)
        step = max(0.5 * (hi - lo), tolerance)
    else:
        x = 0.5 * upper
        step = 0.25 * upper

    neg = pos = None
    slope_neg = slope_pos = 0.0
    for _ in range(60):
        slope, peak = eval_at(x)
        if slope == 0.0:
            return x, peak, True
        if slope < 0.0:
            neg, slope_neg = x, slope
            if pos is not None:
                break
            if x >= upper:
                # Still descending at the capped interval's end: the
                # safety margin is the binding constraint.
                return upper, peak, True
            x = min(x + step, upper)
        else:
            pos, slope_pos = x, slope
            if neg is not None:
                break
            if x <= 0.0:
                # Heating from the first ampere on: cooling never helps.
                return 0.0, peak, True
            x = max(x - step, 0.0)
        step *= 2.0
    if neg is None or pos is None:
        best = min(evaluated, key=lambda key: evaluated[key][1])
        return best, evaluated[best][1], False

    side = 0
    iterations = 0
    while pos - neg > tolerance and iterations < max_iterations:
        iterations += 1
        denominator = slope_pos - slope_neg
        if denominator > 0.0:
            x = pos - slope_pos * (pos - neg) / denominator
        else:
            x = 0.5 * (neg + pos)
        if not neg < x < pos:
            x = 0.5 * (neg + pos)
        slope, peak = eval_at(x)
        if slope == 0.0:
            return x, peak, True
        if slope < 0.0:
            neg, slope_neg = x, slope
            if side == -1:
                slope_pos *= 0.5
            side = -1
        else:
            pos, slope_pos = x, slope
            if side == 1:
                slope_neg *= 0.5
            side = 1
    best = min(evaluated, key=lambda key: evaluated[key][1])
    return best, evaluated[best][1], pos - neg <= tolerance


def polish_current(model, current, *, spacing=1.0e-3, upper=None,
                   max_refinements=6):
    """Deterministic parabolic refinement of a Problem 2 minimizer.

    Solver round-off flattens the objective into a noise plateau of
    width ``sqrt(2 eps / f'')`` around the true minimizer, so two
    searches taking different evaluation paths (cold vs warm-started)
    return raw optima scattered across that plateau — far wider than
    1e-6 A.  Fitting a parabola through ``f`` at three *fixed-spacing*
    samples ``{i - h, i, i + h}`` with ``h`` much larger than the
    noise averages the plateau away.  A single fit still carries an
    ``O((i - i*)^2 f''' / f'')`` bias from the start point, so the fit
    is iterated — recentered on each vertex — until the vertex moves
    by less than ``1e-4 h`` (a fixed point independent of which
    plateau point seeded it, reproducible to ~1e-7 A).  Used on the
    final optimum of a GreedyDeploy run whose last round was warm, and
    by the warm-vs-cold agreement checks.

    Returns ``(polished_current, evaluations)`` — the best center so
    far (the input current on the first step) when the local samples
    are not convex, when the vertex falls outside ``[i - 2h, i + 2h]``,
    or when the window cannot be placed inside ``[0, upper]``.
    """
    check_positive(spacing, "spacing")
    h = float(spacing)
    center = float(current)
    evaluations = 0
    for _ in range(int(max_refinements)):
        window = center
        lo = window - h
        if lo < 0.0:
            window = h
            lo = 0.0
        hi = window + h
        if upper is not None and hi > float(upper):
            window = float(upper) - h
            lo, hi = window - h, window + h
            if lo < 0.0:
                return center, evaluations
        f_lo = float(model.solve(lo).peak_silicon_c)
        f_mid = float(model.solve(window).peak_silicon_c)
        f_hi = float(model.solve(hi).peak_silicon_c)
        evaluations += 3
        curvature = f_lo - 2.0 * f_mid + f_hi
        if curvature <= 0.0 or not math.isfinite(curvature):
            return center, evaluations
        vertex = window + 0.5 * h * (f_lo - f_hi) / curvature
        if abs(vertex - window) > 2.0 * h or not math.isfinite(vertex):
            return center, evaluations
        vertex = max(vertex, 0.0)
        if upper is not None:
            vertex = min(vertex, float(upper))
        moved = abs(vertex - center)
        center = float(vertex)
        if moved <= 1.0e-4 * h:
            break
    return center, evaluations


def _golden_section(objective, upper, tolerance, max_iterations):
    """Bracket by doubling, then golden-section on the bracket."""
    f0 = objective(0.0)
    # Doubling phase: find b with f(b) above the running minimum, so the
    # convex objective's minimizer lies in [0, b].
    step = min(upper / 64.0, 1.0) or upper / 64.0
    best_i, best_f = 0.0, f0
    b = step
    fb = objective(b)
    doublings = 0
    while fb <= best_f and doublings < 60:
        best_i, best_f = b, fb
        b = min(2.0 * b, upper)
        fb = objective(b)
        doublings += 1
        if b >= upper:
            break
    lo, hi = 0.0, b

    # Golden-section search on [lo, hi].
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    iterations = 0
    while hi - lo > tolerance and iterations < max_iterations:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = objective(x2)
        iterations += 1
    candidates = [(f0, 0.0), (f1, x1), (f2, x2), (fb, b), (best_f, best_i)]
    peak, current = min(candidates)
    return float(current), float(peak), iterations < max_iterations


def _gradient_descent(objective, upper, tolerance, max_iterations):
    """The paper's method: projected gradient descent on ``[0, upper]``.

    Backtracking (Armijo) line search; the iterate is clipped to the
    feasible interval.  On the convex objective this converges to the
    global minimizer (Section V.C.3).
    """
    current = min(1.0, 0.25 * upper)
    value = objective(current)
    step = max(0.25, 0.05 * upper)
    converged = False
    for _ in range(max_iterations):
        grad, _ = objective.gradient(current)
        if abs(grad) < 1.0e-12:
            converged = True
            break
        direction = -math.copysign(1.0, grad)
        trial_step = step
        improved = False
        while trial_step > tolerance * 0.25:
            candidate = min(max(current + direction * trial_step, 0.0), upper)
            candidate_value = objective(candidate)
            if candidate_value < value - 1.0e-4 * trial_step * abs(grad):
                current, value = candidate, candidate_value
                step = trial_step * 1.5
                improved = True
                break
            trial_step *= 0.5
        if not improved:
            # Armijo exhaustion only certifies a (projected) stationary
            # point when a tolerance-sized move the *other* way does not
            # improve either — a misleading gradient (e.g. from a
            # near-singular solve) would otherwise be reported as
            # converged far from the minimizer.
            probe = min(max(current - direction * tolerance, 0.0), upper)
            probe_value = objective(probe) if probe != current else value
            converged = not (
                probe_value < value - 1.0e-9 * max(1.0, abs(value))
            )
            break
    return float(current), float(value), converged

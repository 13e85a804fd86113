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

One search answers every caller — cold GreedyDeploy rounds, the
Full-Cover baseline, warm rounds, sweeps and serve.  Each probe
current returns the value, exact slope ``theta' = H (D theta + 2 i j)``
and curvature ``theta'' = H (2 D theta' + 2 j)`` of every silicon tile
(``H = (G - i D)^{-1}``, Section V.C.3; one
:meth:`~repro.thermal.session.SessionView.solve_derivatives` call).
By convexity each tile's tangent line is a lower bound on that tile,
so with ``f*`` the best peak probed so far every minimizer lies where
all tangents stay at or below ``f*``: a *certified bracket*
``[lo, hi]`` cut from ``[0, safety_fraction * lambda_m]`` by every
tile of every probe.  The next probe is the minimizer over the bracket
of the maximum of the latest probe's per-tile quadratic models — a
Newton step that also sees the kink where two tiles cross, which is
where a Table I greedy optimum often sits.  A step that lands within
``tolerance / 4`` of the best probe is replaced by a probe
``0.4 tolerance`` beside it on the uncut side, and one taken when
neither the bracket nor the previous step halved by bisection.  The
search stops when the bracket is at most ``tolerance`` wide and
returns the best probed current.

Warm starts: callers that already know ``lambda_m`` (a warm round's
shift-inverted estimate) pass it via ``lambda_m=`` to skip the dense
eigensolve, and pass ``bounds=`` — an interval around the previous
round's optimum whose midpoint becomes the first probe; the certified
bracket still starts from the whole capped interval.

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

import numpy as np

from repro.utils.units import kelvin_to_celsius
from repro.utils.validate import check_in_range, check_positive

#: Grid points over the bracket that pick the tiles whose quadratic
#: models place the next probe (the bracket always cuts with every
#: tile).
_ENVELOPE_POINTS = 33


@dataclass
class CurrentOptimizationResult:
    """Outcome of one Problem 2 solve.

    Attributes
    ----------
    current:
        The optimal shared supply current ``I_opt`` (A): the best
        probed current.
    peak_c:
        Peak silicon temperature at ``current`` (Celsius).
    lambda_m:
        Runaway current bounding the search (A; ``inf`` if no TEC).
    evaluations:
        Number of probe currents solved.
    converged:
        True when the certified bracket narrowed to ``tolerance``
        within the evaluation budget.
    bracket:
        The certified ``(lo, hi)`` interval (A) holding every
        minimizer when the search stopped.
    history:
        Optional list of ``(current, peak_c)`` pairs visited.
    stats:
        :class:`~repro.thermal.session.SolverStats` delta accumulated by
        the model's solve engine during this optimization.
    runaway_s / search_s:
        Wall-clock split: computing ``lambda_m`` (zero when injected
        by the caller) vs the 1-D search itself.
    warm_started:
        True when the first probe came from caller-provided ``bounds``.
    """

    current: float
    peak_c: float
    lambda_m: float
    evaluations: int
    converged: bool
    bracket: tuple = (0.0, 0.0)
    history: list = field(default_factory=list)
    stats: object = None
    runaway_s: float = 0.0
    search_s: float = 0.0
    warm_started: bool = False


def minimize_peak_temperature(
    model,
    *,
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
    tolerance:
        Width (A) of the certified bracket at which the search stops.
    safety_fraction:
        The search is restricted to ``[0, safety_fraction * lambda_m]``
        to keep the linear solves well-conditioned; temperatures
        diverge at ``lambda_m``, so the minimizer is interior and
        unaffected for any sensible instance.
    max_iterations:
        Evaluation budget: the most probe currents solved.
    record_history:
        Keep the ``(i, peak)`` evaluation trace in the result.
    lambda_m:
        Externally computed runaway current (a float or anything with
        ``.value``/``__float__``).  Skips the internal
        ``model.runaway_current()`` eigensolve — a warm GreedyDeploy
        round passes its shift-inverted estimate here.  Must be an
        *upper* bound on the true value only up to the safety margin:
        a ``1/safety_fraction`` overestimate still keeps the capped
        search interval valid.
    bounds:
        Optional ``(lo, hi)`` warm-start interval (A) believed to
        contain the minimizer — typically the previous greedy round's
        optimum scaled by the ``lambda_m`` ratio.  Clipped to
        ``[0, upper]``, its midpoint is the first probe; the certified
        bracket still starts from ``[0, upper]``, so a drifted guess
        costs a few more probes, never the answer.

    Returns
    -------
    CurrentOptimizationResult
    """
    check_positive(tolerance, "tolerance")
    check_in_range(safety_fraction, "safety_fraction", 0.0, 1.0, inclusive=(False, False))
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
    history = [] if record_history else None
    if not model.stamps:
        peak = model.solve(0.0).peak_silicon_c
        if history is not None:
            history.append((0.0, float(peak)))
        search = (0.0, peak, (0.0, 0.0), 1, True)
    elif math.isinf(lambda_m):
        # D has no positive entry; physically impossible for a stamped
        # TEC (the hot node always carries +alpha), so treat as a
        # configuration error.
        raise ValueError("deployment has TECs but no runaway current; D is degenerate")
    else:
        upper = safety_fraction * lambda_m
        start = 0.0
        if bounds is not None:
            lo = min(max(float(bounds[0]), 0.0), upper)
            hi = min(max(float(bounds[1]), lo), upper)
            start = 0.5 * (lo + hi)

        def probe(current):
            block = model.solver.solve_derivatives(current)[model.silicon_nodes]
            if history is not None:
                history.append((current, float(kelvin_to_celsius(block[:, 0].max()))))
            return block

        search = _tangent_cut_search(
            probe, start, upper, float(tolerance), int(max_iterations)
        )
    current, peak, bracket, evaluations, converged = search
    return CurrentOptimizationResult(
        current=float(current),
        peak_c=float(peak),
        lambda_m=lambda_m,
        evaluations=evaluations,
        converged=converged,
        bracket=bracket,
        history=history or [],
        stats=model.solver.stats.diff(stats_before),
        runaway_s=runaway_s,
        search_s=time.perf_counter() - search_start,
        warm_started=bounds is not None,
    )


def _tangent_cut_search(probe, start, upper, tolerance, budget):
    """The certified tangent-cut search on ``[0, upper]``.

    ``probe(i)`` returns the ``(tiles, 3)`` block of per-tile value,
    slope and curvature at ``i`` (Kelvin).  Returns ``(current,
    peak_c, bracket, evaluations, converged)`` for the best probe.
    """
    currents, values, slopes, peaks = [], [], [], []
    width = last_step = math.inf
    current = start
    while True:
        block = probe(current)
        currents.append(current)
        values.append(block[:, 0])
        slopes.append(block[:, 1])
        peaks.append(block[:, 0].max())
        best = int(np.argmin(peaks))
        lo, hi = _certified_bracket(currents, values, slopes, peaks[best], upper)
        if lo > hi:
            # Round-off emptied the bracket: the cuts cross at the
            # best probe as closely as the solves can tell.
            lo = hi = currents[best]
        if hi - lo <= tolerance or len(currents) >= budget:
            break
        step = _model_minimizer(current, block, lo, hi)
        best_current = currents[best]
        if abs(step - best_current) <= 0.25 * tolerance:
            side = 1.0 if hi - best_current >= best_current - lo else -1.0
            step = min(max(best_current + side * 0.4 * tolerance, lo), hi)
        elif step in currents or (
            hi - lo > 0.5 * width and abs(step - current) > 0.5 * last_step
        ):
            # Neither the bracket nor the step halved: bisect.
            step = 0.5 * (lo + hi)
        width, last_step = hi - lo, abs(step - current)
        current = step
    peak_c = float(kelvin_to_celsius(peaks[best]))
    return currents[best], peak_c, (lo, hi), len(currents), hi - lo <= tolerance


def _certified_bracket(currents, values, slopes, best_peak, upper):
    """``[lo, hi]`` left by every tile's tangent line at every probe:
    a minimizer ``i*`` has ``theta_k(i_j) + theta_k'(i_j) (i* - i_j)
    <= theta_k(i*) <= best_peak``."""
    values = np.asarray(values)
    slopes = np.asarray(slopes)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.asarray(currents)[:, None] + (best_peak - values) / slopes
    lo = max(0.0, float(reach[slopes < 0.0].max(initial=0.0)))
    hi = min(upper, float(reach[slopes > 0.0].min(initial=upper)))
    return lo, hi


def _model_minimizer(current, block, lo, hi):
    """Minimizer over ``[lo, hi]`` of ``max_k q_k`` for the per-tile
    quadratic models ``q_k(t) = v_k + s_k t + c_k t^2 / 2`` about
    ``current`` (``t = i - current``).  The tiles on the models' upper
    envelope over a :data:`_ENVELOPE_POINTS` grid of the bracket take
    part; the max of their quadratics is minimized at an end, a vertex
    or a pairwise crossing, and every candidate is evaluated."""
    value, slope, half = block[:, 0], block[:, 1], 0.5 * block[:, 2]
    grid = np.linspace(lo - current, hi - current, _ENVELOPE_POINTS)
    envelope = value[:, None] + grid * (slope[:, None] + half[:, None] * grid)
    tiles = np.unique(envelope.argmax(axis=0))
    value, slope, half = value[tiles], slope[tiles], half[tiles]
    candidates = [grid[[0, -1]]]
    with np.errstate(divide="ignore", invalid="ignore"):
        candidates.append(-slope / (2.0 * half))
        first, second = np.triu_indices(tiles.size, 1)
        a = half[first] - half[second]
        b = slope[first] - slope[second]
        c = value[first] - value[second]
        root = np.sqrt(b * b - 4.0 * a * c)
        q = -0.5 * (b + np.copysign(root, b))
        candidates.extend([q / a, c / q])
    t = np.concatenate(candidates)
    t = np.clip(t[np.isfinite(t)], grid[0], grid[-1])
    models = value[:, None] + t * (slope[:, None] + half[:, None] * t)
    return current + float(t[np.argmin(models.max(axis=0))])


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

"""Baselines: no-TEC and Full-Cover (Section VI.A).

The paper compares GreedyDeploy against "a baseline strategy where
every tile is covered by a TEC device with the supply current
determined by our convex-programming based peak tile temperature
minimization algorithm".  Full cover maximizes pumping coverage but
pays the input power of every device inside the package, so its best
achievable peak (``min theta_peak``) is *worse* — the gap is the
``SwingLoss`` column, averaging 4.2 C over the benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.current import minimize_peak_temperature


def no_tec_peak_c(problem):
    """Peak silicon temperature of the bare chip (``theta_peak``)."""
    return problem.model(()).solve(0.0).peak_silicon_c


@dataclass
class FullCoverResult:
    """Outcome of the Full-Cover baseline.

    Attributes
    ----------
    min_peak_c:
        The best peak temperature full cover can reach at its own
        optimal current (the ``min theta_peak`` column of Table I).
    current:
        That optimal current (A).
    tec_power_w:
        Input power of the 144-device array at the optimum.
    meets_limit:
        Whether full cover satisfies the problem's temperature limit.
    runtime_s:
        Wall-clock time of the optimization.
    """

    min_peak_c: float
    current: float
    tec_power_w: float
    meets_limit: bool
    runtime_s: float
    model: object = None
    current_result: object = None


def full_cover(problem, *, current_tolerance=1.0e-4):
    """Run the Full-Cover baseline on a problem instance."""
    start = time.perf_counter()
    model = problem.model(range(problem.grid.num_tiles))
    optimum = minimize_peak_temperature(model, tolerance=current_tolerance)
    state = model.solve(optimum.current)
    return FullCoverResult(
        min_peak_c=state.peak_silicon_c,
        current=optimum.current,
        tec_power_w=state.tec_input_power_w(),
        meets_limit=state.peak_silicon_c <= problem.max_temperature_c,
        runtime_s=time.perf_counter() - start,
        model=model,
        current_result=optimum,
    )


def swing_loss_c(greedy_result, full_cover_result):
    """The SwingLoss column: full cover's best peak minus greedy's peak.

    Positive values mean over-deployment *hurt* — the phenomenon the
    paper's greedy strategy exists to avoid.
    """
    return full_cover_result.min_peak_c - greedy_result.peak_c

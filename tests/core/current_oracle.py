"""The paper's Problem 2 method, kept as an independent test oracle.

Projected gradient descent with a backtracking (Armijo) line search on
``[0, upper]`` (Section V.C.3), driven by the exact derivative
``theta'(i) = H (D theta + 2 i j)`` computed through ``solve_rhs``.
The library's search never calls this: the tests compare it against
:func:`repro.core.current.minimize_peak_temperature`.
"""

import math


class PeakObjective:
    """``max_k theta_k(i)`` (Celsius) of a model, with solve counting."""

    def __init__(self, model):
        self.model = model
        self.evaluations = 0

    def __call__(self, current):
        self.evaluations += 1
        return self.model.solve(current).peak_silicon_c

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


def gradient_descent(objective, upper, tolerance, max_iterations):
    """Projected gradient descent; returns ``(current, value, converged)``.

    The iterate is clipped to the feasible interval.  On the convex
    objective this converges to the global minimizer.
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


def oracle_minimum(model, *, tolerance=1.0e-4, safety_fraction=0.98,
                   max_iterations=200):
    """Gradient descent on a deployed model over its capped interval."""
    upper = safety_fraction * model.runaway_current().value
    return gradient_descent(PeakObjective(model), upper, tolerance, max_iterations)

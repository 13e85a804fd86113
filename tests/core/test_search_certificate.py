"""The Problem 2 search's certified bracket on every Table I model.

For each benchmark's GreedyDeploy model and its Full-Cover model the
search must stop with a bracket at most ``tolerance`` wide that holds
the argmin of two grids of exact solves, and it must take at most 8
evaluations.  A coarse grid over the whole capped interval is solved
on ``direct`` (one SPD factorization per current, independent of the
condensed engine), so no other basin hides elsewhere.  A fine grid
around the bracket is solved by the model's own ``solve``: the
``direct`` solves carry ~2e-11 K of rounding noise, whose plateau
(``sqrt(2 noise / f'')``, ~6e-6 A at these curvatures) is as wide as
the fine spacing, while the condensed solves are smooth at 1e-12 K.
"""

import numpy as np
import pytest

from repro.core.current import minimize_peak_temperature
from repro.core.deploy import greedy_deploy
from repro.experiments.benchmarks import benchmark_names, load_benchmark

TOLERANCE = 1.0e-4
COARSE_POINTS = 41
FINE_POINTS = 201


def _models(name):
    problem = load_benchmark(name)
    tiles = {
        "greedy": greedy_deploy(problem).tec_tiles,
        "full-cover": tuple(range(problem.grid.num_tiles)),
    }
    exact = problem.with_solver_mode("direct")
    return {
        kind: (problem.model(deployment), exact.model(deployment))
        for kind, deployment in tiles.items()
    }


def _grid_argmin(model, currents):
    peaks = [model.solve(current).peak_silicon_c for current in currents]
    return currents[int(np.argmin(peaks))]


@pytest.mark.parametrize("name", benchmark_names())
def test_bracket_holds_the_grid_argmin(name):
    for kind, (model, exact) in _models(name).items():
        optimum = minimize_peak_temperature(model, tolerance=TOLERANCE)
        lo, hi = optimum.bracket
        where = "{} {}: bracket {}".format(name, kind, optimum.bracket)
        assert optimum.converged, where
        assert hi - lo <= TOLERANCE, where
        assert lo <= optimum.current <= hi, where
        assert optimum.evaluations <= 8, where

        upper = 0.98 * optimum.lambda_m
        coarse = np.linspace(0.0, upper, COARSE_POINTS)
        spacing = coarse[1] - coarse[0]
        argmin = _grid_argmin(exact, coarse)
        assert lo - spacing <= argmin <= hi + spacing, where

        fine = np.linspace(max(lo - 5 * TOLERANCE, 0.0),
                           min(hi + 5 * TOLERANCE, upper), FINE_POINTS)
        spacing = fine[1] - fine[0]
        argmin = _grid_argmin(model, fine)
        assert lo - spacing <= argmin <= hi + spacing, where

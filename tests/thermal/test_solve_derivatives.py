"""The derivative solve behind the Problem 2 search.

``SessionView.solve_derivatives(i)`` returns ``[theta, theta',
theta'']``.  Every backend must match the paper's exact derivatives
(Section V.C.3) ``theta' = H (D theta + 2 i j)`` and
``theta'' = H (2 D theta' + 2 j)``, ``H = (G - i D)^{-1}``, computed
here through ``solve``/``solve_rhs``, and central differences of the
value.  ``reuse`` differentiates its condensed form instead of solving
with ``H``, so the comparison is an independent check there.
"""

import numpy as np
import pytest

from repro.core.problem import CoolingSystemProblem
from repro.thermal import session
from repro.thermal.chiplet import demo_two_chiplet_layout
from repro.thermal.model import PackageThermalModel

FRACTIONS = (0.0, 0.5, 0.95)
BACKENDS = ("reuse", "direct", "mg")


def _die(mode, small_grid, small_power):
    return PackageThermalModel(
        small_grid, small_power, tec_tiles=(5, 6, 9, 10), solver_mode=mode
    )


def _two_chiplets(mode, *_):
    layout = demo_two_chiplet_layout(rows=4, cols=4, gap=2, power_w=8.0)
    problem = CoolingSystemProblem.from_chiplet_layout(layout, solver_mode=mode)
    # The centre 2x2 block of each 4x4 chiplet (global flat order).
    return problem.model((5, 6, 9, 10, 21, 22, 25, 26))


LAYOUTS = {"die": _die, "two-chiplet": _two_chiplets}


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def layout(request):
    return request.param


def _paper_derivatives(view, current):
    system = view.system
    theta = view.solve(current)
    first = view.solve_rhs(
        current, system.d_diagonal * theta + 2.0 * current * system.joule
    )
    second = view.solve_rhs(
        current, 2.0 * (system.d_diagonal * first + system.joule)
    )
    return np.column_stack([theta, first, second])


def _relative(a, b):
    """Column-wise max-norm difference relative to ``b``'s column."""
    return np.max(np.abs(a - b), axis=0) / np.max(np.abs(b), axis=0)


@pytest.mark.parametrize("mode", BACKENDS)
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_matches_the_paper_formula(layout, mode, fraction, small_grid,
                                   small_power):
    model = LAYOUTS[layout](mode, small_grid, small_power)
    current = fraction * model.runaway_current().value
    block = model.solver.solve_derivatives(current)
    reference = _paper_derivatives(model.solver, current)
    error = _relative(block, reference)
    assert np.all(error <= 1e-12), error


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_mg_columns_meet_the_cg_target(layout, fraction, small_grid,
                                       small_power):
    """Each ``mg`` column solves its defining system to the CG target."""
    model = LAYOUTS[layout]("mg", small_grid, small_power)
    current = fraction * model.runaway_current().value
    theta, first, second = model.solver.solve_derivatives(current).T
    system = model.system
    matrix = system.system_matrix(current)
    for column, rhs in (
        (theta, system.power_vector(current)),
        (first, system.d_diagonal * theta + 2.0 * current * system.joule),
        (second, 2.0 * (system.d_diagonal * first + system.joule)),
    ):
        residual = np.linalg.norm(matrix @ column - rhs)
        assert residual <= 10.0 * session.MG_RTOL * np.linalg.norm(rhs)


@pytest.mark.parametrize("mode", ["reuse", "direct"])
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_agrees_with_central_differences(layout, mode, fraction, small_grid,
                                         small_power):
    model = LAYOUTS[layout](mode, small_grid, small_power)
    lam = model.runaway_current().value
    current = fraction * lam
    h = 1e-4 * lam
    view = model.solver
    left, middle, right = (view.solve(current + s) for s in (-h, 0.0, h))
    block = view.solve_derivatives(current)
    first = (right - left) / (2.0 * h)
    second = (right - 2.0 * middle + left) / (h * h)
    assert _relative(block[:, 1:2], first[:, None])[0] <= 1e-5
    assert _relative(block[:, 2:3], second[:, None])[0] <= 1e-4


def test_value_column_matches_solve(small_grid, small_power):
    model = _die("reuse", small_grid, small_power)
    current = 0.5 * model.runaway_current().value
    block = model.solver.solve_derivatives(current)
    np.testing.assert_allclose(
        block[:, 0], model.solver.solve(current), rtol=0, atol=1e-9
    )


def test_does_not_seed_the_solution_cache(small_grid, small_power):
    """``solve`` answers the same bits whether or not a derivative
    solve ran at that current first."""
    fresh = _die("reuse", small_grid, small_power)
    probed = _die("reuse", small_grid, small_power)
    current = 0.3 * fresh.runaway_current().value
    probed.solver.solve_derivatives(current)
    before = probed.solver.stats.solution_hits
    theta = probed.solver.solve(current)
    assert probed.solver.stats.solution_hits == before
    assert np.array_equal(theta, fresh.solver.solve(current))


@pytest.mark.parametrize("mode", BACKENDS)
def test_counted_as_one_solve(mode, small_grid, small_power):
    model = _die(mode, small_grid, small_power)
    model.solver.solve(0.0)
    before = model.solver.stats.copy()
    model.solver.solve_derivatives(1.0)
    delta = model.solver.stats.diff(before)
    assert delta.solves == 1
    assert delta.rhs_columns == 3


def test_refused_at_runaway(small_grid, small_power):
    model = _die("reuse", small_grid, small_power)
    with pytest.raises(session.SingularSystemError):
        model.solver.solve_derivatives(model.runaway_current().value)

"""Options removed from the Python API fail loudly, never silently.

The sweep runner's shared-memory broadcast (``share_blueprints``), the
Problem 2 ``current_method`` option, ``minimize_peak_temperature``'s
``method`` keyword (with ``CURRENT_METHODS``) and ``run_table1``'s
serial ``stack`` / ``device`` dispatch are gone: one Problem 2 search
serves every round and every Table I row runs as a sweep scenario.
Passing any of them is a ``TypeError`` at the call, before any work
runs.  The
``current_method`` cases of ``BAD_DEPLOY_SETTINGS`` check the same for
``Scenario`` (``tests/sweep/test_spec.py``) and for the HTTP bodies, an
unknown-field 400 (``tests/serve/helpers.py``).

A model's solver is the zero-shift view of its own ``SolveSession``,
on the backend fixed when its problem is built: the
``SteadyStateSolver`` facade (and its ``repro.thermal.solve`` module),
``configure_solver``, the ``solver_cache_size`` knob,
``SolveSession.solve_batch`` and the second single-die router
``thermal_model_for_layout`` are gone.  The CLI side (``--solver-mode``,
``--solver-cache-size``) is checked in ``tests/test_cli.py``.

The multigrid hierarchy runs one configuration: ``mg_solve`` (with
``MgReport``), ``SMOOTHERS``, ``CYCLE_KINDS``, ``cycle(kind=)`` and the
seven hierarchy keywords no caller set are gone.  ``solve_batch`` is
the per-current ``solve`` loop: ``loads=``, ``BatchResult``,
``BatchColumn`` and ``PackageThermalModel.solve_batch`` are gone.

One network builder stamps every package, so nothing routes a
one-chiplet layout (``ChipletLayout.is_single_die`` is gone).  The
sensitivity studies run the certified search on every perturbed model
(no ``warm_start``), and GreedyDeploy reports its last round's optimum
unpolished (no ``polish_final``, no ``DeployStats.polish_evaluations``).
"""

import importlib

import pytest

from repro.core import engine
from repro.core.baselines import full_cover
from repro.core.current import minimize_peak_temperature
from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.core.sensitivity import monte_carlo_feasibility, parameter_sensitivities
from repro.experiments.table1 import run_benchmark_row, run_table1
from repro.linalg.multigrid import MultigridHierarchy
from repro.sweep import SweepRunner, SweepSpec
from repro.thermal.chiplet import ChipletLayout
from repro.thermal.model import CompositeThermalModel, PackageThermalModel
from repro.thermal.session import SessionView, SolveSession

#: (callable, positional args, the removed keyword).
REMOVED_KEYWORDS = [
    (greedy_deploy, (None,), "current_method"),
    (full_cover, (None,), "current_method"),
    (minimize_peak_temperature, (None,), "method"),
    (run_table1, (), "current_method"),
    (run_table1, (), "stack"),
    (run_table1, (), "device"),
    (run_benchmark_row, ("alpha",), "current_method"),
    (run_benchmark_row, ("alpha",), "stack"),
    (run_benchmark_row, ("alpha",), "device"),
    (SweepRunner, (), "share_blueprints"),
    (SweepSpec.table1, (), "current_method"),
    (SweepSpec.device_grid, ("alpha", (1,)), "current_method"),
    (CoolingSystemProblem, (None, None), "solver_cache_size"),
    (PackageThermalModel, (None, None), "solver_cache_size"),
    (CompositeThermalModel, (None,), "solver_cache_size"),
    (parameter_sensitivities, (None, ()), "warm_start"),
    (monte_carlo_feasibility, (None, ()), "warm_start"),
    (MultigridHierarchy, (None,), "coarse_size"),
    (MultigridHierarchy, (None,), "max_levels"),
    (MultigridHierarchy, (None,), "smoother"),
    (MultigridHierarchy, (None,), "sweeps"),
    (MultigridHierarchy, (None,), "smooth_prolongator"),
    (MultigridHierarchy, (None,), "cycle_kind"),
    (MultigridHierarchy, (None,), "use_stencil"),
    (MultigridHierarchy.cycle, (None, None), "kind"),
    (SessionView.solve_batch, (None, ()), "loads"),
]

#: (owner, the removed attribute).
REMOVED_ATTRIBUTES = [
    (CoolingSystemProblem, "configure_solver"),
    (SolveSession, "solve_batch"),
    (PackageThermalModel, "solve_batch"),
    (ChipletLayout, "is_single_die"),
    (engine, "polish_final"),
    (engine.DeployStats, "polish_evaluations"),
]


#: (module, the removed name).
REMOVED_NAMES = [
    ("repro.linalg.multigrid", "mg_solve"),
    ("repro.linalg.multigrid", "MgReport"),
    ("repro.linalg.multigrid", "SMOOTHERS"),
    ("repro.linalg.multigrid", "CYCLE_KINDS"),
    ("repro.thermal.session", "BatchResult"),
    ("repro.thermal.session", "BatchColumn"),
]


@pytest.mark.parametrize(
    "func, args, keyword", REMOVED_KEYWORDS,
    ids=["{}-{}".format(f.__qualname__, k) for f, _, k in REMOVED_KEYWORDS],
)
def test_removed_keyword_is_a_type_error(func, args, keyword):
    with pytest.raises(TypeError, match=keyword):
        func(*args, **{keyword: None})


@pytest.mark.parametrize(
    "owner, name", REMOVED_ATTRIBUTES,
    ids=[
        "{}.{}".format(getattr(o, "__qualname__", o.__name__), n)
        for o, n in REMOVED_ATTRIBUTES
    ],
)
def test_removed_attribute_is_an_attribute_error(owner, name):
    with pytest.raises(AttributeError, match=name):
        getattr(owner, name)


def test_removed_solve_module_is_not_found():
    with pytest.raises(ModuleNotFoundError, match="repro.thermal.solve"):
        importlib.import_module("repro.thermal.solve")


def test_removed_steady_state_solver_is_an_import_error():
    with pytest.raises(ImportError, match="SteadyStateSolver"):
        from repro.thermal import SteadyStateSolver  # noqa: F401


def test_removed_search_methods_are_an_import_error():
    with pytest.raises(ImportError, match="CURRENT_METHODS"):
        from repro.core.current import CURRENT_METHODS  # noqa: F401


def test_removed_layout_router_is_an_import_error():
    with pytest.raises(ImportError, match="thermal_model_for_layout"):
        from repro.thermal.model import thermal_model_for_layout  # noqa: F401


@pytest.mark.parametrize(
    "module, name", REMOVED_NAMES,
    ids=["{}.{}".format(m, n) for m, n in REMOVED_NAMES],
)
def test_removed_name_is_an_import_error(module, name):
    with pytest.raises(ImportError, match=name):
        exec("from {} import {}".format(module, name), {})

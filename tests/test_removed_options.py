"""Options removed from the Python API fail loudly, never silently.

The sweep runner's shared-memory broadcast (``share_blueprints``), the
Problem 2 ``current_method`` option and ``run_table1``'s serial
``stack`` / ``device`` dispatch are gone: every cold search is golden
section and every Table I row runs as a sweep scenario.  Passing any of
them is a ``TypeError`` at the call, before any work runs.  The
``current_method`` cases of ``BAD_DEPLOY_SETTINGS`` check the same for
``Scenario`` (``tests/sweep/test_spec.py``) and for the HTTP bodies, an
unknown-field 400 (``tests/serve/helpers.py``).
"""

import pytest

from repro.core.baselines import full_cover
from repro.core.deploy import greedy_deploy
from repro.experiments.table1 import run_benchmark_row, run_table1
from repro.sweep import SweepRunner, SweepSpec

#: (callable, positional args, the removed keyword).
REMOVED_KEYWORDS = [
    (greedy_deploy, (None,), "current_method"),
    (full_cover, (None,), "current_method"),
    (run_table1, (), "current_method"),
    (run_table1, (), "stack"),
    (run_table1, (), "device"),
    (run_benchmark_row, ("alpha",), "current_method"),
    (run_benchmark_row, ("alpha",), "stack"),
    (run_benchmark_row, ("alpha",), "device"),
    (SweepRunner, (), "share_blueprints"),
    (SweepSpec.table1, (), "current_method"),
    (SweepSpec.device_grid, ("alpha", (1,)), "current_method"),
]


@pytest.mark.parametrize(
    "func, args, keyword", REMOVED_KEYWORDS,
    ids=["{}-{}".format(f.__qualname__, k) for f, _, k in REMOVED_KEYWORDS],
)
def test_removed_keyword_is_a_type_error(func, args, keyword):
    with pytest.raises(TypeError, match=keyword):
        func(*args, **{keyword: None})

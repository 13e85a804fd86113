"""The runaway bound answered from the model's solve session.

Under the ``reuse`` backend :meth:`PackageThermalModel.runaway_current`
reads the session's condensed pencil instead of factoring ``G`` again.
These tests pin that path against the standalone support-last
factorization (bit for bit), against the factorization count, against
the pencil ``(G, D)`` itself, and against the paper's binary search.
"""

import math

import numpy as np
import pytest

from repro.experiments.benchmarks import load_benchmark
from repro.linalg import condensed as condensed_module
from repro.linalg.runaway import (
    runaway_current_binary_search,
    runaway_current_eigen,
)
from repro.thermal.model import PackageThermalModel

_TILES = (5, 6, 9, 10)


@pytest.fixture
def reuse_model(small_grid, small_power):
    return PackageThermalModel(
        small_grid, small_power, tec_tiles=_TILES, solver_mode="reuse"
    )


@pytest.fixture
def no_standalone_lu(monkeypatch):
    """Fail the test if the standalone sparse LU is reached."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("runaway path factored G on its own")

    monkeypatch.setattr(condensed_module, "splu", forbidden)


class TestSessionPath:
    def test_bitwise_equal_to_standalone(self, reuse_model):
        system = reuse_model.system
        standalone, standalone_vector = runaway_current_eigen(
            system.g_matrix, system.d_diagonal, return_vector=True,
            lattice=system.lattice,
        )
        session = reuse_model.runaway_current()
        _, session_vector = runaway_current_eigen(
            system.g_matrix, system.d_diagonal, return_vector=True,
            condensed=reuse_model.runaway_condensed(),
        )
        assert session.value == standalone.value
        assert np.array_equal(session_vector, standalone_vector)

    def test_auto_resolving_to_reuse_takes_the_session_path(
        self, small_grid, small_power, no_standalone_lu
    ):
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=_TILES, solver_mode="auto"
        )
        assert model.solver.effective_mode == "reuse"
        assert model.runaway_condensed() is not None
        assert math.isfinite(model.runaway_current().value)

    def test_adds_no_factorization(self, reuse_model, no_standalone_lu):
        reuse_model.solve(0.5)
        before = reuse_model.solver.stats.copy()
        result = reuse_model.runaway_current()
        delta = reuse_model.solver.stats.diff(before)
        assert math.isfinite(result.value)
        assert delta.factorizations == 0
        # The one column is the eigenvector's lift solve.
        assert delta.rhs_columns == 1

    def test_cold_session_factors_once_through_the_session(
        self, reuse_model, no_standalone_lu
    ):
        result = reuse_model.runaway_current()
        assert math.isfinite(result.value)
        assert reuse_model.solver.stats.factorizations == 1
        # The pencil it built serves the later per-current solves.
        reuse_model.solve(0.5 * result.value)
        assert reuse_model.solver.stats.factorizations == 1

    @pytest.mark.parametrize("mode", ["direct", "mg"])
    def test_other_backends_keep_the_standalone_lu(
        self, small_grid, small_power, mode
    ):
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=_TILES, solver_mode=mode
        )
        assert model.runaway_condensed() is None
        system = model.system
        expected = runaway_current_eigen(
            system.g_matrix, system.d_diagonal, lattice=system.lattice
        )
        assert model.runaway_current().value == expected.value

    def test_eigenvector_satisfies_the_pencil(self, reuse_model):
        system = reuse_model.system
        result, vector = runaway_current_eigen(
            system.g_matrix, system.d_diagonal, return_vector=True,
            condensed=reuse_model.runaway_condensed(),
        )
        g_v = system.g_matrix @ vector
        residual = g_v - result.value * (system.d_diagonal * vector)
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(g_v)

    def test_no_tecs_is_infinite_without_touching_the_session(
        self, small_grid, small_power
    ):
        model = PackageThermalModel(
            small_grid, small_power, solver_mode="reuse"
        )
        assert math.isinf(model.runaway_current().value)
        assert model.solver.stats.factorizations == 0

    def test_no_positive_entry_is_infinite_without_the_block(
        self, reuse_model
    ):
        def forbidden():
            raise AssertionError("condensed pencil requested for D <= 0")

        system = reuse_model.system
        result, vector = runaway_current_eigen(
            system.g_matrix, -np.abs(system.d_diagonal),
            return_vector=True, condensed=forbidden,
        )
        assert math.isinf(result.value)
        assert vector is None


class TestFullCoverBlock:
    def test_alpha_full_cover_matches_binary_search(self):
        """The largest Table I reduction (m = 288 support nodes)."""
        problem = load_benchmark("alpha")
        model = problem.model(range(problem.grid.num_tiles))
        assert model.solver.effective_mode == "reuse"
        assert np.count_nonzero(model.system.d_diagonal) == 288
        eigen = model.runaway_current().value
        search = runaway_current_binary_search(
            model.system.g_matrix, model.system.d_diagonal, tolerance=1e-12
        )
        assert search.value == pytest.approx(eigen, rel=1e-9)

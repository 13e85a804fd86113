"""Steady-state solver: correctness, caching, backends, singular handling."""

import numpy as np
import pytest

from repro.thermal.assembly import assemble
from repro.thermal.network import NodeRole, ThermalNetwork
from repro.thermal.session import (
    AUTO_SUPPORT_FLOOR,
    SingularSystemError,
    SolveSession,
    select_backend,
)
from repro.utils import celsius_to_kelvin


def steady_view(system, mode="direct", cache_size=8):
    """A standalone steady solver: the zero-shift view of a fresh
    session, exactly what a model's ``solver`` is."""
    return SolveSession(system, mode=mode, cache_size=cache_size).view(None)


@pytest.fixture()
def tec_system():
    net = ThermalNetwork()
    sil = net.add_node("sil", NodeRole.SILICON)
    snk = net.add_node("snk", NodeRole.SINK)
    cold = net.add_node("cold", NodeRole.TEC_COLD)
    hot = net.add_node("hot", NodeRole.TEC_HOT)
    net.add_conductance(sil, cold, 0.3)
    net.add_conductance(cold, hot, 0.02)
    net.add_conductance(hot, snk, 0.3)
    net.add_conductance(sil, snk, 0.01)
    net.add_ground_conductance(snk, 1.0)
    net.add_source(sil, 0.5)
    net.add_joule(cold, 1.25e-3)
    net.add_joule(hot, 1.25e-3)
    net.set_peltier(hot, +2e-4)
    net.set_peltier(cold, -2e-4)
    return assemble(net, 45.0)


class TestSolve:
    def test_zero_current_matches_dense_solve(self, tec_system):
        solver = steady_view(tec_system)
        theta = solver.solve(0.0)
        expected = np.linalg.solve(tec_system.g_matrix.toarray(), tec_system.p_base)
        assert np.allclose(theta, expected)

    def test_all_temperatures_above_ambient_without_cooling(self, tec_system):
        theta = steady_view(tec_system).solve(0.0)
        assert np.all(theta >= celsius_to_kelvin(45.0) - 1e-9)

    def test_current_changes_solution(self, tec_system):
        solver = steady_view(tec_system)
        assert not np.allclose(solver.solve(0.0), solver.solve(5.0))

    def test_cache_reuses_factorization(self, tec_system):
        solver = steady_view(tec_system, cache_size=2)
        solver.solve(1.0)
        lu_first = solver._lu_cache[1.0]
        solver.solve(1.0)
        assert solver._lu_cache[1.0] is lu_first

    def test_cache_eviction(self, tec_system):
        solver = steady_view(tec_system, cache_size=2)
        solver.solve(1.0)
        solver.solve(2.0)
        solver.solve(3.0)
        assert 1.0 not in solver._lu_cache
        assert {2.0, 3.0} <= set(solver._lu_cache)

    def test_cache_size_validation(self, tec_system):
        with pytest.raises(ValueError):
            steady_view(tec_system, cache_size=0)

    def test_check_definite_raises_beyond_runaway(self, tec_system):
        from repro.linalg.runaway import runaway_current

        solver = steady_view(tec_system)
        lam = runaway_current(tec_system.g_matrix, tec_system.d_diagonal).value
        with pytest.raises(SingularSystemError):
            solver.solve(1.5 * lam, check_definite=True)

    def test_below_runaway_passes_check(self, tec_system):
        from repro.linalg.runaway import runaway_current

        solver = steady_view(tec_system)
        lam = runaway_current(tec_system.g_matrix, tec_system.d_diagonal).value
        theta = solver.solve(0.5 * lam, check_definite=True)
        assert np.all(np.isfinite(theta))


class TestRhsAndInfluence:
    def test_solve_rhs_shape_check(self, tec_system):
        solver = steady_view(tec_system)
        with pytest.raises(ValueError, match="rhs"):
            solver.solve_rhs(0.0, np.zeros(3))

    def test_influence_rows_match_inverse(self, tec_system):
        solver = steady_view(tec_system)
        rows = solver.influence_rows(0.0, [0, 2])
        inverse = np.linalg.inv(tec_system.g_matrix.toarray())
        assert np.allclose(rows[0], inverse[0])
        assert np.allclose(rows[1], inverse[2])

    def test_influence_rows_nonnegative(self, tec_system):
        """Lemma 3 seen through the solver: H entries >= 0."""
        solver = steady_view(tec_system)
        rows = solver.influence_rows(0.0, range(tec_system.num_nodes))
        assert np.all(rows >= -1e-12)


class TestLruPolicy:
    def test_recently_used_entry_survives_eviction(self, tec_system):
        """True LRU: re-touching a current refreshes its recency, so the
        alternating access pattern of the section search keeps hitting."""
        solver = steady_view(tec_system, cache_size=2)
        rhs = tec_system.p_base
        solver.solve_rhs(1.0, rhs)
        solver.solve_rhs(2.0, rhs)
        solver.solve_rhs(1.0, rhs)  # refresh 1.0
        solver.solve_rhs(3.0, rhs)  # must evict 2.0, not 1.0
        assert 1.0 in solver._lu_cache
        assert 2.0 not in solver._lu_cache
        assert 3.0 in solver._lu_cache

    def test_eviction_counter(self, tec_system):
        solver = steady_view(tec_system, cache_size=2)
        rhs = tec_system.p_base
        for current in (1.0, 2.0, 3.0, 4.0):
            solver.solve_rhs(current, rhs)
        assert solver.stats.evictions == 2

    def test_hit_and_miss_counters(self, tec_system):
        solver = steady_view(tec_system, cache_size=4)
        rhs = tec_system.p_base
        solver.solve_rhs(1.0, rhs)
        solver.solve_rhs(2.0, rhs)
        solver.solve_rhs(1.0, rhs)
        assert solver.stats.cache_misses == 2
        assert solver.stats.cache_hits == 1
        assert solver.stats.cache_hit_rate == pytest.approx(1.0 / 3.0)

    def test_solution_cache_hit(self, tec_system):
        solver = steady_view(tec_system, cache_size=4)
        first = solver.solve(2.0)
        second = solver.solve(2.0)
        assert solver.stats.solution_hits == 1
        assert np.array_equal(first, second)
        # Returned arrays are copies: mutating one must not poison the cache.
        second[:] = 0.0
        assert np.array_equal(solver.solve(2.0), first)


class TestReuseMode:
    def test_matches_direct_mode(self, tec_system):
        direct = steady_view(tec_system, mode="direct")
        reuse = steady_view(tec_system, mode="reuse")
        for current in (0.0, 0.5, 1.0, 2.0):
            assert np.allclose(
                reuse.solve(current), direct.solve(current), rtol=1e-10, atol=1e-10
            )

    def test_single_sparse_factorization(self, tec_system):
        solver = steady_view(tec_system, mode="reuse")
        for current in (0.1, 0.7, 1.3, 2.1, 2.9):
            solver.solve(current)
        assert solver.stats.factorizations == 1
        # One pencil eigendecomposition serves every current.
        assert solver.stats.condensed_factorizations == 1

    def test_solve_rhs_matches_direct(self, tec_system):
        direct = steady_view(tec_system, mode="direct")
        reuse = steady_view(tec_system, mode="reuse")
        rhs = np.arange(1.0, tec_system.num_nodes + 1.0)
        assert np.allclose(
            reuse.solve_rhs(1.5, rhs), direct.solve_rhs(1.5, rhs),
            rtol=1e-10, atol=1e-10,
        )

    def test_influence_rows_match_direct(self, tec_system):
        direct = steady_view(tec_system, mode="direct")
        reuse = steady_view(tec_system, mode="reuse")
        nodes = range(tec_system.num_nodes)
        assert np.allclose(
            reuse.influence_rows(1.0, nodes), direct.influence_rows(1.0, nodes),
            rtol=1e-10, atol=1e-10,
        )

    def test_mode_validation(self, tec_system):
        with pytest.raises(ValueError, match="mode"):
            SolveSession(tec_system, mode="iterative")


class TestRemovedBackends:
    """The ``krylov`` and ``cholesky`` backends and their knobs are gone:
    naming one fails loudly instead of silently picking another."""

    @pytest.mark.parametrize("mode", ["krylov", "cholesky"])
    def test_removed_mode_is_refused(self, tec_system, mode):
        with pytest.raises(ValueError, match="mode"):
            SolveSession(tec_system, mode=mode)

    @pytest.mark.parametrize("knob", [
        "krylov_method", "krylov_rtol", "krylov_maxiter", "krylov_restart",
        "mg_options",
    ])
    def test_removed_knob_is_refused(self, tec_system, knob):
        with pytest.raises(TypeError, match=knob):
            SolveSession(tec_system, **{knob: None})


class TestAutoMode:
    def test_select_backend_small_support(self):
        assert select_backend(100, 10) == "reuse"

    def test_select_backend_dense_support(self):
        assert select_backend(10000, 2000) == "direct"

    def test_select_backend_floor_boundary(self):
        # the floor dominates sqrt(n) on small systems
        assert select_backend(16, AUTO_SUPPORT_FLOOR) == "reuse"
        assert select_backend(16, AUTO_SUPPORT_FLOOR + 1) == "direct"

    def test_auto_resolves_per_system(self, tec_system):
        solver = steady_view(tec_system, mode="auto")
        # 4 nodes, support 2: well below the floor -> condensed reuse
        assert solver.effective_mode == "reuse"
        assert solver.mode == "auto"  # the request is preserved

    def test_auto_matches_direct(self, tec_system):
        direct = steady_view(tec_system, mode="direct")
        auto = steady_view(tec_system, mode="auto")
        for current in (0.0, 0.5, 1.0):
            assert np.allclose(
                auto.solve(current), direct.solve(current),
                rtol=1e-8, atol=1e-8,
            )

    def test_non_auto_effective_mode_is_identity(self, tec_system):
        for mode in ("direct", "reuse", "mg"):
            assert steady_view(tec_system, mode=mode).effective_mode == mode


class TestExactFloatCacheKey:
    """Pin the exact-float per-current cache key (see the
    ``repro.thermal.session`` module docstring): quantizing the key is
    a deliberate change."""

    def test_nearly_identical_currents_always_miss(self, tec_system):
        solver = steady_view(tec_system, mode="direct")
        rhs = tec_system.p_base
        current = 1.0
        solver.solve_rhs(current, rhs)
        solver.solve_rhs(current * (1.0 + 1e-15), rhs)
        assert solver.stats.cache_misses == 2
        assert solver.stats.cache_hits == 0
        assert solver.stats.cache_hit_rate == 0.0

    def test_exact_current_hits(self, tec_system):
        solver = steady_view(tec_system, mode="direct")
        rhs = tec_system.p_base
        solver.solve_rhs(1.0, rhs)
        solver.solve_rhs(1.0, rhs)
        assert solver.stats.cache_hits == 1
        assert solver.stats.cache_hit_rate == pytest.approx(0.5)

    def test_reuse_capacitance_cache_keys_exact_floats(self, tec_system):
        """Under reuse the pencil's spectrum serves every current, so
        the per-current cache is the solution cache — keyed on the
        exact float — and the per-device factor is keyed on the exact
        bytes of the diagonal."""
        solver = steady_view(tec_system, mode="reuse")
        solver.solve(1.0)
        solver.solve(np.nextafter(1.0, 2.0))
        assert solver.stats.solution_hits == 0
        solver.solve(1.0)
        assert solver.stats.solution_hits == 1
        d = tec_system.d_diagonal
        nudged = d.copy()
        k = np.flatnonzero(d)[0]
        nudged[k] = np.nextafter(d[k], np.inf)
        before = solver.stats.copy()
        solver.solve_diagonal(d, tec_system.p_base)
        solver.solve_diagonal(nudged, tec_system.p_base)
        delta = solver.stats.diff(before)
        assert delta.condensed_factorizations == 2
        assert delta.cache_hits == 0


class TestSingularHandling:
    """SingularSystemError at/beyond the runaway current ``lambda_m``
    for the reuse and direct backends."""

    @staticmethod
    def _runaway(tec_system):
        from repro.linalg.runaway import runaway_current

        return runaway_current(tec_system.g_matrix, tec_system.d_diagonal).value

    def test_reuse_capacitance_guard_at_runaway(self, tec_system):
        """The condensed ``C_S - i diag(d_S)`` is singular exactly at
        ``lambda_m``; the guard on its spectral factor ``1 - i mu_max``
        must catch it instead of returning garbage temperatures."""
        solver = steady_view(tec_system, mode="reuse")
        lam = self._runaway(tec_system)
        with pytest.raises(SingularSystemError, match="runaway"):
            solver.solve(lam)

    def test_runaway_equals_capacitance_singularity(self, tec_system):
        """Cross-check: 1 / max eig of the pencil ``(diag(d_S), C_S)``
        is exactly ``lambda_m``, so the guard and Theorem 1 agree on
        where runaway happens."""
        import scipy.linalg

        solver = steady_view(tec_system, mode="reuse")
        pencil = solver.condensed()
        eigs = scipy.linalg.eigvals(np.diag(pencil.d_support), pencil.schur)
        real = eigs.real[np.abs(eigs.imag) < 1e-9 * np.abs(eigs).max()]
        i_sing = 1.0 / real.max()
        assert i_sing == pytest.approx(self._runaway(tec_system), rel=1e-9)

    def test_reuse_check_definite_beyond_runaway(self, tec_system):
        solver = steady_view(tec_system, mode="reuse")
        with pytest.raises(SingularSystemError):
            solver.solve(1.5 * self._runaway(tec_system), check_definite=True)

    def test_direct_refuses_beyond_runaway(self, tec_system):
        """The SPD factorization's pivot check refuses an indefinite
        ``G - i D`` instead of returning temperatures below absolute
        zero, as a general LU of the nonsingular system would."""
        solver = steady_view(tec_system, mode="direct")
        with pytest.raises(SingularSystemError, match="runaway"):
            solver.solve(1.5 * self._runaway(tec_system))


class TestBatchedRhs:
    def test_matrix_rhs_matches_column_solves(self, tec_system):
        solver = steady_view(tec_system)
        rhs = np.column_stack([
            tec_system.p_base,
            np.arange(float(tec_system.num_nodes)),
        ])
        batched = solver.solve_rhs(1.0, rhs)
        assert batched.shape == rhs.shape
        for j in range(rhs.shape[1]):
            assert np.allclose(batched[:, j], solver.solve_rhs(1.0, rhs[:, j]))

    def test_rhs_columns_counted(self, tec_system):
        solver = steady_view(tec_system)
        solver.solve_rhs(0.0, np.zeros((tec_system.num_nodes, 3)))
        assert solver.stats.rhs_columns == 3


class TestSolverStats:
    def test_diff_and_copy(self, tec_system):
        solver = steady_view(tec_system)
        before = solver.stats.copy()
        solver.solve(1.0)
        delta = solver.stats.diff(before)
        assert delta.solves == 1
        assert delta.factorizations == 1
        assert before.solves == 0  # the snapshot is independent

    def test_as_dict_round_trips(self, tec_system):
        solver = steady_view(tec_system)
        solver.solve(0.5)
        data = solver.stats.as_dict()
        assert data["solves"] == 1
        assert set(data) == {
            "factorizations", "condensed_factorizations", "cache_hits",
            "cache_misses", "evictions", "solves", "rhs_columns",
            "solution_hits", "mg_hierarchies", "mg_solves",
            "mg_cycles", "mg_fallbacks",
            "factor_time_s", "solve_time_s",
            "full_builds", "incremental_builds", "assembly_time_s",
        }

    def test_summary_is_single_line(self, tec_system):
        solver = steady_view(tec_system)
        solver.solve(0.5)
        summary = solver.stats.summary()
        assert "\n" not in summary
        assert "1 LU" in summary


class TestClusteredCurrents:
    """Tightly clustered currents (Problem 2 probes, shift-invert
    shifts) each get an exact condensed factor of their own."""

    @staticmethod
    def _big_model():
        from repro.thermal.geometry import TileGrid
        from repro.thermal.model import PackageThermalModel

        grid = TileGrid(6, 6)
        power = np.full(grid.num_tiles, 0.12)
        # Full coverage: support of 72 nodes on a 36-tile grid.
        return PackageThermalModel(
            grid, power, tec_tiles=tuple(range(grid.num_tiles)),
            solver_mode="reuse",
        )

    def test_clustered_currents_match_fresh_direct_solves(self):
        model = self._big_model()
        direct = steady_view(model.system, mode="direct")
        currents = [1.0, 1.05, 1.0 + 1e-9, 1.05 * (1.0 + 1e-15)]
        for current in currents:
            got = model.solve(current).theta_k
            want = direct.solve(current)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        stats = model.solver.stats
        assert stats.factorizations == 1
        # One pencil eigendecomposition answers every current.
        assert stats.condensed_factorizations == 1

    def test_repeated_diagonal_reuses_the_last_factor(self):
        model = self._big_model()
        rhs = np.ones(model.num_nodes)
        diagonal = 1.05 * model.system.d_diagonal
        first = model.solver.solve_diagonal(diagonal, rhs)
        before = model.solver.stats.copy()
        second = model.solver.solve_diagonal(diagonal, rhs)
        delta = model.solver.stats.diff(before)
        assert delta.condensed_factorizations == 0
        assert delta.cache_hits == 1
        np.testing.assert_array_equal(first, second)
        np.testing.assert_allclose(
            first, model.solver.solve_rhs(1.05, rhs), rtol=1e-10, atol=1e-10
        )

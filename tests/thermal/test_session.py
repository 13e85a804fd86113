"""The shared solve-session engine: view keying and sharing, shifted
and arbitrary-diagonal solves vs a dense reference, and the LRU cache
accounting every consumer relies on."""

import numpy as np
import pytest

from repro.thermal.model import PackageThermalModel
from repro.thermal.session import SolveSession

_TILES = (5, 6, 9, 10)
_ATOL_K = 1e-6


@pytest.fixture
def make_model(small_grid, small_power):
    """A fresh deployed model per call — private session and stats, so
    cache-counter assertions never see another test's traffic."""

    def build(mode="direct", **kwargs):
        return PackageThermalModel(
            small_grid, small_power, tec_tiles=_TILES,
            solver_mode=mode, **kwargs,
        )

    return build


def _shift_for(model, scale=1.0):
    """A deterministic positive diagonal shaped like ``C / dt``."""
    n = model.num_nodes
    return scale * (0.5 + 0.01 * np.arange(n))


def _rhs_for(model, columns=None):
    n = model.num_nodes
    if columns is None:
        return np.sin(np.arange(n) + 1.0)
    return np.sin(np.arange(n * columns) + 1.0).reshape(n, columns)


class TestViewKeying:
    def test_solver_is_the_base_view(self, make_model):
        model = make_model()
        assert model.solver is model.session.base_view()
        assert model.solver is model.session.view(None)

    def test_equal_shift_bytes_share_one_view(self, make_model):
        model = make_model()
        shift = _shift_for(model)
        view = model.session.view(shift)
        assert model.session.view(shift.copy()) is view
        assert model.session.view(list(shift)) is view

    def test_distinct_shifts_get_distinct_views(self, make_model):
        model = make_model()
        session = model.session
        base_views = session.num_views
        a = session.view(_shift_for(model))
        b = session.view(_shift_for(model, scale=2.0))
        assert a is not b
        assert session.num_views == base_views + 2

    def test_cache_size_grows_but_never_shrinks(self, make_model):
        model = make_model()
        shift = _shift_for(model)
        view = model.session.view(shift, cache_size=4)
        assert view._cache_size == 4
        assert model.session.view(shift, cache_size=2) is view
        assert view._cache_size == 4
        assert model.session.view(shift, cache_size=16) is view
        assert view._cache_size == 16

    def test_shift_shape_validated(self, make_model):
        model = make_model()
        with pytest.raises(ValueError, match="shift must have length"):
            model.session.view(np.ones(3))

    def test_cache_size_validated(self, make_model):
        model = make_model()
        with pytest.raises(ValueError, match="cache_size"):
            model.session.view(_shift_for(model), cache_size=0)
        with pytest.raises(ValueError, match="cache_size"):
            SolveSession(model.system, cache_size=0)

    def test_bad_mode_rejected(self, make_model):
        model = make_model()
        with pytest.raises(ValueError, match="mode"):
            SolveSession(model.system, mode="frobnicate")

    def test_shift_property_returns_a_copy(self, make_model):
        model = make_model()
        shift = _shift_for(model)
        view = model.session.view(shift)
        exposed = view.shift
        exposed[0] = 999.0
        assert view.shift[0] != 999.0
        assert model.solver.shift is None

    def test_shifted_views_inherit_the_session_mode(self, make_model):
        model = make_model("auto")
        view = model.session.view(_shift_for(model))
        assert view.mode == "auto"
        assert view.effective_mode == model.solver.effective_mode
        assert view.effective_mode in ("reuse", "direct")


class TestShiftedSolves:
    """``(S + G - i D) x = b`` must match a dense reference in every
    backend — this is the transient / control-loop system."""

    @pytest.mark.parametrize("mode", ["direct", "reuse", "mg", "auto"])
    def test_solve_rhs_matches_dense(self, make_model, mode):
        model = make_model(mode)
        shift = _shift_for(model)
        view = model.session.view(shift)
        rhs = _rhs_for(model)
        for current in (0.0, 0.8, 2.5):
            dense = np.linalg.solve(
                np.diag(shift) + model.system.system_matrix(current).toarray(),
                rhs,
            )
            np.testing.assert_allclose(
                view.solve_rhs(current, rhs), dense, atol=_ATOL_K, rtol=0.0
            )

    @pytest.mark.parametrize("mode", ["direct", "reuse"])
    def test_multi_rhs_matches_dense(self, make_model, mode):
        model = make_model(mode)
        shift = _shift_for(model)
        view = model.session.view(shift)
        rhs = _rhs_for(model, columns=3)
        current = 1.2
        dense = np.linalg.solve(
            np.diag(shift) + model.system.system_matrix(current).toarray(),
            rhs,
        )
        np.testing.assert_allclose(
            view.solve_rhs(current, rhs), dense, atol=_ATOL_K, rtol=0.0
        )

    def test_rhs_length_validated(self, make_model):
        model = make_model()
        view = model.session.view(_shift_for(model))
        with pytest.raises(ValueError, match="rhs has length"):
            view.solve_rhs(0.0, np.ones(3))


class TestSharedFactorizations:
    def test_second_consumer_reuses_the_cached_factorization(self, make_model):
        model = make_model("direct")
        shift = _shift_for(model)
        rhs = _rhs_for(model)
        first = model.session.view(shift)
        first.solve_rhs(0.7, rhs)
        stats = model.solver.stats
        factorizations = stats.factorizations
        hits = stats.cache_hits
        # A "different" consumer asking for the same C / dt shift gets
        # the same view, so its solve is a pure cache hit.
        second = model.session.view(shift.copy())
        expected = second.solve_rhs(0.7, rhs)
        assert stats.factorizations == factorizations
        assert stats.cache_hits == hits + 1
        np.testing.assert_allclose(expected, first.solve_rhs(0.7, rhs))

    def test_tiny_cache_evicts_but_stays_correct(self, make_model):
        model = make_model("direct")
        shift = _shift_for(model, scale=3.0)
        view = model.session.view(shift, cache_size=1)
        stats = model.solver.stats
        evictions = stats.evictions
        rhs = _rhs_for(model)
        currents = (0.1, 0.4, 0.9)
        for current in currents:
            view.solve_rhs(current, rhs)
        assert stats.evictions >= evictions + 2
        # Re-solving an evicted current refactorizes and still agrees
        # with the dense reference.
        dense = np.linalg.solve(
            np.diag(shift) + model.system.system_matrix(0.1).toarray(), rhs
        )
        np.testing.assert_allclose(
            view.solve_rhs(0.1, rhs), dense, atol=_ATOL_K, rtol=0.0
        )


class TestSolveDiagonal:
    """``(S + G - diag(d)) x = b`` — the multi-pin generalization."""

    def _device_diagonal(self, model, fraction=0.6):
        d_diag = model.system.d_diagonal
        support = np.flatnonzero(d_diag)
        d = np.zeros(model.num_nodes)
        # Distinct per-entry "currents" over the Peltier support.
        d[support] = d_diag[support] * (
            fraction * np.linspace(0.4, 1.0, support.size)
        )
        return d

    @pytest.mark.parametrize("mode", ["direct", "reuse", "mg"])
    def test_matches_dense(self, make_model, mode):
        model = make_model(mode)
        view = model.session.base_view()
        d = self._device_diagonal(model)
        rhs = model.system.p_base
        dense = np.linalg.solve(
            model.system.g_matrix.toarray() - np.diag(d), rhs
        )
        np.testing.assert_allclose(
            view.solve_diagonal(d, rhs), dense, atol=_ATOL_K, rtol=0.0
        )

    @pytest.mark.parametrize("mode", ["direct", "reuse"])
    def test_shifted_diagonal_matches_dense(self, make_model, mode):
        model = make_model(mode)
        shift = _shift_for(model)
        view = model.session.view(shift)
        d = self._device_diagonal(model)
        rhs = _rhs_for(model)
        dense = np.linalg.solve(
            np.diag(shift) + model.system.g_matrix.toarray() - np.diag(d),
            rhs,
        )
        np.testing.assert_allclose(
            view.solve_diagonal(d, rhs), dense, atol=_ATOL_K, rtol=0.0
        )

    @pytest.mark.parametrize("mode", ["direct", "reuse", "mg"])
    def test_zero_diagonal_is_the_base_solve(self, make_model, mode):
        model = make_model(mode)
        view = model.session.base_view()
        rhs = model.system.p_base
        dense = np.linalg.solve(model.system.g_matrix.toarray(), rhs)
        np.testing.assert_allclose(
            view.solve_diagonal(np.zeros(model.num_nodes), rhs),
            dense, atol=_ATOL_K, rtol=0.0,
        )

    def test_off_support_diagonal_falls_back_to_direct(self, make_model):
        model = make_model("reuse")
        view = model.session.base_view()
        d = self._device_diagonal(model)
        # A nonzero entry outside the Peltier support (a silicon node)
        # breaks the condensed structure; the reuse backend must answer
        # it with a direct factorization, not silently wrong numbers.
        silicon = model.silicon_nodes[0]
        assert model.system.d_diagonal[silicon] == 0.0
        d[silicon] = 1.0e-3
        rhs = model.system.p_base
        factorizations = model.solver.stats.factorizations
        dense = np.linalg.solve(
            model.system.g_matrix.toarray() - np.diag(d), rhs
        )
        np.testing.assert_allclose(
            view.solve_diagonal(d, rhs), dense, atol=_ATOL_K, rtol=0.0
        )
        assert model.solver.stats.factorizations > factorizations

    def test_repeated_diagonal_hits_the_byte_keyed_cache(self, make_model):
        model = make_model("direct")
        view = model.session.base_view()
        d = self._device_diagonal(model)
        rhs = model.system.p_base
        first = view.solve_diagonal(d, rhs)
        stats = model.solver.stats
        factorizations = stats.factorizations
        hits = stats.cache_hits
        second = view.solve_diagonal(d.copy(), rhs)
        assert stats.factorizations == factorizations
        assert stats.cache_hits == hits + 1
        assert np.array_equal(first, second)

    def test_validation(self, make_model):
        model = make_model()
        view = model.session.base_view()
        with pytest.raises(ValueError, match="diagonal must have length"):
            view.solve_diagonal(np.ones(3), model.system.p_base)
        with pytest.raises(ValueError, match="rhs has length"):
            view.solve_diagonal(np.zeros(model.num_nodes), np.ones(3))


def _remote_solve(model, current):
    """Top-level helper so process-pool workers can unpickle it."""
    state = model.solve(current)
    return np.asarray(state.silicon_c)


class TestForkSafety:
    """Sessions must survive pickling (process pools, forked servers).

    ``SessionView.__getstate__`` drops the live ``splu`` handles and
    every factorization-derived cache; clones rebuild them lazily and
    must answer bit-identically to the warm original.
    """

    @pytest.mark.parametrize(
        "mode", ["direct", "reuse", "mg", "auto"]
    )
    def test_warm_model_roundtrips_bit_identically(self, make_model, mode):
        import pickle

        model = make_model(mode)
        currents = (0.0, 0.8, 1.6)
        warm = [model.solve(i).silicon_c for i in currents]
        # The session is now carrying live factorizations and cached
        # solutions — exactly the state that cannot cross a fork.
        clone = pickle.loads(pickle.dumps(model))
        for current, reference in zip(currents, warm):
            np.testing.assert_array_equal(
                clone.solve(current).silicon_c, reference
            )

    def test_clone_caches_start_empty(self, make_model):
        import pickle

        model = make_model("reuse")
        model.solve(1.2)
        shift = _shift_for(model)
        model.session.view(shift).solve_rhs(0.0, _rhs_for(model))
        assert sum(model.session.cache_info().values()) > 0
        clone_session = pickle.loads(pickle.dumps(model)).session
        info = clone_session.cache_info()
        views = info.pop("views")
        assert views >= 1  # view bookkeeping survives, caches do not
        assert all(count == 0 for count in info.values())

    def test_warm_session_crosses_a_process_pool(self, make_model):
        from concurrent.futures import ProcessPoolExecutor

        model = make_model("reuse")
        current = 1.4
        local = _remote_solve(model, current)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_remote_solve, model, current).result()
        np.testing.assert_array_equal(remote, local)

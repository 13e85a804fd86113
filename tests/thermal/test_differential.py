"""Differential tests of the independent solve paths.

Three implementations answer ``(G - i D) theta = p(i)`` for a package
model: the per-current sparse SPD engine (``mode="direct"``), the
condensed factorization-reuse engine (``mode="reuse"``, with ``auto``
dispatching between the two), and a dense ``numpy.linalg.solve`` on
the assembled matrices.  They share no code past assembly, so
agreement on randomized floorplans and deployments is strong evidence
against a defect in any one path.

Tolerance: temperatures are absolute Kelvin values of order 3e2 and
the nodal systems are well conditioned (cond(G) ~ 1e4 for these
package networks), so double-precision factorizations agree to ~1e-9 K
relative; ``atol=1e-6`` Kelvin leaves three orders of margin while
remaining far below any physically meaningful difference.

Blueprint replay, by contrast, promises *bitwise* equality:
instantiating a recorded
:class:`~repro.thermal.assembly.NetworkBlueprint` yields the elements
of a fresh build in the same order, so the assembled arrays must be
identical — not merely close — on any grid and deployment, not just
the Alpha fixture it was introduced with.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.thermal.geometry import TileGrid
from repro.thermal.model import PackageThermalModel

_ATOL_K = 1e-6

_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _instances(draw):
    """A random (grid, power map, deployment) triple."""
    rows = draw(st.integers(min_value=2, max_value=4))
    cols = draw(st.integers(min_value=2, max_value=4))
    tiles = rows * cols
    power = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.8),
            min_size=tiles,
            max_size=tiles,
        )
    )
    deployment = draw(
        st.sets(
            st.integers(min_value=0, max_value=tiles - 1),
            min_size=1,
            max_size=min(6, tiles),
        )
    )
    return rows, cols, np.array(power), tuple(sorted(deployment))


def _currents(model):
    """Probe currents: passive, mid-range, and near-runaway."""
    lam = model.runaway_current().value
    return [0.0, 0.3 * lam, 0.8 * lam]


class TestSolverModesAgree:
    @given(_instances())
    @_settings
    def test_direct_vs_reuse_vs_dense(self, instance):
        rows, cols, power, deployment = instance
        grid = TileGrid(rows, cols)
        direct = PackageThermalModel(
            grid, power, tec_tiles=deployment, solver_mode="direct"
        )
        reuse = PackageThermalModel(
            grid, power, tec_tiles=deployment, solver_mode="reuse"
        )
        for current in _currents(direct):
            theta_direct = direct.solve(current).theta_k
            theta_reuse = reuse.solve(current).theta_k
            system = direct.system
            theta_dense = np.linalg.solve(
                system.system_matrix(current).toarray(),
                system.power_vector(current),
            )
            np.testing.assert_allclose(
                theta_reuse, theta_direct, atol=_ATOL_K, rtol=0.0
            )
            np.testing.assert_allclose(
                theta_direct, theta_dense, atol=_ATOL_K, rtol=0.0
            )

    def test_auto_vs_dense(self):
        """``auto`` resolves a dense deployment — every tile of a 6x6
        grid, support 72 past the 64 floor — to ``direct``, and must
        agree with the dense reference.  (On the small random instances
        it resolves to ``reuse``, covered above.)"""
        grid = TileGrid(6, 6)
        power = np.linspace(0.1, 0.6, grid.num_tiles)
        auto = PackageThermalModel(
            grid, power, tec_tiles=tuple(range(grid.num_tiles)),
            solver_mode="auto",
        )
        assert auto.solver.effective_mode == "direct"
        for current in _currents(auto):
            system = auto.system
            theta_dense = np.linalg.solve(
                system.system_matrix(current).toarray(),
                system.power_vector(current),
            )
            np.testing.assert_allclose(
                auto.solve(current).theta_k, theta_dense,
                atol=_ATOL_K, rtol=0.0,
            )

    @given(_instances())
    @_settings
    def test_direct_multi_rhs_matches_dense(self, instance):
        rows, cols, power, deployment = instance
        grid = TileGrid(rows, cols)
        model = PackageThermalModel(
            grid, power, tec_tiles=deployment, solver_mode="direct"
        )
        current = 0.5 * model.runaway_current().value
        rhs = np.eye(model.num_nodes)[:, :3]
        batched = model.solver.solve_rhs(current, rhs)
        dense = np.linalg.solve(
            model.system.system_matrix(current).toarray(), rhs
        )
        np.testing.assert_allclose(batched, dense, atol=_ATOL_K, rtol=0.0)

    @given(_instances())
    @_settings
    def test_multi_rhs_matches_dense(self, instance):
        """solve_rhs batches must agree with dense column solves."""
        rows, cols, power, deployment = instance
        grid = TileGrid(rows, cols)
        model = PackageThermalModel(
            grid, power, tec_tiles=deployment, solver_mode="reuse"
        )
        current = 0.5 * model.runaway_current().value
        rhs = np.eye(model.num_nodes)[:, :3]
        batched = model.solver.solve_rhs(current, rhs)
        dense = np.linalg.solve(
            model.system.system_matrix(current).toarray(), rhs
        )
        np.testing.assert_allclose(batched, dense, atol=_ATOL_K, rtol=0.0)


class TestBlueprintReplayBitEquality:
    @given(_instances())
    @_settings
    def test_replay_matches_fresh_assembly_bitwise(self, instance):
        rows, cols, power, deployment = instance
        grid = TileGrid(rows, cols)
        blueprint = PackageThermalModel(grid, power).network_blueprint()
        replayed = PackageThermalModel(
            grid, power, tec_tiles=deployment, blueprint=blueprint
        )
        fresh = PackageThermalModel(grid, power, tec_tiles=deployment)

        a, b = replayed.system, fresh.system
        assert np.array_equal(a.g_matrix.indptr, b.g_matrix.indptr)
        assert np.array_equal(a.g_matrix.indices, b.g_matrix.indices)
        assert np.array_equal(a.g_matrix.data, b.g_matrix.data)
        assert np.array_equal(a.d_diagonal, b.d_diagonal)
        assert np.array_equal(a.p_base, b.p_base)
        assert np.array_equal(a.joule, b.joule)

    @given(_instances())
    @_settings
    def test_replayed_stamps_map_to_same_nodes(self, instance):
        rows, cols, power, deployment = instance
        grid = TileGrid(rows, cols)
        blueprint = PackageThermalModel(grid, power).network_blueprint()
        replayed = PackageThermalModel(
            grid, power, tec_tiles=deployment, blueprint=blueprint
        )
        fresh = PackageThermalModel(grid, power, tec_tiles=deployment)
        assert replayed.hot_nodes == fresh.hot_nodes
        assert replayed.cold_nodes == fresh.cold_nodes
        assert replayed.silicon_nodes == fresh.silicon_nodes


class TestScaleReplayBitEquality:
    """Die-conductivity scale replay — the nonlinear k(T) iteration's
    fast path — must be bitwise identical to a from-scratch build at
    the same scale, on any grid and deployment."""

    @given(_instances(), st.floats(min_value=0.5, max_value=1.5))
    @_settings
    def test_with_scale_matches_fresh_build_bitwise(self, instance, scale):
        rows, cols, power, deployment = instance
        grid = TileGrid(rows, cols)
        # A non-uniform per-tile scale field around the drawn level.
        scale_map = scale * np.linspace(0.9, 1.1, grid.num_tiles)
        base = PackageThermalModel(grid, power, tec_tiles=deployment)
        replayed = base.with_die_conductivity_scale(scale_map)
        fresh = PackageThermalModel(
            grid, power, tec_tiles=deployment, die_conductivity_scale=scale_map
        )

        a, b = replayed.system, fresh.system
        assert np.array_equal(a.g_matrix.indptr, b.g_matrix.indptr)
        assert np.array_equal(a.g_matrix.indices, b.g_matrix.indices)
        assert np.array_equal(a.g_matrix.data, b.g_matrix.data)
        assert np.array_equal(a.d_diagonal, b.d_diagonal)
        assert np.array_equal(a.p_base, b.p_base)
        assert np.array_equal(a.joule, b.joule)

    @given(_instances(), st.floats(min_value=0.5, max_value=1.5))
    @_settings
    def test_scaled_solve_matches_dense(self, instance, scale):
        rows, cols, power, deployment = instance
        grid = TileGrid(rows, cols)
        scale_map = scale * np.linspace(0.9, 1.1, grid.num_tiles)
        model = PackageThermalModel(
            grid, power, tec_tiles=deployment
        ).with_die_conductivity_scale(scale_map)
        current = _currents(model)[1]
        system = model.system
        theta_dense = np.linalg.solve(
            system.system_matrix(current).toarray(),
            system.power_vector(current),
        )
        np.testing.assert_allclose(
            model.solve(current).theta_k, theta_dense, atol=_ATOL_K, rtol=0.0
        )

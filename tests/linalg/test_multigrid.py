"""Unit and property tests of :mod:`repro.linalg.multigrid`.

The multigrid layer is pure linear algebra over a
:class:`~repro.linalg.multigrid.LatticeGeometry`; these tests build
synthetic layered-lattice Laplacians (random positive conductances, a
positive diagonal shift, optional off-lattice periphery nodes — the
same structure :mod:`repro.thermal.assembly` produces) and pin:

* aggregation invariants — per-layer 2x2 agglomeration partitions the
  nodes, never merges layers, and appends off-lattice singletons;
* the matrix-free stencil reproducing ``A @ x`` to round-off;
* the two-grid property (hypothesis): one V-cycle contracts the error
  in the energy norm for random right-hand sides and initial guesses;
* the one configuration the ``mg`` backend runs — smoothed prolongator
  and stencil on the finest level, piecewise-constant transfers below;
* solver behaviour of CG preconditioned by
  :meth:`MultigridHierarchy.precondition` (what the backend runs) —
  convergence to a true-residual target, multi-RHS blocks, plan reuse,
  fork-safe pickling.

Hierarchies over these small lattices patch :data:`COARSE_SIZE` down
so that they are several levels deep.
"""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import multigrid
from repro.linalg.krylov import krylov_solve
from repro.linalg.multigrid import (
    LatticeGeometry,
    LatticeStencil,
    MultigridHierarchy,
    lattice_coarsen,
    pairwise_aggregates,
    tentative_prolongator,
    validate_lattice_geometry,
)


def _lattice_system(rows, cols, layers=2, periphery=0, seed=0, shift=1.0e-2):
    """A synthetic SPD layered-lattice operator with its geometry.

    Graph Laplacian over random positive conductances on the lattice
    edges (lateral within each layer, same-tile between consecutive
    layers, periphery nodes coupled to the last layer's first tiles)
    plus a positive diagonal shift — the structure of ``S + G``.
    """
    rng = np.random.default_rng(seed)
    tiles = rows * cols
    n = layers * tiles + periphery
    layer = np.full(n, -1, dtype=np.int64)
    tile = np.full(n, -1, dtype=np.int64)
    for li in range(layers):
        layer[li * tiles:(li + 1) * tiles] = li
        tile[li * tiles:(li + 1) * tiles] = np.arange(tiles)

    def node(li, r, c):
        return li * tiles + r * cols + c

    rows_idx, cols_idx, weights = [], [], []

    def couple(i, j):
        w = rng.uniform(0.5, 2.0)
        rows_idx.extend((i, j))
        cols_idx.extend((j, i))
        weights.extend((w, w))

    for li in range(layers):
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    couple(node(li, r, c), node(li, r, c + 1))
                if r + 1 < rows:
                    couple(node(li, r, c), node(li, r + 1, c))
                if li + 1 < layers:
                    couple(node(li, r, c), node(li + 1, r, c))
    for p in range(periphery):
        couple(layers * tiles + p, node(layers - 1, 0, p % cols))

    adjacency = sp.coo_matrix(
        (weights, (rows_idx, cols_idx)), shape=(n, n)
    ).tocsr()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    matrix = sp.diags(degrees + shift) - adjacency
    geometry = LatticeGeometry(rows=rows, cols=cols, layer=layer, tile=tile)
    return matrix.tocsr(), geometry


def _hierarchy(matrix, coarse_size=40, **kwargs):
    """A hierarchy built with :data:`COARSE_SIZE` patched down."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multigrid, "COARSE_SIZE", coarse_size)
        return MultigridHierarchy(matrix, **kwargs)


def _pcg(matrix, rhs, hierarchy, rtol=1e-10, maxiter=200):
    """CG preconditioned by one V-cycle — what the ``mg`` backend runs."""
    return krylov_solve(
        matrix, rhs, preconditioner=hierarchy.precondition,
        rtol=rtol, maxiter=maxiter,
    )


_CACHE = {}


def _cached(rows, cols, **kwargs):
    key = (rows, cols, tuple(sorted(kwargs.items())))
    if key not in _CACHE:
        matrix, geometry = _lattice_system(rows, cols, **kwargs)
        _CACHE[key] = (
            matrix, geometry, _hierarchy(matrix, geometry=geometry)
        )
    return _CACHE[key]


class TestLatticeCoarsen:
    @given(
        rows=st.integers(min_value=1, max_value=9),
        cols=st.integers(min_value=1, max_value=9),
        layers=st.integers(min_value=1, max_value=3),
        periphery=st.integers(min_value=0, max_value=3),
    )
    @settings(deadline=None, max_examples=40)
    def test_partition_invariants(self, rows, cols, layers, periphery):
        _, geometry = _lattice_system(
            rows, cols, layers=layers, periphery=periphery
        )
        agg, coarse = lattice_coarsen(geometry)
        # A partition: every node lands in exactly one aggregate and
        # the aggregate ids are dense.
        assert agg.min() >= 0
        assert set(np.unique(agg)) == set(range(agg.max() + 1))
        assert coarse.num_nodes == agg.max() + 1
        # Layers are never merged (semicoarsening).
        for a in range(agg.max() + 1):
            members = np.flatnonzero(agg == a)
            assert len(set(geometry.layer[members])) == 1
        # Off-lattice nodes stay singletons.
        for i in np.flatnonzero(~geometry.on_lattice()):
            assert np.count_nonzero(agg == agg[i]) == 1
        assert coarse.rows == (rows + 1) // 2
        assert coarse.cols == (cols + 1) // 2

    def test_2x2_blocks_agglomerate(self):
        _, geometry = _lattice_system(4, 4, layers=1)
        agg, _ = lattice_coarsen(geometry)
        block = [0 * 4 + 0, 0 * 4 + 1, 1 * 4 + 0, 1 * 4 + 1]  # tiles (0:2, 0:2)
        assert len({agg[t] for t in block}) == 1
        other = [0 * 4 + 2, 0 * 4 + 3, 1 * 4 + 2, 1 * 4 + 3]
        assert len({agg[t] for t in other}) == 1
        assert agg[block[0]] != agg[other[0]]

    def test_coarsening_terminates(self):
        _, geometry = _lattice_system(16, 16, layers=2)
        for _ in range(10):
            agg, geometry = lattice_coarsen(geometry)
            if geometry.rows == 1 and geometry.cols == 1:
                break
        assert geometry.rows == 1 and geometry.cols == 1


class TestPairwiseAggregates:
    def test_partition_with_small_aggregates(self):
        matrix, _ = _lattice_system(4, 4, layers=1)
        agg = pairwise_aggregates(matrix)
        assert agg.min() >= 0
        sizes = np.bincount(agg)
        assert sizes.max() <= 2  # pairwise: at most two nodes per aggregate
        assert sizes.sum() == matrix.shape[0]

    def test_deterministic(self):
        matrix, _ = _lattice_system(5, 3, layers=2, seed=7)
        np.testing.assert_array_equal(
            pairwise_aggregates(matrix), pairwise_aggregates(matrix)
        )


class TestTentativeProlongator:
    def test_piecewise_constant(self):
        agg = np.array([0, 0, 1, 2, 1])
        prolong = tentative_prolongator(agg)
        assert prolong.shape == (5, 3)
        dense = prolong.toarray()
        np.testing.assert_array_equal(dense.sum(axis=1), np.ones(5))
        np.testing.assert_array_equal(dense.sum(axis=0), [2, 2, 1])


class TestLatticeStencil:
    @pytest.mark.parametrize("periphery", [0, 3])
    def test_apply_matches_matrix(self, periphery):
        matrix, geometry = _lattice_system(
            6, 5, layers=3, periphery=periphery, seed=3
        )
        stencil = LatticeStencil(matrix, geometry)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(matrix.shape[0])
        expected = matrix @ x
        scale = np.linalg.norm(expected)
        assert np.linalg.norm(stencil.apply_G(x) - expected) <= 1e-13 * scale

    def test_block_rhs(self):
        matrix, geometry = _lattice_system(4, 4, layers=2, periphery=2)
        stencil = LatticeStencil(matrix, geometry)
        rng = np.random.default_rng(5)
        block = rng.standard_normal((matrix.shape[0], 3))
        np.testing.assert_allclose(
            stencil.apply_G(block), matrix @ block, rtol=0, atol=1e-12
        )

    def test_pure_lattice_has_no_residual(self):
        matrix, geometry = _lattice_system(4, 4, layers=2, periphery=0)
        assert LatticeStencil(matrix, geometry).residual_nnz == 0

    def test_periphery_lands_in_residual(self):
        matrix, geometry = _lattice_system(4, 4, layers=2, periphery=2)
        stencil = LatticeStencil(matrix, geometry)
        # Two symmetric periphery couplings: 4 off-diagonal entries.
        assert stencil.residual_nnz == 4

    def test_size_mismatch_rejected(self):
        matrix, _ = _lattice_system(4, 4)
        _, other = _lattice_system(4, 5)
        with pytest.raises(ValueError, match="nodes"):
            LatticeStencil(matrix, other)

    def test_nbytes_positive(self):
        matrix, geometry = _lattice_system(4, 4)
        assert LatticeStencil(matrix, geometry).nbytes() > 0


class TestHierarchy:
    def test_structure(self):
        matrix, geometry, hierarchy = _cached(16, 16, layers=2, periphery=3)
        assert hierarchy.num_levels >= 3
        assert hierarchy.fine_size == matrix.shape[0]
        assert hierarchy._coarse_matrix.shape[0] <= 40 + 3
        # Galerkin coarse operators stay symmetric with positive
        # diagonals — the SPD structure CG relies on.
        for level in hierarchy.levels[1:]:
            op = level.matrix
            assert abs(op - op.T).max() <= 1e-10 * abs(op).max()
            assert level.matrix.diagonal().min() > 0.0
        assert len(hierarchy.plan) == hierarchy.num_levels - 1

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=25)
    def test_two_grid_energy_contraction(self, seed):
        """One V-cycle contracts the error in the energy norm."""
        matrix, _, hierarchy = _cached(16, 16, layers=2, periphery=3)
        rng = np.random.default_rng(seed)
        x_true = rng.standard_normal(matrix.shape[0])
        b = matrix @ x_true
        x0 = rng.standard_normal(matrix.shape[0])
        x1 = hierarchy.cycle(b, x0=x0)

        def energy(e):
            return float(np.sqrt(e @ (matrix @ e)))

        e0, e1 = energy(x0 - x_true), energy(x1 - x_true)
        assert e1 < 0.5 * e0

    def test_invalid_options_rejected(self):
        """The one configuration takes no options: the smoother and
        cycle kinds this test once range-checked are TypeErrors now."""
        matrix, geometry = _lattice_system(4, 4)
        with pytest.raises(TypeError, match="smoother"):
            MultigridHierarchy(matrix, geometry=geometry, smoother="jacobi")
        with pytest.raises(TypeError, match="cycle_kind"):
            MultigridHierarchy(matrix, geometry=geometry, cycle_kind="F")
        hierarchy = MultigridHierarchy(matrix, geometry=geometry)
        with pytest.raises(TypeError, match="kind"):
            hierarchy.cycle(np.ones(matrix.shape[0]), kind="F")

    def test_one_configuration(self):
        """Only the finest level smooths its prolongator and carries
        the stencil; every coarser transfer is piecewise constant."""
        _, _, hierarchy = _cached(16, 16, layers=2, periphery=3)
        assert hierarchy.sweeps == multigrid.SWEEPS
        fine, *coarser = hierarchy.levels
        assert fine.stencil is not None
        assert np.any(fine.prolong.getnnz(axis=1) > 1)
        assert coarser
        for level in coarser:
            assert level.stencil is None
            np.testing.assert_array_equal(level.prolong.getnnz(axis=1), 1)
            np.testing.assert_array_equal(level.prolong.data, 1.0)

    def test_coarse_size_is_read_at_build_time(self):
        matrix, geometry = _lattice_system(8, 8, layers=2)
        deep = _hierarchy(matrix, coarse_size=10, geometry=geometry)
        shallow = MultigridHierarchy(matrix, geometry=geometry)
        assert multigrid.COARSE_SIZE == 400
        assert shallow.num_levels == 1  # 128 unknowns: factored directly
        assert deep.num_levels > 2

    def test_plan_reuse_matches_fresh_build(self):
        matrix, geometry, hierarchy = _cached(8, 8, layers=2)
        rebuilt = _hierarchy(matrix, geometry=geometry, plan=hierarchy.plan)
        assert rebuilt.num_levels == hierarchy.num_levels
        for mine, theirs in zip(rebuilt.plan, hierarchy.plan):
            np.testing.assert_array_equal(mine, theirs)
        b = np.linspace(0.0, 1.0, matrix.shape[0])
        np.testing.assert_array_equal(rebuilt.cycle(b), hierarchy.cycle(b))

    def test_pickle_drops_coarse_factorization(self):
        matrix, geometry = _lattice_system(8, 8, layers=2)
        hierarchy = _hierarchy(matrix, geometry=geometry)
        b = np.ones(matrix.shape[0])
        warm = hierarchy.cycle(b)
        assert hierarchy._coarse_lu is not None  # live splu handle
        clone = pickle.loads(pickle.dumps(hierarchy))
        assert clone._coarse_lu is None
        np.testing.assert_array_equal(clone.cycle(b), warm)

    def test_operator_bytes_accounts_stencil_and_factor(self):
        matrix, geometry = _lattice_system(8, 8, layers=2)
        hierarchy = _hierarchy(matrix, geometry=geometry)
        cold = hierarchy.operator_bytes()
        assert cold > hierarchy.levels[0].stencil.nbytes()
        hierarchy.cycle(np.ones(matrix.shape[0]))
        assert hierarchy.operator_bytes() > cold  # + coarse factor fill

    def test_cycle_counter(self):
        _, _, hierarchy = _cached(8, 8, layers=2)
        before = hierarchy.cycles
        hierarchy.precondition(np.ones(hierarchy.fine_size))
        assert hierarchy.cycles == before + 1


class TestMgSolve:
    """CG preconditioned by :meth:`MultigridHierarchy.precondition`."""

    def test_converges_to_true_residual(self):
        matrix, geometry = _lattice_system(16, 16, layers=2, periphery=3)
        hierarchy = _hierarchy(matrix, geometry=geometry)
        rng = np.random.default_rng(2)
        rhs = rng.standard_normal(matrix.shape[0])
        x, report = _pcg(matrix, rhs, hierarchy)
        assert report.converged
        assert hierarchy.cycles >= 1
        residual = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        assert residual <= 1e-10

    def test_block_rhs(self):
        matrix, geometry, hierarchy = _cached(8, 8, layers=2)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal((matrix.shape[0], 3))
        x, report = _pcg(matrix, rhs, hierarchy)
        assert report.converged
        assert x.shape == rhs.shape
        np.testing.assert_allclose(matrix @ x, rhs, rtol=0, atol=1e-9)

    def test_pairwise_fallback_without_geometry(self):
        matrix, _ = _lattice_system(6, 6, layers=2)
        hierarchy = _hierarchy(matrix, coarse_size=10)
        assert hierarchy.num_levels > 2
        rhs = np.ones(matrix.shape[0])
        x, report = _pcg(matrix, rhs, hierarchy, rtol=1e-9)
        assert report.converged
        assert np.linalg.norm(rhs - matrix @ x) <= 1e-9 * np.linalg.norm(rhs)

    def test_nonconvergence_reported_not_raised(self):
        matrix, _, hierarchy = _cached(8, 8, layers=2)
        rhs = np.ones(matrix.shape[0])
        _, report = _pcg(matrix, rhs, hierarchy, rtol=1e-15, maxiter=1)
        assert not report.converged
        assert report.iterations == 1

    def test_reuses_passed_hierarchy(self):
        """One hierarchy serves every solve; each CG iteration costs one
        V-cycle, counted on the hierarchy."""
        matrix, _, hierarchy = _cached(8, 8, layers=2)
        rhs = np.ones(matrix.shape[0])
        before = hierarchy.cycles
        _, first = _pcg(matrix, rhs, hierarchy)
        middle = hierarchy.cycles
        _, second = _pcg(matrix, 2.0 * rhs, hierarchy)
        assert first.converged and second.converged
        assert middle - before >= first.iterations >= 1
        assert hierarchy.cycles - middle >= second.iterations >= 1


class TestGeometryValidation:
    """Graceful degradation when the lattice geometry is unusable.

    A stale or inconsistent geometry (e.g. a cached plan replayed
    against a differently-sized system) must not crash the hierarchy
    or silently mis-coarsen: :func:`validate_lattice_geometry` rejects
    it and the build falls back to pairwise aggregation, recording the
    downgrade in :attr:`MultigridHierarchy.coarsening`.
    """

    def test_valid_geometry_accepted(self):
        matrix, geometry = _lattice_system(6, 6, layers=2, periphery=2)
        assert validate_lattice_geometry(matrix.shape[0], geometry)

    def test_size_mismatch_rejected(self):
        matrix, _ = _lattice_system(6, 6, layers=2)
        _, stale = _lattice_system(6, 5, layers=2)
        assert not validate_lattice_geometry(matrix.shape[0], stale)

    def test_duplicate_layer_tile_rejected(self):
        matrix, geometry = _lattice_system(4, 4, layers=1)
        tile = geometry.tile.copy()
        tile[1] = tile[0]  # two nodes on the same lattice site
        broken = LatticeGeometry(
            rows=geometry.rows, cols=geometry.cols,
            layer=geometry.layer, tile=tile,
        )
        assert not validate_lattice_geometry(matrix.shape[0], broken)

    def test_out_of_range_tile_rejected(self):
        matrix, geometry = _lattice_system(4, 4, layers=1)
        tile = geometry.tile.copy()
        tile[0] = geometry.rows * geometry.cols  # beyond the lattice
        broken = LatticeGeometry(
            rows=geometry.rows, cols=geometry.cols,
            layer=geometry.layer, tile=tile,
        )
        assert not validate_lattice_geometry(matrix.shape[0], broken)

    def test_all_off_lattice_rejected(self):
        matrix, geometry = _lattice_system(3, 3, layers=1)
        off = np.full_like(geometry.tile, -1)
        broken = LatticeGeometry(
            rows=geometry.rows, cols=geometry.cols,
            layer=np.full_like(geometry.layer, -1), tile=off,
        )
        assert not validate_lattice_geometry(matrix.shape[0], broken)

    def test_lattice_coarsening_reported(self):
        matrix, geometry = _lattice_system(8, 8, layers=2)
        hierarchy = _hierarchy(matrix, geometry=geometry)
        _, report = _pcg(matrix, np.ones(matrix.shape[0]), hierarchy, rtol=1e-9)
        assert report.converged
        assert hierarchy.coarsening == "lattice"

    def test_stale_geometry_degrades_and_still_converges(self):
        matrix, _ = _lattice_system(8, 8, layers=2, seed=9)
        _, stale = _lattice_system(8, 7, layers=2)  # wrong node count
        rng = np.random.default_rng(13)
        rhs = rng.standard_normal(matrix.shape[0])
        hierarchy = _hierarchy(matrix, coarse_size=10, geometry=stale)
        assert hierarchy.coarsening == "pairwise"
        x, report = _pcg(matrix, rhs, hierarchy, rtol=1e-9)
        assert report.converged
        residual = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        assert residual <= 1e-9
        # Same answer as a tightly converged solve.
        good = _hierarchy(matrix, coarse_size=10)
        x_good, _ = _pcg(matrix, rhs, good, rtol=1e-12)
        assert np.max(np.abs(x - x_good)) <= 1e-6 * max(1.0, np.max(np.abs(x_good)))

    def test_hierarchy_records_coarsening_mode(self):
        matrix, geometry = _lattice_system(6, 6, layers=2)
        with_geom = _hierarchy(matrix, coarse_size=10, geometry=geometry)
        assert with_geom.coarsening == "lattice"
        without = _hierarchy(matrix, coarse_size=10)
        assert without.coarsening == "pairwise"

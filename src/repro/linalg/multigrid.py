"""Geometric multigrid for the layered tile-lattice systems.

The paper's steady state is ``(G - i D) theta = p`` on a HotSpot-style
layered tile lattice: a handful of conduction layers (die, TIM/TEC,
spreader, sink), each dissected into the same ``rows x cols`` tile
grid, coupled laterally inside a layer and vertically between facing
tiles, plus a few lumped periphery nodes.  Every assembled-matrix
backend (direct/reuse) pays sparse-factorization fill
that grows superlinearly in the node count; on this structured problem
class a geometric multigrid preconditioner gives O(n) work *and* O(n)
memory, which is what makes 256x256-and-beyond chiplet-scale grids
tractable.

Two pieces, both generic linear algebra (the thermal layer only
supplies the :class:`LatticeGeometry` description):

``LatticeStencil``
    Matrix-free application of a lattice operator: the assembled
    matrix is decomposed once into per-layer dense conductance grids
    (horizontal/vertical neighbour weights), a diagonal, and a small
    sparse residual for the irregular part (periphery couplings).
    :meth:`LatticeStencil.apply_G` then evaluates ``A @ x`` with pure
    vectorized numpy grid arithmetic — no assembled-matrix indexing on
    the hot path, and the TEC ``-iD`` term stays a rank-structured
    diagonal correction applied on top (see the session layer).

``MultigridHierarchy``
    Aggregation-based geometric coarsening in one configuration.  On a
    lattice the aggregates are per-layer 2x2 tile agglomerations
    (semicoarsening: layers are never merged, periphery nodes ride
    along as singletons); off-lattice systems fall back to greedy
    pairwise strength matching.  Coarse operators are Galerkin products
    ``P^T A P``; the finest level's prolongator is smoothed (smoothed
    aggregation) and applies the operator through the lattice stencil,
    every coarser level is piecewise constant.  Chebyshev smoothing
    wraps each coarse-grid correction of a V-cycle and the coarsest
    level is solved directly.  The integer aggregation plan is exposed
    for reuse, so shifted views of the same system re-Galerkin without
    re-aggregating.  :meth:`MultigridHierarchy.precondition` (one
    V-cycle from zero) is the preconditioner the session layer hands
    to :func:`repro.linalg.krylov.krylov_solve`.

Fork safety: a hierarchy pickles cleanly — the coarsest-level
factorization (a live ``splu`` handle) is dropped on ``__getstate__``
and rebuilt lazily, like every factorization in the session core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: Stop coarsening once a level has at most this many unknowns; the
#: remaining system is factored directly (its fill is negligible).
COARSE_SIZE = 400

#: Chebyshev smoothing degree applied before and after each
#: coarse-grid correction.
SWEEPS = 2


@dataclass(frozen=True, eq=False)
class LatticeGeometry:
    """Layered-lattice description of an assembled system.

    Attributes
    ----------
    rows / cols:
        Tile-grid shape shared by every gridded layer.
    layer:
        Per-node integer layer id (length ``n``); ``-1`` for nodes
        outside the lattice (periphery rings, lumped extras).
    tile:
        Per-node flat row-major tile index; ``-1`` off-lattice.
    """

    rows: int
    cols: int
    layer: np.ndarray
    tile: np.ndarray

    @property
    def num_nodes(self):
        return self.layer.shape[0]

    def on_lattice(self):
        """Boolean mask of the nodes that sit on the tile grid."""
        return self.tile >= 0


def validate_lattice_geometry(matrix_size, geometry):
    """Whether ``geometry`` consistently describes a ``matrix_size`` system.

    The geometry usually arrives from the assembly layer and matches by
    construction; but hierarchies are also built over externally
    supplied matrices (tests, shifted copies, experiments), where a
    stale or hand-rolled geometry can disagree with the operator.
    Feeding such a geometry to :func:`lattice_coarsen` or
    :class:`LatticeStencil` would mis-aggregate silently (or raise deep
    inside the stencil), so :class:`MultigridHierarchy` checks here and
    degrades to :func:`pairwise_aggregates` instead.  Checked:

    * node count matches the matrix dimension;
    * positive lattice shape, every on-lattice tile index in range;
    * on-lattice layer ids non-negative;
    * no two nodes claim the same ``(layer, tile)`` slot;
    * at least one node on the lattice at all.
    """
    if geometry is None:
        return False
    layer = np.asarray(geometry.layer)
    tile = np.asarray(geometry.tile)
    if layer.ndim != 1 or tile.ndim != 1:
        return False
    if layer.shape[0] != matrix_size or tile.shape[0] != matrix_size:
        return False
    rows, cols = int(geometry.rows), int(geometry.cols)
    if rows <= 0 or cols <= 0:
        return False
    on = tile >= 0
    if not np.any(on):
        return False
    num_tiles = rows * cols
    if np.any(tile[on] >= num_tiles) or np.any(layer[on] < 0):
        return False
    key = layer[on].astype(np.int64) * num_tiles + tile[on]
    return int(np.unique(key).size) == int(key.size)


def lattice_coarsen(geometry):
    """One per-layer 2x2 tile-agglomeration step.

    Tiles ``(r, c)`` of every layer collapse into coarse tile
    ``(r // 2, c // 2)`` of the same layer — layers are never merged
    (semicoarsening), and off-lattice nodes become singleton
    aggregates appended after the lattice aggregates.  Returns
    ``(aggregates, coarse_geometry)`` where ``aggregates[i]`` is the
    coarse index of fine node ``i``.
    """
    layer = np.asarray(geometry.layer)
    tile = np.asarray(geometry.tile)
    n = layer.shape[0]
    crows = (geometry.rows + 1) // 2
    ccols = (geometry.cols + 1) // 2
    on = tile >= 0
    agg = np.full(n, -1, dtype=np.int64)
    r = tile[on] // geometry.cols
    c = tile[on] % geometry.cols
    ctile = (r // 2) * ccols + (c // 2)
    key = layer[on].astype(np.int64) * (crows * ccols) + ctile
    unique, inverse = np.unique(key, return_inverse=True)
    agg[on] = inverse
    off = np.flatnonzero(~on)
    agg[off] = unique.size + np.arange(off.size)
    nc = unique.size + off.size
    coarse_layer = np.full(nc, -1, dtype=np.int64)
    coarse_tile = np.full(nc, -1, dtype=np.int64)
    coarse_layer[agg[on]] = layer[on]
    coarse_tile[agg[on]] = ctile
    coarse = LatticeGeometry(
        rows=crows, cols=ccols, layer=coarse_layer, tile=coarse_tile
    )
    return agg, coarse


def pairwise_aggregates(matrix):
    """Greedy pairwise strength matching (off-lattice fallback).

    Walks the nodes in order and pairs each unaggregated node with its
    strongest unaggregated neighbour (strength
    ``|a_ij| / sqrt(a_ii a_jj)``), leaving singletons where no free
    neighbour exists — the classic pairwise-aggregation pass, halving
    the unknowns per level.  Deterministic for a fixed matrix.
    """
    csr = sp.csr_matrix(matrix)
    n = csr.shape[0]
    scale = np.sqrt(np.maximum(csr.diagonal(), np.finfo(float).tiny))
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    agg = np.full(n, -1, dtype=np.int64)
    count = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        best = -1
        best_strength = 0.0
        for pos in range(indptr[i], indptr[i + 1]):
            j = indices[pos]
            if j == i or agg[j] >= 0:
                continue
            strength = abs(data[pos]) / (scale[i] * scale[j])
            if strength > best_strength:
                best_strength = strength
                best = j
        agg[i] = count
        if best >= 0:
            agg[best] = count
        count += 1
    return agg


def tentative_prolongator(aggregates, num_coarse=None):
    """The piecewise-constant prolongator of an aggregation."""
    aggregates = np.asarray(aggregates, dtype=np.int64)
    n = aggregates.shape[0]
    nc = int(num_coarse) if num_coarse is not None else int(aggregates.max()) + 1
    return sp.csr_matrix(
        (np.ones(n), (np.arange(n), aggregates)), shape=(n, nc)
    )


def _spectral_radius(matrix, inv_diagonal, iterations=12, seed=0):
    """Power-iteration estimate of ``rho(D^{-1} A)`` (deterministic)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(matrix.shape[0])
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return 1.0
    v /= norm
    rho = 1.0
    for _ in range(iterations):
        w = inv_diagonal * (matrix @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0 or not np.isfinite(norm):
            break
        rho = norm
        v = w / norm
    return max(rho, np.finfo(float).tiny)


class LatticeStencil:
    """Matrix-free application of a lattice operator.

    Decomposes an assembled matrix over a :class:`LatticeGeometry`
    into per-layer dense weight grids — horizontal/vertical lateral
    neighbours inside each layer, same-tile couplings between layer
    pairs — plus the diagonal and a small sparse residual carrying
    everything the grids cannot express (periphery couplings).
    :meth:`apply_G` then evaluates ``A @ x`` with shifted-slice numpy
    arithmetic; holes in a layer (TIM tiles displaced by a TEC, sparse
    TEC deployments) simply carry zero weights.
    """

    def __init__(self, matrix, geometry):
        csr = sp.csr_matrix(matrix)
        csr.sort_indices()
        n = csr.shape[0]
        if geometry.num_nodes != n:
            raise ValueError(
                "geometry describes {} nodes, matrix has {}".format(
                    geometry.num_nodes, n
                )
            )
        self.shape = (n, n)
        rows, cols = geometry.rows, geometry.cols
        self._grid_shape = (rows, cols)
        self._diagonal = csr.diagonal()

        on = geometry.on_lattice()
        layer_ids = np.unique(geometry.layer[on]) if np.any(on) else []
        self._node_grids = []
        self._masks = []
        for layer_id in layer_ids:
            nodes = np.flatnonzero(on & (geometry.layer == layer_id))
            grid = np.full((rows, cols), -1, dtype=np.int64)
            tiles = geometry.tile[nodes]
            grid[tiles // cols, tiles % cols] = nodes
            self._node_grids.append(grid)
            self._masks.append(grid >= 0)

        stencil_rows = [np.arange(n)]
        stencil_cols = [np.arange(n)]
        stencil_data = [self._diagonal]

        def _pair_weights(left, right):
            """Gathered ``A[left, right]`` where both nodes exist."""
            weights = np.zeros(left.shape)
            mask = (left >= 0) & (right >= 0)
            if np.any(mask):
                li, ri = left[mask], right[mask]
                values = np.asarray(csr[li, ri]).ravel()
                weights[mask] = values
                keep = values != 0.0
                stencil_rows.extend((li[keep], ri[keep]))
                stencil_cols.extend((ri[keep], li[keep]))
                stencil_data.extend((values[keep], values[keep]))
            return weights

        # Lateral couplings inside each layer.
        self._lateral = []
        for grid in self._node_grids:
            w_right = _pair_weights(grid[:, :-1], grid[:, 1:])
            w_down = _pair_weights(grid[:-1, :], grid[1:, :])
            self._lateral.append((w_right, w_down))

        # Same-tile couplings between layer pairs (die-TIM, TEC
        # cold-hot, TIM/TEC-spreader, spreader-sink, ...): probed
        # generically so the stencil needs no knowledge of the stack.
        self._vertical = []
        for a in range(len(self._node_grids)):
            for b in range(a + 1, len(self._node_grids)):
                weights = _pair_weights(
                    self._node_grids[a], self._node_grids[b]
                )
                if np.any(weights):
                    self._vertical.append((a, b, weights))

        stencil = sp.coo_matrix(
            (
                np.concatenate(stencil_data),
                (np.concatenate(stencil_rows), np.concatenate(stencil_cols)),
            ),
            shape=(n, n),
        ).tocsr()
        residual = (csr - stencil).tocsr()
        residual.eliminate_zeros()
        self._residual = residual

    @property
    def residual_nnz(self):
        """Entries the grid decomposition could not express."""
        return int(self._residual.nnz)

    def nbytes(self):
        """Bytes held by the stencil arrays (grids + sparse residual)."""
        total = self._diagonal.nbytes
        for grid, mask in zip(self._node_grids, self._masks):
            total += grid.nbytes + mask.nbytes
        for w_right, w_down in self._lateral:
            total += w_right.nbytes + w_down.nbytes
        for _, _, weights in self._vertical:
            total += weights.nbytes
        total += (
            self._residual.data.nbytes
            + self._residual.indices.nbytes
            + self._residual.indptr.nbytes
        )
        return total

    def apply_G(self, x):
        """``A @ x`` for a vector or ``(n, k)`` column block."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        columns = x.reshape(x.shape[0], -1)
        k = columns.shape[1]
        rows, cols = self._grid_shape
        out = self._diagonal[:, None] * columns
        if self._residual.nnz:
            out += self._residual @ columns

        grids = []
        for node_grid, mask in zip(self._node_grids, self._masks):
            grid = np.zeros((rows, cols, k))
            grid[mask] = columns[node_grid[mask]]
            grids.append(grid)
        accum = [np.zeros((rows, cols, k)) for _ in grids]
        for grid, acc, (w_right, w_down) in zip(grids, accum, self._lateral):
            if cols > 1:
                acc[:, :-1] += w_right[..., None] * grid[:, 1:]
                acc[:, 1:] += w_right[..., None] * grid[:, :-1]
            if rows > 1:
                acc[:-1, :] += w_down[..., None] * grid[1:, :]
                acc[1:, :] += w_down[..., None] * grid[:-1, :]
        for a, b, weights in self._vertical:
            accum[a] += weights[..., None] * grids[b]
            accum[b] += weights[..., None] * grids[a]
        for node_grid, mask, acc in zip(self._node_grids, self._masks, accum):
            np.add.at(out, node_grid[mask], acc[mask])
        return out[:, 0] if single else out


class _Level:
    """One pre-coarsest level: operator, smoother data and transfers."""

    def __init__(self, matrix, prolong, rho, stencil=None):
        self.matrix = matrix
        self.prolong = prolong
        self.restrict = prolong.T.tocsr()
        self.stencil = stencil
        inv_diagonal = 1.0 / matrix.diagonal()
        self.inv_diagonal = inv_diagonal
        self.rho = rho

    def apply(self, x):
        if self.stencil is not None:
            return self.stencil.apply_G(x)
        return self.matrix @ x


class MultigridHierarchy:
    """Aggregation-based geometric multigrid over one matrix.

    Coarsens until a level has at most :data:`COARSE_SIZE` unknowns
    (read at build time; tests patch it to get deep hierarchies on
    small lattices).  The finest level smooths its prolongator once
    with damped Jacobi (smoothed aggregation) and applies the operator
    through the matrix-free :class:`LatticeStencil` when a geometry is
    available; smoothing every level would densify the coarse
    operators quadratically, so the coarser Galerkin products stay
    piecewise-constant cheap.  Each V-cycle applies Chebyshev smoothing
    of degree :data:`SWEEPS` symmetrically before and after every
    coarse-grid correction, so the cycle is a symmetric positive
    operator, valid as a CG preconditioner.

    Parameters
    ----------
    matrix:
        The (sparse, symmetric) fine-level operator — for the thermal
        engine the current-independent base ``S + G``; the ``-iD``
        Peltier diagonal stays outside as a fine-level correction so
        one hierarchy serves every current.
    geometry:
        Optional :class:`LatticeGeometry`; enables per-layer 2x2 tile
        agglomeration and the matrix-free fine-level stencil.  Without
        it the coarsening falls back to :func:`pairwise_aggregates`.
    plan:
        Optional aggregation plan (tuple of per-level aggregate
        arrays) from a sibling hierarchy of the same system — shifted
        views re-Galerkin through the shared plan instead of
        re-aggregating.  The built plan is exposed as :attr:`plan`.
    """

    def __init__(self, matrix, *, geometry=None, plan=None):
        self.sweeps = SWEEPS
        #: Multigrid cycles applied so far (preconditioner calls
        #: included) — the session layer diffs this into SolverStats.
        self.cycles = 0

        current = sp.csr_matrix(matrix)
        current.sort_indices()
        # A geometry that disagrees with the matrix (stale node count,
        # out-of-range tiles, duplicate (layer, tile) slots, no node on
        # the lattice) would mis-aggregate silently — validate once and
        # degrade to the pairwise graph coarsening instead, recording
        # the provenance.  A valid geometry, and every coarsening of
        # it, keeps nodes on the lattice.
        if geometry is not None and not validate_lattice_geometry(
            current.shape[0], geometry
        ):
            geometry = None
        #: Coarsening provenance: ``"lattice"`` when the finest level
        #: aggregates by per-layer 2x2 agglomeration, ``"pairwise"``
        #: for the graph fallback.
        self.coarsening = "lattice" if geometry is not None else "pairwise"
        geom = geometry
        built_plan = []
        self.levels = []
        while current.shape[0] > COARSE_SIZE:
            if plan is not None and len(built_plan) < len(plan):
                aggregates = plan[len(built_plan)]
                if geom is not None:
                    geom = lattice_coarsen(geom)[1]
            elif geom is not None:
                aggregates, geom = lattice_coarsen(geom)
            else:
                aggregates = pairwise_aggregates(current)
            num_coarse = int(aggregates.max()) + 1
            if num_coarse >= current.shape[0]:
                break
            prolong = tentative_prolongator(aggregates, num_coarse)
            inv_diagonal = 1.0 / current.diagonal()
            rho = _spectral_radius(current, inv_diagonal)
            stencil = None
            if not self.levels:
                # Finest level only: smoothed aggregation and the
                # matrix-free stencil (see the class docstring).
                omega = 4.0 / (3.0 * rho)
                prolong = (
                    prolong
                    - sp.diags(omega * inv_diagonal) @ (current @ prolong)
                ).tocsr()
                if geometry is not None:
                    stencil = LatticeStencil(current, geometry)
            level = _Level(current, prolong, rho, stencil=stencil)
            self.levels.append(level)
            built_plan.append(np.asarray(aggregates, dtype=np.int64))
            current = (level.restrict @ (current @ prolong)).tocsr()
            current.sort_indices()
        self.plan = tuple(built_plan)
        self._coarse_matrix = current.tocsc()
        self._coarse_lu = None

    def __getstate__(self):
        """Fork safety: drop the live coarsest-level ``splu`` handle.

        Everything else — Galerkin operators, transfers, smoother
        diagonals, the stencil's weight grids, the aggregation plan —
        is plain array data and survives the round trip; the coarse
        factorization is rebuilt lazily on first cycle in the new
        process.  Pinned by ``tests/linalg/test_multigrid.py`` and the
        session-level ``TestForkSafety``.
        """
        state = self.__dict__.copy()
        state["_coarse_lu"] = None
        return state

    # ------------------------------------------------------------------
    # Level operations
    # ------------------------------------------------------------------

    @property
    def num_levels(self):
        """Level count including the direct-solved coarsest level."""
        return len(self.levels) + 1

    @property
    def fine_size(self):
        return self.levels[0].matrix.shape[0] if self.levels else (
            self._coarse_matrix.shape[0]
        )

    def apply_fine(self, x):
        """The fine-level operator ``A @ x`` (stencil when available)."""
        if self.levels:
            return self.levels[0].apply(x)
        return self._coarse_matrix @ x

    def _coarse_solve(self, b):
        if self._coarse_lu is None:
            self._coarse_lu = splu(self._coarse_matrix)
        return self._coarse_lu.solve(b)

    def _smooth(self, level, b, x):
        # Chebyshev polynomial smoothing of the upper spectrum of
        # ``D^{-1} A`` on ``[rho / 4, 1.1 rho]`` (three-term
        # recurrence); each degree costs one operator application.
        lower = level.rho / 4.0
        upper = 1.1 * level.rho
        theta = 0.5 * (upper + lower)
        delta = 0.5 * (upper - lower)
        sigma = theta / delta
        rho_old = 1.0 / sigma
        residual = b - level.apply(x)
        d = (1.0 / theta) * (level.inv_diagonal * residual.T).T
        for degree in range(self.sweeps):
            x = x + d
            if degree == self.sweeps - 1:
                break
            residual = b - level.apply(x)
            rho_new = 1.0 / (2.0 * sigma - rho_old)
            d = (rho_new * rho_old) * d + (2.0 * rho_new / delta) * (
                level.inv_diagonal * residual.T
            ).T
            rho_old = rho_new
        return x

    def _run_cycle(self, index, b, x):
        if index == len(self.levels):
            return self._coarse_solve(b)
        level = self.levels[index]
        x = self._smooth(level, b, x)
        residual = level.restrict @ (b - level.apply(x))
        coarse = self._run_cycle(index + 1, residual, np.zeros_like(residual))
        x = x + level.prolong @ coarse
        return self._smooth(level, b, x)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def cycle(self, b, x0=None):
        """One V-cycle on ``A x = b`` from ``x0`` (default 0).

        ``b`` may be a vector or an ``(n, k)`` block — every level
        operation is column-vectorized, so multi-RHS cycles cost one
        pass.  Returns the improved iterate.
        """
        b = np.asarray(b, dtype=float)
        x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float)
        self.cycles += 1
        return self._run_cycle(0, b, x)

    def precondition(self, v):
        """One cycle from zero — the Krylov preconditioner callable."""
        return self.cycle(v)

    def operator_bytes(self):
        """Bytes of solver state the hierarchy adds beyond the system.

        Counts the Galerkin coarse operators, the transfer operators,
        the smoother diagonals, the fine-level stencil arrays and the
        coarsest factorization — everything the ``mg`` backend holds
        that the assembled fine matrix (shared by all backends) does
        not.  The assembled-factorization backends' counterpart is
        their LU/Cholesky fill; see
        ``SessionView.solver_state_bytes``.
        """
        total = 0
        for index, level in enumerate(self.levels):
            if index > 0:
                total += _sparse_bytes(level.matrix)
            total += _sparse_bytes(level.prolong) + _sparse_bytes(level.restrict)
            total += level.inv_diagonal.nbytes
            if level.stencil is not None:
                total += level.stencil.nbytes()
        total += _sparse_bytes(self._coarse_matrix)
        if self._coarse_lu is not None:
            total += int(self._coarse_lu.nnz) * 12
        return total


def _sparse_bytes(matrix):
    return int(
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    )


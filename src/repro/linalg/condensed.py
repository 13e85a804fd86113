"""The Peltier pencil condensed onto its support.

``D`` is non-zero only on the support ``S`` (the hot and cold node of
every TEC), so ``G - i D`` differs from ``G`` only in its ``S x S``
block and everything Equation (4) and Theorem 1 ask of ``G`` goes
through the ``m x m`` Schur complement
``C_S = G_SS - G_SN G_NN^{-1} G_NS = ((G^{-1})[S, S])^{-1}``:
``G - i D`` is positive definite iff ``C_S - i diag(d_S)`` is (they
share the PD block ``G_NN``).  One eigendecomposition
``diag(d_S) V = C_S V diag(mu)``, ``V' C_S V = I`` gives
``lambda_m = 1 / mu_max`` and
``C_S - i diag(d_S) = V^{-T} diag(1 - i mu) V^{-1}`` for every ``i``.

:func:`factor_support_last` factors ``G`` once with ``S`` ordered
last (geometric nested dissection over the tile lattice, then the
off-lattice nodes, then ``S``).  A pivot-free symmetric LU is
``L diag(u) L'``, so ``C_S = U_22' diag(U_22)^{-1} U_22`` from the
trailing block of ``U`` alone — no influence column is ever solved.

Every ``m x m`` dense kernel here runs under
:func:`repro.linalg.blas.one_thread`: called between sparse solves, a
kernel of order below ``ONE_THREAD_MAX_ORDER`` waits on BLAS threads
longer than they save it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.linalg.blas import one_thread

#: A shared current counts as at/beyond runaway once its smallest
#: spectral factor ``1 - i mu_max`` falls to this fraction of the
#: largest; per-device diagonals apply it to squared Cholesky pivots.
CONDENSED_RCOND = 1.0e-10

#: The symmetric, pivot-free SuperLU kernel (``G`` and every shifted
#: base ``S + G`` are SPD by Lemma 1).
_SYMMETRIC = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


def _dissect_tiles(rows, cols, leaf=4):
    """Tile indices in nested-dissection order: split the longer side
    at its middle line, which follows both halves; leaves of <= 4."""
    order = []

    def dissect(block):
        if block.size <= leaf:
            order.append(block.ravel())
            return
        if block.shape[0] < block.shape[1]:
            block = block.T
        middle = block.shape[0] // 2
        dissect(block[:middle])
        dissect(block[middle + 1:])
        order.append(block[middle])

    dissect(np.arange(rows * cols).reshape(rows, cols))
    return np.concatenate(order)


def support_last_order(num_nodes, support, lattice=None):
    """Node permutation with ``support`` last (``order[k]`` is the node
    at position ``k``).  Lattice nodes follow their tiles'
    nested-dissection order, every layer of a tile together, then come
    the off-lattice nodes; without a lattice the rest keep their
    natural order."""
    rest = np.setdiff1d(np.arange(num_nodes), support)
    if lattice is not None and rest.size:
        tile = np.asarray(lattice.tile)[rest]
        layer = np.asarray(lattice.layer)[rest]
        rank = np.empty(lattice.rows * lattice.cols, dtype=np.int64)
        rank[_dissect_tiles(lattice.rows, lattice.cols)] = np.arange(rank.size)
        on = tile >= 0
        key = rank[tile[on]] * (int(layer.max()) + 1) + layer[on]
        rest = np.concatenate([rest[on][np.argsort(key, kind="stable")], rest[~on]])
    return np.concatenate([rest, support]).astype(np.intp)


class SupportLastFactor:
    """Sparse LU of ``P A P'`` answering solves in the original order
    (``order`` None: SuperLU chose the ordering itself)."""

    def __init__(self, lu, order=None):
        self._lu = lu
        self._order = order
        self._upper_nnz = 0

    @property
    def nnz(self):
        """Fill, plus the CSC copy of ``U`` SuperLU caches once read."""
        return self._lu.nnz + self._upper_nnz

    def solve(self, rhs):
        if self._order is None:
            return self._lu.solve(rhs)
        solution = np.empty_like(rhs, dtype=float)
        solution[self._order] = self._lu.solve(rhs[self._order])
        return solution

    def trailing_block_is_support(self):
        """Whether SuperLU's etree postorder left ``perm_c``/``perm_r``
        the identity, so the trailing positions are still ``S``."""
        identity = np.arange(self._lu.shape[0])
        return (
            self._order is not None
            and np.array_equal(self._lu.perm_c, identity)
            and np.array_equal(self._lu.perm_r, identity)
        )

    def schur_complement(self, size):
        """``C_S = U_22' diag(U_22)^{-1} U_22`` (``U = diag(u) L'``)."""
        upper = self._lu.U
        self._upper_nnz = upper.nnz
        n = upper.shape[0]
        block = upper[:, n - size:][n - size:].toarray()
        with one_thread(size):
            schur = block.T @ (block / np.diag(block)[:, None])
        return 0.5 * (schur + schur.T)


def factor_support_last(matrix, support, *, lattice=None, factorize=None):
    """Factor an SPD ``matrix`` with ``support`` ordered last.

    ``factorize(matrix, **options)`` defaults to ``splu``; an empty
    support leaves the ordering to SuperLU's minimum degree on
    ``A + A'``.
    """
    factorize = splu if factorize is None else factorize
    matrix = sp.csc_matrix(matrix)
    if len(support) == 0:
        return SupportLastFactor(
            factorize(matrix, permc_spec="MMD_AT_PLUS_A", **_SYMMETRIC)
        )
    order = support_last_order(matrix.shape[0], support, lattice)
    permuted = matrix[order][:, order].tocsc()
    return SupportLastFactor(
        factorize(permuted, permc_spec="NATURAL", **_SYMMETRIC), order
    )


class CondensedPencil:
    """``(support, d_S, C_S)`` of a base matrix ``A`` plus its lift
    solve ``base_solve(rhs) = A^{-1} rhs``."""

    def __init__(self, support, d_support, schur, base_solve, num_nodes):
        self.support = support
        self.d_support = d_support
        self.schur = schur
        self.base_solve = base_solve
        self.num_nodes = num_nodes
        self._spectrum = None

    @property
    def nbytes(self):
        spectrum = self._spectrum or ()
        return self.schur.nbytes + sum(block.nbytes for block in spectrum)

    def lift(self, values):
        """``A^{-1} I_S values`` — one sparse solve of support data."""
        rhs = np.zeros((self.num_nodes,) + values.shape[1:])
        rhs[self.support] = values
        return self.base_solve(rhs)

    def spectrum(self):
        """``(mu, V)`` of the pencil ``(diag(d_S), C_S)``, ascending."""
        if self._spectrum is None:
            with one_thread(self.support.size):
                self._spectrum = scipy.linalg.eigh(
                    np.diag(self.d_support), self.schur, check_finite=False
                )
        return self._spectrum

    def top_eigenpair(self):
        mu, vectors = self.spectrum()
        return float(mu[-1]), vectors[:, -1]

    def current_inverse(self, current):
        """``(C_S - i diag(d_S))^{-1}`` from the spectrum (two products
        per right-hand side); None at or beyond ``lambda_m``."""
        mu, vectors = self.spectrum()
        scale = 1.0 - current * mu
        if not np.all(np.isfinite(scale)) or (
            scale.min() <= CONDENSED_RCOND * scale.max()
        ):
            return None

        def inverse(rhs):
            with one_thread(mu.size):
                return vectors @ ((vectors.T @ rhs).T / scale).T

        return inverse

    def diagonal_inverse(self, diagonal):
        """``(C_S - diag(diagonal))^{-1}`` by Cholesky, for per-device
        diagonals; None when not positive definite."""
        size = diagonal.size
        try:
            with one_thread(size):
                factor = scipy.linalg.cho_factor(
                    self.schur - np.diag(diagonal), check_finite=False
                )
        except np.linalg.LinAlgError:
            return None
        pivots = np.diag(factor[0]) ** 2
        if not np.all(np.isfinite(pivots)) or (
            pivots.min() <= CONDENSED_RCOND * pivots.max()
        ):
            return None

        def inverse(rhs):
            with one_thread(size):
                return scipy.linalg.cho_solve(factor, rhs, check_finite=False)

        return inverse

    def solve(self, inverse, diagonal, x):
        """``(A - I_S diag(e) I_S')^{-1} b`` from ``x = A^{-1} b``, with
        ``inverse`` applying ``(C_S - diag(e))^{-1}``.

        Solves for the correction ``(C_S - diag(e)) delta = e x_S``
        (the form ``C_S x_S`` cancels heavily near runaway), then lifts
        ``x + A^{-1} I_S (e (x_S + delta))``.
        """
        x_support = x[self.support]
        delta = inverse((diagonal * x_support.T).T)
        return x + self.lift((diagonal * (x_support + delta).T).T)


def condensed_pencil(base, support, d_support, solve, num_nodes):
    """The pencil of a factored base: ``C_S`` off the trailing block of
    a :class:`SupportLastFactor`, else (a reordered factor)
    ``Z^{-1}`` from one ``m``-column solve
    ``Z = (A^{-1})[S, S]``.  ``solve`` is the caller's ``base.solve``."""
    size = support.size
    if isinstance(base, SupportLastFactor) and base.trailing_block_is_support():
        schur = base.schur_complement(size)
    else:
        rhs = np.zeros((num_nodes, size))
        rhs[support, np.arange(size)] = 1.0
        z_block = solve(rhs)[support]
        with one_thread(size):
            schur = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(
                    0.5 * (z_block + z_block.T), check_finite=False
                ),
                np.eye(size), check_finite=False,
            )
        schur = 0.5 * (schur + schur.T)
    return CondensedPencil(support, d_support, schur, solve, num_nodes)


def condense(g_matrix, diagonal, *, lattice=None):
    """The pencil of ``(G, diag(diagonal))`` on a private factor,
    ordered over ``lattice`` as a solve session orders it."""
    support = np.flatnonzero(diagonal)
    base = factor_support_last(g_matrix, support, lattice=lattice)
    return condensed_pencil(
        base, support, diagonal[support], base.solve, g_matrix.shape[0]
    )

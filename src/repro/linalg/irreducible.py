"""Irreducibility of square matrices via graph connectivity.

Definition 1 of the paper: a square matrix is *irreducible* if it
cannot be written (after a symmetric permutation) as the direct sum of
two square matrices.  For a symmetric matrix this is equivalent to the
connectivity of its adjacency graph — the graph with an edge ``(k, l)``
whenever ``M[k, l] != 0``.

For the thermal conductance matrix ``G`` irreducibility encodes a
physical fact: heat can flow (possibly through intermediate tiles)
between any two nodes of the package, so no part of the chip is
thermally isolated from the ambient.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


def adjacency_graph(matrix, tol=0.0):
    """The undirected adjacency graph of a square matrix.

    Returned as a symmetric boolean ``n x n`` CSR matrix over the nodes
    ``0..n-1``: entry ``(k, l)`` is True (an edge joins ``k`` and
    ``l``, ``k != l``) whenever ``|M[k, l]| > tol`` or
    ``|M[l, k]| > tol``.  Diagonal entries are ignored.
    """
    if sp.issparse(matrix):
        coo = sp.coo_matrix(matrix)
        shape = coo.shape
        keep = (coo.row != coo.col) & (np.abs(coo.data) > tol)
        rows, cols = coo.row[keep], coo.col[keep]
    else:
        dense = np.asarray(matrix, dtype=float)
        shape = dense.shape
        if dense.ndim == 2:
            rows, cols = np.nonzero(np.abs(dense) > tol)
            keep = rows != cols
            rows, cols = rows[keep], cols[keep]
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("matrix must be square, got shape {}".format(shape))
    n = shape[0]
    both = np.ones(2 * rows.size, dtype=bool)
    graph = sp.csr_matrix(
        (both, (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    )
    graph.sum_duplicates()
    return graph


def is_irreducible(matrix, tol=0.0):
    """Return True if the (symmetric) matrix is irreducible.

    Implemented as connectivity of :func:`adjacency_graph`.  A 1x1
    matrix is irreducible by convention (it is not a direct sum of two
    non-empty square matrices).
    """
    graph = adjacency_graph(matrix, tol=tol)
    if graph.shape[0] <= 1:
        return True
    return connected_components(graph, directed=False, return_labels=False) == 1


def irreducible_components(matrix, tol=0.0):
    """Return the node sets of the direct-sum blocks of ``matrix``.

    A reducible symmetric matrix is (up to permutation) the direct sum
    of the sub-matrices indexed by these components; an irreducible
    matrix yields a single component covering every index.
    """
    graph = adjacency_graph(matrix, tol=tol)
    count, labels = connected_components(graph, directed=False)
    return [np.flatnonzero(labels == label).tolist() for label in range(count)]

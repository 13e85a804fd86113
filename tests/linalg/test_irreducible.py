"""Irreducibility via adjacency-graph connectivity (Definition 1)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg.irreducible import (
    adjacency_graph,
    irreducible_components,
    is_irreducible,
)


def _path_matrix(n):
    matrix = 2.0 * np.eye(n)
    for k in range(n - 1):
        matrix[k, k + 1] = matrix[k + 1, k] = -1.0
    return matrix


def _edges(graph):
    """The undirected edge set ``{(k, l) : k < l}`` of a symmetric
    adjacency matrix (and a check that it is symmetric)."""
    assert (graph != graph.T).nnz == 0
    upper = sp.triu(graph, k=1).tocoo()
    return set(zip(upper.row.tolist(), upper.col.tolist()))


class TestAdjacencyGraph:
    def test_path_graph_edges(self):
        graph = adjacency_graph(_path_matrix(4))
        assert _edges(graph) == {(0, 1), (1, 2), (2, 3)}

    def test_diagonal_ignored(self):
        graph = adjacency_graph(np.diag([1.0, 2.0]))
        assert _edges(graph) == set()
        assert graph.shape == (2, 2)

    def test_sparse_input(self):
        graph = adjacency_graph(sp.csr_matrix(_path_matrix(5)))
        assert _edges(graph) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_tolerance_filters_tiny_entries(self):
        matrix = np.array([[1.0, 1e-15], [1e-15, 1.0]])
        assert _edges(adjacency_graph(matrix, tol=1e-12)) == set()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            adjacency_graph(np.zeros((2, 3)))


class TestIsIrreducible:
    def test_path_is_irreducible(self):
        assert is_irreducible(_path_matrix(6))

    def test_block_diagonal_is_reducible(self):
        matrix = np.zeros((4, 4))
        matrix[:2, :2] = _path_matrix(2)
        matrix[2:, 2:] = _path_matrix(2)
        assert not is_irreducible(matrix)

    def test_one_by_one_is_irreducible(self):
        assert is_irreducible(np.array([[3.0]]))

    def test_diagonal_matrix_reducible(self):
        assert not is_irreducible(np.eye(3))


class TestComponents:
    def test_single_component(self):
        comps = irreducible_components(_path_matrix(4))
        assert comps == [[0, 1, 2, 3]]

    def test_two_components(self):
        matrix = np.zeros((5, 5))
        matrix[:3, :3] = _path_matrix(3)
        matrix[3:, 3:] = _path_matrix(2)
        comps = sorted(irreducible_components(matrix))
        assert comps == [[0, 1, 2], [3, 4]]

"""The sparse SPD kernel behind every ``direct`` solve.

:func:`~repro.linalg.cholesky.spd_factorize` must solve like a dense
reference below the runaway current and refuse, with
:class:`~repro.linalg.cholesky.NotPositiveDefiniteError`, every matrix
that is not positive definite — for ``G - i D`` that refusal is the
certificate ``i >= lambda_m`` the solve session reports.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg.cholesky import NotPositiveDefiniteError, spd_factorize
from repro.linalg.runaway import runaway_current_eigen
from repro.linalg.stieltjes import random_stieltjes


def _pencil_matrix(fraction, n=12, seed=5, alpha=0.05):
    """``G - fraction * lambda_m * D`` on a random Stieltjes pencil with
    one hot/cold pair, as a sparse matrix."""
    g = random_stieltjes(n, seed=seed)
    d = np.zeros(n)
    d[0] = alpha
    d[1] = -alpha
    lam = runaway_current_eigen(g, d).value
    return sp.csc_matrix(g - fraction * lam * np.diag(d))


class TestSolve:
    def test_vector_matches_dense_solve(self):
        matrix = _pencil_matrix(0.5)
        rhs = np.random.default_rng(0).normal(size=matrix.shape[0])
        factor = spd_factorize(matrix)
        np.testing.assert_allclose(
            factor.solve(rhs), np.linalg.solve(matrix.toarray(), rhs),
            rtol=1e-10, atol=1e-12,
        )

    def test_block_matches_dense_solve(self):
        matrix = _pencil_matrix(0.5)
        rhs = np.random.default_rng(1).normal(size=(matrix.shape[0], 3))
        solved = spd_factorize(matrix).solve(rhs)
        assert solved.shape == rhs.shape
        np.testing.assert_allclose(
            solved, np.linalg.solve(matrix.toarray(), rhs),
            rtol=1e-10, atol=1e-12,
        )

    def test_fill_is_reported(self):
        assert spd_factorize(_pencil_matrix(0.5)).nnz > 0


class TestRefusal:
    @pytest.mark.parametrize("matrix", [
        pytest.param(_pencil_matrix(1.01), id="beyond-runaway"),
        pytest.param(sp.csc_matrix([[1.0, 2.0], [2.0, 1.0]]), id="indefinite"),
        pytest.param(sp.csc_matrix((3, 3)), id="zero"),
    ])
    def test_not_positive_definite(self, matrix):
        with pytest.raises(NotPositiveDefiniteError):
            spd_factorize(matrix)

    def test_dense_input_is_a_type_error(self):
        with pytest.raises(TypeError, match="sparse"):
            spd_factorize(np.eye(3))

    def test_non_square_input_is_a_value_error(self):
        with pytest.raises(ValueError, match="square"):
            spd_factorize(sp.csc_matrix(np.ones((2, 3))))

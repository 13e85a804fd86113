"""Preconditioned CG solves: convergence, reporting, preconditioners."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

from repro.linalg.krylov import DEFAULT_RTOL, KrylovReport, krylov_solve
from repro.linalg.stieltjes import random_stieltjes


@pytest.fixture()
def stieltjes_system():
    matrix = random_stieltjes(30, seed=7)
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=30)
    return sp.csr_matrix(matrix), rhs


class TestConvergence:
    def test_matches_dense_solve(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        x, report = krylov_solve(matrix, rhs)
        assert report.converged
        assert np.allclose(x, np.linalg.solve(matrix.toarray(), rhs))

    def test_true_residual_below_target(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        x, report = krylov_solve(matrix, rhs)
        residual = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        assert residual <= DEFAULT_RTOL
        assert report.residual <= DEFAULT_RTOL

    def test_dense_matrix_accepted(self):
        matrix = np.diag([2.0, 3.0, 4.0])
        x, report = krylov_solve(matrix, np.ones(3))
        assert report.converged
        assert np.allclose(x, [0.5, 1.0 / 3.0, 0.25])


class TestMultiRhs:
    def test_block_matches_per_column(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        block = np.column_stack([rhs, 2.0 * rhs, np.ones_like(rhs)])
        x, report = krylov_solve(matrix, block)
        assert x.shape == block.shape
        assert report.converged
        for j in range(block.shape[1]):
            xj, _ = krylov_solve(matrix, block[:, j])
            assert np.allclose(x[:, j], xj)

    def test_zero_column_costs_no_iterations(self, stieltjes_system):
        matrix, _ = stieltjes_system
        x, report = krylov_solve(matrix, np.zeros(matrix.shape[0]))
        assert report.converged
        assert report.iterations == 0
        assert np.array_equal(x, np.zeros(matrix.shape[0]))

    def test_iterations_sum_over_columns(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        _, single = krylov_solve(matrix, rhs)
        _, block = krylov_solve(matrix, np.column_stack([rhs, rhs]))
        assert block.iterations == 2 * single.iterations


class TestPreconditioners:
    def test_splu_preconditioner_converges_immediately(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        lu = splu(matrix.tocsc())
        x, report = krylov_solve(matrix, rhs, preconditioner=lu)
        # the exact inverse as preconditioner: one or two iterations
        assert report.converged
        assert report.iterations <= 2
        assert np.allclose(x, lu.solve(rhs))

    def test_callable_preconditioner(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        diag = matrix.diagonal()
        x, report = krylov_solve(matrix, rhs, preconditioner=lambda v: v / diag)
        assert report.converged

    def test_linear_operator_preconditioner(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        n = matrix.shape[0]
        op = LinearOperator((n, n), matvec=lambda v: v, dtype=float)
        x, report = krylov_solve(matrix, rhs, preconditioner=op)
        assert report.converged

    def test_invalid_preconditioner_rejected(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        with pytest.raises(TypeError, match="preconditioner"):
            krylov_solve(matrix, rhs, preconditioner=object())


class TestFailureReporting:
    def test_exhausted_budget_reported_not_raised(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        x, report = krylov_solve(matrix, rhs, maxiter=1)
        assert isinstance(report, KrylovReport)
        assert not report.converged
        assert report.residual > DEFAULT_RTOL
        assert np.all(np.isfinite(x))

    def test_one_failed_column_fails_the_block(self, stieltjes_system):
        matrix, rhs = stieltjes_system
        block = np.column_stack([np.zeros_like(rhs), rhs])
        _, report = krylov_solve(matrix, block, maxiter=1)
        assert not report.converged

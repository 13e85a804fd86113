"""Preconditioned conjugate-gradient solves with a true-residual check.

Below the runaway current the steady-state operator ``G - i D`` (and
every shifted ``S + G - i D``) is symmetric positive definite
(Lemma 1, Theorem 1), so conjugate gradients apply, provided the
preconditioner is symmetric positive definite too.  The multigrid
V-cycle of :mod:`repro.linalg.multigrid` is symmetric by construction;
that pairing is the ``mg`` solver backend.

The module is generic linear algebra: it takes any sparse/dense square
matrix or :class:`~scipy.sparse.linalg.LinearOperator`, any right-hand
side (single vector or a column block), and any preconditioner exposing
``solve`` (e.g. a ``scipy.sparse.linalg.splu`` object) or a plain
callable.  Convergence is judged on the *true* residual
``||b - A x|| / ||b||``, never on the solver's internal estimate, and a
miss is reported rather than raised, so the caller chooses its
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg

from repro.linalg.blas import one_thread

#: Default relative residual target.  Temperatures are O(3e2) K and the
#: package systems have cond(G) ~ 1e4, so 1e-10 relative leaves the
#: absolute error far below the 1e-6 K agreement the differential tests
#: demand.
DEFAULT_RTOL = 1.0e-10


@dataclass(frozen=True)
class KrylovReport:
    """Outcome of one (possibly multi-RHS) CG solve.

    Attributes
    ----------
    converged:
        True when *every* right-hand side reached the residual target
        (verified against the true residual ``||b - A x|| / ||b||``,
        not the solver's internal estimate).
    iterations:
        Total matrix applications summed over all right-hand sides.
    residual:
        Worst relative residual over the right-hand sides (0.0 for an
        all-zero ``rhs``).
    """

    converged: bool
    iterations: int
    residual: float


def _as_preconditioner(preconditioner, n, dtype):
    """Wrap a factorization / callable as a :class:`LinearOperator`."""
    if preconditioner is None:
        return None
    if isinstance(preconditioner, LinearOperator):
        return preconditioner
    solve = getattr(preconditioner, "solve", None)
    if solve is None and callable(preconditioner):
        solve = preconditioner
    if solve is None:
        raise TypeError(
            "preconditioner must expose .solve or be callable, got {!r}".format(
                type(preconditioner)
            )
        )
    return LinearOperator((n, n), matvec=solve, dtype=dtype)


def _run_cg(matrix, column, m_op, rtol, maxiter, counter):
    """One single-RHS solve; returns the iterate (info is re-derived)."""

    def count(_):
        counter[0] += 1

    kwargs = dict(M=m_op, maxiter=maxiter, callback=count)
    try:
        x, _ = cg(matrix, column, rtol=rtol, atol=0.0, **kwargs)
    except TypeError:  # scipy < 1.12 spells rtol as tol
        x, _ = cg(matrix, column, tol=rtol, atol=0.0, **kwargs)
    return x


def krylov_solve(
    matrix,
    rhs,
    *,
    preconditioner=None,
    rtol=DEFAULT_RTOL,
    maxiter=200,
):
    """Solve the SPD system ``matrix @ x = rhs`` by preconditioned CG.

    Parameters
    ----------
    matrix:
        Square symmetric positive definite sparse (or dense) matrix or
        :class:`LinearOperator`.
    rhs:
        Length-``n`` vector or ``(n, k)`` block of ``k`` independent
        right-hand sides (each solved by its own CG run; the
        preconditioner is shared).
    preconditioner:
        ``None``, a :class:`LinearOperator`, an object exposing
        ``solve`` (``splu`` result), or a callable ``v -> M^{-1} v``;
        it must be symmetric positive definite.
    rtol:
        Relative residual target, verified against the *true* residual.
    maxiter:
        Iteration budget per right-hand side.

    Returns
    -------
    (x, report):
        The solution (same shape as ``rhs``) and a
        :class:`KrylovReport`.  Convergence failure is *reported*, not
        raised — callers decide whether to fall back to a direct solve.
    """
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    columns = rhs.reshape(rhs.shape[0], -1)
    n = columns.shape[0]
    if sp.issparse(matrix):
        matrix = matrix.tocsr()
    m_op = _as_preconditioner(preconditioner, n, columns.dtype)

    x = np.empty_like(columns)
    iterations = 0
    worst_residual = 0.0
    converged = True
    # CG's dot products, norms and the preconditioner's solves run on
    # one BLAS thread (repro.linalg.blas).
    with one_thread():
        for j in range(columns.shape[1]):
            b = columns[:, j]
            b_norm = float(np.linalg.norm(b))
            if b_norm == 0.0:
                x[:, j] = 0.0
                continue
            counter = [0]
            xj = _run_cg(matrix, b, m_op, rtol, maxiter, counter)
            iterations += counter[0]
            residual = float(np.linalg.norm(b - matrix @ xj)) / b_norm
            worst_residual = max(worst_residual, residual)
            if not np.isfinite(residual) or residual > rtol:
                converged = False
            x[:, j] = xj
    report = KrylovReport(
        converged=converged,
        iterations=iterations,
        residual=worst_residual,
    )
    return (x[:, 0] if single else x), report

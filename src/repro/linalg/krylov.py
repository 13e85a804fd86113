"""Preconditioned Krylov solves for the steady-state operator ``G - i D``.

Lemma 1 makes ``G`` an irreducible positive definite Stieltjes matrix,
and ``D`` is diagonal with support only on the TEC hot/cold nodes, so

    M^{-1} (G - i D) = I - i G^{-1} D

is the identity plus a rank-``|S|`` perturbation whose spectrum shrinks
linearly with ``i / lambda_m`` (the runaway margin, Theorem 1).  With
the cached sparse LU of ``G`` as the preconditioner ``M``, GMRES and
BiCGSTAB therefore converge in a handful of iterations for any current
comfortably below runaway — each iteration costs one triangular solve
plus one sparse matrix-vector product, independent of the deployment
density.  This is what lets the ``krylov`` solver backend scale to
fine tile grids with dense TEC deployments, where the dense
``|S| x |S|`` Schur complement of the ``reuse`` backend becomes the
bottleneck.

The module is generic linear algebra: it takes any sparse/dense square
matrix, any right-hand side (single vector or a column block), and any
preconditioner exposing ``solve`` (e.g. a ``scipy.sparse.linalg.splu``
object) or a plain callable.  The thermal layer
(:mod:`repro.thermal.solve`) wires it into the solver-backend registry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, bicgstab, cg, gmres

#: Iterative methods accepted by :func:`krylov_solve`.  ``cg`` demands
#: a symmetric positive definite matrix *and* preconditioner — the
#: steady-state operator is SPD below the runaway current, and the
#: multigrid V-cycle preconditioner is symmetric by construction, which
#: is the pairing the ``mg`` backend uses.
KRYLOV_METHODS = ("gmres", "bicgstab", "cg")

#: Default relative residual target.  Temperatures are O(3e2) K and the
#: package systems have cond(G) ~ 1e4, so 1e-10 relative leaves the
#: absolute error far below the 1e-6 K agreement the differential tests
#: demand.
DEFAULT_RTOL = 1.0e-10


@dataclass(frozen=True)
class KrylovReport:
    """Outcome of one (possibly multi-RHS) Krylov solve.

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
    method:
        The method that ran (one of :data:`KRYLOV_METHODS`).
    """

    converged: bool
    iterations: int
    residual: float
    method: str


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


def _run_method(method, matrix, column, m_op, rtol, maxiter, restart, counter):
    """One single-RHS solve; returns the iterate (info is re-derived)."""

    def count(_):
        counter[0] += 1

    if method == "gmres":
        kwargs = dict(
            M=m_op, maxiter=maxiter, restart=restart,
            callback=count, callback_type="pr_norm",
        )
        try:
            x, _ = gmres(matrix, column, rtol=rtol, atol=0.0, **kwargs)
        except TypeError:  # scipy < 1.12 spells rtol as tol
            x, _ = gmres(matrix, column, tol=rtol, atol=0.0, **kwargs)
        return x
    solver = cg if method == "cg" else bicgstab
    kwargs = dict(M=m_op, maxiter=maxiter, callback=count)
    try:
        x, _ = solver(matrix, column, rtol=rtol, atol=0.0, **kwargs)
    except TypeError:  # scipy < 1.12 spells rtol as tol
        x, _ = solver(matrix, column, tol=rtol, atol=0.0, **kwargs)
    return x


def krylov_solve(
    matrix,
    rhs,
    *,
    preconditioner=None,
    method="gmres",
    rtol=DEFAULT_RTOL,
    maxiter=200,
    restart=40,
):
    """Solve ``matrix @ x = rhs`` iteratively with a preconditioner.

    Parameters
    ----------
    matrix:
        Square sparse (or dense) system matrix — for the thermal
        backend, ``G - i D``.
    rhs:
        Length-``n`` vector or ``(n, k)`` block of ``k`` independent
        right-hand sides (each solved by its own Krylov run; the
        preconditioner is shared).
    preconditioner:
        ``None``, a :class:`LinearOperator`, an object exposing
        ``solve`` (``splu`` result), or a callable ``v -> M^{-1} v``.
    method:
        One of :data:`KRYLOV_METHODS`.
    rtol:
        Relative residual target, verified against the *true* residual.
    maxiter:
        Outer-iteration budget per right-hand side.
    restart:
        GMRES restart length (ignored by BiCGSTAB).

    Returns
    -------
    (x, report):
        The solution (same shape as ``rhs``) and a
        :class:`KrylovReport`.  Convergence failure is *reported*, not
        raised — callers decide whether to fall back to a direct solve.
    """
    if method not in KRYLOV_METHODS:
        raise ValueError(
            "method must be one of {}, got {!r}".format(KRYLOV_METHODS, method)
        )
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
    for j in range(columns.shape[1]):
        b = columns[:, j]
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            x[:, j] = 0.0
            continue
        counter = [0]
        xj = _run_method(
            method, matrix, b, m_op, rtol, maxiter, restart, counter
        )
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
        method=method,
    )
    return (x[:, 0] if single else x), report

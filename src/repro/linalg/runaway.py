"""The runaway current ``lambda_m`` (Theorem 1 and Theorem 2).

Theorem 1 of the paper: for a positive definite irreducible Stieltjes
matrix ``G`` and a real diagonal ``D`` with at least one positive
entry,

    lambda_m = min { x' G x  :  x' D x = 1 }

splits the current axis in two — ``G - i D`` is positive definite for
``0 <= i < lambda_m`` and is not positive definite for
``i > lambda_m``.  Theorem 2 adds the physics: every entry of
``(G - i D)^{-1}`` blows up to ``+inf`` as ``i -> lambda_m`` from the
left, i.e. the package undergoes **thermal runaway** at
``i = lambda_m`` because Peltier pumping is exactly cancelled by Joule
heating and back-conduction (zero-COP condition).

Three computations are provided:

``runaway_current_binary_search``
    The paper's algorithm — binary search on ``i`` with a Cholesky
    positive-definiteness oracle (Section V.C.1).  Accepts an
    ``upper_hint`` (e.g. the previous greedy round's ``lambda_m``) to
    seed the doubling phase: adding TECs can only extend the Peltier
    support, so consecutive rounds' runaway currents are close and the
    hinted bracket collapses in a handful of oracle calls.
``runaway_current_eigen``
    The exact value, from Theorem 1 on the pencil condensed onto the
    Peltier support ``S`` (:mod:`repro.linalg.condensed`): ``G - i D``
    is singular iff its Schur complement ``C_S - i diag(d_S)`` is, so
    ``lambda_m = 1 / mu_max`` for the top eigenvalue of the
    symmetric-definite pencil ``(diag(d_S), C_S)`` (``inf`` when
    ``mu_max <= 0``).  The eigenvector lifts to node space as
    ``v = G^{-1} I_S (d_S * y)``, which satisfies
    ``G v = (1 / mu_max) D v``, and the value returned is the Rayleigh
    quotient ``v' G v / v' D v`` — Theorem 1's variational form at the
    computed minimizer, reading ``G`` and ``D`` directly, so the
    condensation's rounding enters only to second order.  The pencil is
    a ``reuse`` solve session's (``condensed=``, no factorization) or
    comes from a private support-last factorization of ``G`` ordered
    over ``lattice`` — the same call on the same ordering, so both
    agree bit for bit.
``runaway_current_shift_invert``
    Warm-started inverse iteration on the pencil ``(G, D)`` for
    GreedyDeploy's warm rounds: given the previous round's runaway
    eigenvector, a few shift-inverted solves ``(G - s D)^{-1} D v``
    through the solve engine's cached factorizations converge to the
    new ``lambda_m`` — no dense eigensolve, no extra sparse LU.  The
    returned value is a Rayleigh quotient ``x' G x / x' D x`` with
    ``x' D x > 0`` and therefore a certified *upper* bound on the true
    ``lambda_m`` (Theorem 1's variational characterization), which is
    exactly the safe side for the Problem 2 search cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.linalg.blas import one_thread
from repro.linalg.condensed import condense
from repro.linalg.spd import cholesky_is_spd


@dataclass(frozen=True)
class RunawayCurrent:
    """Result of a runaway-current computation.

    Attributes
    ----------
    value:
        ``lambda_m`` in amperes (``math.inf`` when ``D`` has no
        positive diagonal entry, i.e. no runaway exists).
    method:
        ``"eigen"`` or ``"binary-search"``.
    iterations:
        Oracle invocations (binary search) or 0 (eigen).
    bracket:
        Final ``(low, high)`` bracket for the binary search; for the
        eigen method both ends equal ``value``.
    """

    value: float
    method: str
    iterations: int
    bracket: tuple

    def __float__(self):
        return self.value


def _diagonal_of(d_matrix):
    """Extract the diagonal of ``D`` as a 1-D array.

    Accepts a 1-D array (already a diagonal), a dense matrix, or a
    sparse matrix.  Off-diagonal entries, if any, must be zero.
    """
    if sp.issparse(d_matrix):
        dense_diag = d_matrix.diagonal()
        off = d_matrix - sp.diags(dense_diag)
        if off.nnz and np.max(np.abs(off.data)) > 0.0:
            raise ValueError("D must be diagonal")
        return np.asarray(dense_diag, dtype=float)
    arr = np.asarray(d_matrix, dtype=float)
    if arr.ndim == 1:
        return arr
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        if np.any(arr - np.diag(np.diag(arr)) != 0.0):
            raise ValueError("D must be diagonal")
        return np.diag(arr).astype(float)
    raise ValueError("D must be a diagonal matrix or a 1-D array of diagonal entries")


def _combine(g_matrix, diag, current):
    """Form ``G - current * D`` preserving sparsity."""
    if sp.issparse(g_matrix):
        return (g_matrix - current * sp.diags(diag)).tocsc()
    return np.asarray(g_matrix, dtype=float) - current * np.diag(diag)


def runaway_current_eigen(g_matrix, d_matrix, *, return_vector=False,
                          condensed=None, lattice=None):
    """Exact ``lambda_m`` via the condensed symmetric pencil.

    ``condensed`` is an optional callable returning the
    :class:`~repro.linalg.condensed.CondensedPencil` of this ``(G, D)``
    pair (a ``reuse`` session's
    :meth:`~repro.thermal.session.SessionView.condensed`), called only
    when ``D`` has a positive entry; otherwise ``G`` is factored here,
    ordered over ``lattice``.  Returns a :class:`RunawayCurrent`; with
    ``return_vector`` a ``(result, vector)`` pair whose unit-norm
    runaway eigenvector (None without runaway) seeds
    :func:`runaway_current_shift_invert` on the next deployment.
    """
    diag = _diagonal_of(d_matrix)
    no_runaway = RunawayCurrent(math.inf, "eigen", 0, (math.inf, math.inf))
    if not np.any(diag > 0.0):
        return (no_runaway, None) if return_vector else no_runaway
    if condensed is None:
        pencil = condense(g_matrix, diag, lattice=lattice)
    else:
        pencil = condensed()
    try:
        mu, y = pencil.top_eigenpair()
    except np.linalg.LinAlgError as error:
        raise ValueError(
            "G must be positive definite (Lemma 1 hypothesis)"
        ) from error
    if not mu > 0.0:
        return (no_runaway, None) if return_vector else no_runaway
    # The lift, the quotient and the norm are n-vector work: one guard
    # makes the lift's own guard a depth bump.
    with one_thread():
        lifted = pencil.lift(pencil.d_support * y)
        value = rayleigh_quotient_bound(g_matrix, diag, lifted)
        result = RunawayCurrent(value, "eigen", 0, (value, value))
        if not return_vector:
            return result
        return result, lifted / float(np.linalg.norm(lifted))


def runaway_current_shift_invert(
    solve,
    g_matrix,
    d_matrix,
    *,
    guess,
    shift=None,
    shift_fraction=0.9,
    tolerance=1.0e-9,
    max_iterations=60,
    max_shift_retries=6,
    reshift_every=8,
):
    """Warm-started ``lambda_m`` via shift-inverted inverse iteration.

    Parameters
    ----------
    solve:
        Callable ``solve(current, rhs) -> (G - current D)^{-1} rhs`` —
        typically a model's ``solver.solve_rhs``, so the iteration
        rides the engine's cached base factorization and per-current
        factors instead of building its own.
    g_matrix / d_matrix:
        The pencil, used only for Rayleigh quotients (mat-vecs).
    guess:
        Seed vector — the previous deployment's runaway eigenvector
        mapped onto the current node ordering.  Must have
        ``x' D x > 0``.
    shift:
        Explicit initial shift (A).  Callers with a prior ``lambda_m``
        estimate (the previous greedy round's value) should pass a
        fraction of it: the seed's own Rayleigh quotient can
        overestimate ``lambda_m`` by orders of magnitude when the
        seed carries components outside the Peltier support, whose
        ``G``-energy inflates the numerator.
    shift_fraction:
        Without an explicit ``shift``, the shift starts at this
        fraction of the seed's Rayleigh quotient; it is also the
        fraction of the running Rayleigh estimate targeted by the
        periodic re-shifts.
    tolerance:
        Relative Rayleigh-quotient change required on two consecutive
        iterations to declare convergence.
    max_iterations:
        Total solve budget across shift retries.
    max_shift_retries:
        A singular shifted system (the shift overshot ``lambda_m``)
        shrinks the shift by 0.6 and retries, at most this many times
        over the whole call.
    reshift_every:
        After this many iterations at one shift without convergence,
        the shift moves to ``shift_fraction`` times the current
        Rayleigh estimate — much closer to ``lambda_m`` than the
        starting point, so the linear convergence rate improves
        sharply.  Each move costs the solve engine one fresh
        factorization at the new shift; an overshooting move is
        caught by the singularity handler like any other.

    Returns
    -------
    (RunawayCurrent, vector) or (None, None)
        ``(None, None)`` signals no convergence within the budget —
        callers fall back to the exact eigen path.  On success the
        value is a Rayleigh quotient with ``x' D x > 0``, hence a
        certified upper bound on the true ``lambda_m``.
    """
    diag = _diagonal_of(d_matrix)
    if not np.any(diag > 0.0):
        return (
            RunawayCurrent(math.inf, "shift-invert", 0, (math.inf, math.inf)),
            None,
        )

    def _rayleigh(x):
        with one_thread():
            denom = float(np.dot(x * diag, x))
            if denom <= 0.0 or not math.isfinite(denom):
                return None
            numer = float(x @ (g_matrix @ x))
        return numer / denom

    def _norm(x):
        with one_thread():
            return float(np.linalg.norm(x))

    vector = np.asarray(guess, dtype=float).copy()
    norm = _norm(vector)
    if norm <= 0.0 or not np.all(np.isfinite(vector)):
        return None, None
    vector /= norm
    rho = _rayleigh(vector)
    if rho is None or rho <= 0.0 or not math.isfinite(rho):
        return None, None

    shift = float(shift) if shift is not None else shift_fraction * rho
    if shift <= 0.0 or not math.isfinite(shift):
        return None, None
    iterations = 0
    stable = 0
    shift_failures = 0
    at_this_shift = 0
    while iterations < max_iterations:
        iterations += 1
        at_this_shift += 1
        try:
            advanced = solve(shift, diag * vector)
            norm = _norm(advanced)
            if norm <= 0.0 or not np.all(np.isfinite(advanced)):
                raise RuntimeError("shifted solve produced a degenerate vector")
        except (RuntimeError, np.linalg.LinAlgError):
            # G - shift D singular/indefinite: the shift overshot
            # lambda_m — back it off geometrically.
            shift_failures += 1
            if shift_failures > max_shift_retries:
                return None, None
            shift *= 0.6
            stable = 0
            at_this_shift = 0
            continue
        vector = advanced / norm
        rho_next = _rayleigh(vector)
        if rho_next is None or rho_next <= 0.0:
            return None, None
        if abs(rho_next - rho) <= tolerance * abs(rho_next):
            stable += 1
        else:
            stable = 0
        rho = rho_next
        if stable >= 2:
            return (
                RunawayCurrent(rho, "shift-invert", iterations, (shift, rho)),
                vector,
            )
        if at_this_shift >= reshift_every and shift_fraction * rho > shift:
            # Converging slowly: the Rayleigh estimate is now a far
            # tighter upper bound than the starting shift, so chase it.
            shift = shift_fraction * rho
            at_this_shift = 0
    return None, None


def runaway_current_binary_search(
    g_matrix,
    d_matrix,
    *,
    tolerance=1.0e-9,
    initial_bracket=1.0,
    max_doublings=200,
    max_iterations=200,
    upper_hint=None,
):
    """The paper's ``lambda_m`` algorithm: Cholesky-oracle binary search.

    Parameters
    ----------
    g_matrix, d_matrix:
        The conductance matrix and the Peltier coupling diagonal.
    tolerance:
        Relative width of the final bracket.
    initial_bracket:
        First trial upper bound for the doubling phase.
    max_doublings:
        Safety cap on the doubling phase; if ``G - i D`` is still
        positive definite after this many doublings the runaway
        current is reported as ``math.inf`` (this happens exactly when
        ``D`` has no positive entry, up to floating-point range).
    max_iterations:
        Safety cap on bisection steps.
    upper_hint:
        Prior estimate of ``lambda_m`` (e.g. the previous greedy
        round's value).  One oracle call classifies it: indefinite
        means ``[0, hint]`` already brackets and the doubling phase is
        skipped entirely; positive definite means doubling starts from
        the hint instead of ``initial_bracket``.  A wrong hint only
        costs that one call — the result is hint-independent.

    Returns
    -------
    RunawayCurrent
        With ``method="binary-search"``; ``value`` is the bracket
        midpoint.
    """
    diag = _diagonal_of(d_matrix)
    if not cholesky_is_spd(g_matrix):
        raise ValueError("G must be positive definite (Lemma 1 hypothesis)")
    if not np.any(diag > 0.0):
        return RunawayCurrent(math.inf, "binary-search", 0, (math.inf, math.inf))

    oracle_calls = 0
    low = 0.0
    high = float(initial_bracket)
    bracketed = False
    if upper_hint is not None and math.isfinite(upper_hint) and upper_hint > 0.0:
        oracle_calls += 1
        if cholesky_is_spd(_combine(g_matrix, diag, float(upper_hint))):
            low = float(upper_hint)
            high = 2.0 * low
        else:
            high = float(upper_hint)
            bracketed = True
    if not bracketed:
        for _ in range(max_doublings):
            oracle_calls += 1
            if not cholesky_is_spd(_combine(g_matrix, diag, high)):
                bracketed = True
                break
            low = high
            high *= 2.0
        if not bracketed:
            return RunawayCurrent(
                math.inf, "binary-search", oracle_calls, (low, math.inf)
            )

    for _ in range(max_iterations):
        if high - low <= tolerance * max(1.0, high):
            break
        mid = 0.5 * (low + high)
        oracle_calls += 1
        if cholesky_is_spd(_combine(g_matrix, diag, mid)):
            low = mid
        else:
            high = mid
    value = 0.5 * (low + high)
    return RunawayCurrent(value, "binary-search", oracle_calls, (low, high))


def runaway_current(g_matrix, d_matrix, *, method="eigen", **kwargs):
    """Compute ``lambda_m`` by the requested method.

    ``method="eigen"`` (default) is exact and fast for the sparse
    package networks; ``method="binary-search"`` reproduces the
    paper's algorithm.  Both agree to the binary search's tolerance —
    the test suite and ``benchmarks/bench_runaway.py`` verify this.
    ``kwargs`` go to the chosen method (``condensed`` / ``lattice`` /
    ``return_vector`` for ``"eigen"``).
    """
    if method == "eigen":
        return runaway_current_eigen(g_matrix, d_matrix, **kwargs)
    if method == "binary-search":
        return runaway_current_binary_search(g_matrix, d_matrix, **kwargs)
    raise ValueError("unknown method {!r}; use 'eigen' or 'binary-search'".format(method))


def rayleigh_quotient_bound(g_matrix, d_matrix, vector):
    """Evaluate ``x' G x / x' D x`` for a trial vector with ``x' D x > 0``.

    Any such quotient upper-bounds ``lambda_m`` (Theorem 1's
    variational characterization).  :func:`runaway_current_eigen`
    returns it at the lifted eigenvector as ``lambda_m`` itself, so
    both reductions run on one BLAS thread (:mod:`repro.linalg.blas`).
    """
    diag = _diagonal_of(d_matrix)
    x = np.asarray(vector, dtype=float)
    if not sp.issparse(g_matrix):
        g_matrix = np.asarray(g_matrix, dtype=float)
    with one_thread():
        denom = float(np.dot(x * diag, x))
        if denom <= 0.0:
            raise ValueError("trial vector must satisfy x' D x > 0")
        numer = float(x @ (g_matrix @ x))
    return numer / denom

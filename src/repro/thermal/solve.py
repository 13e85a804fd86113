"""Steady-state nodal analysis (Section IV.C) on the solve-session core.

Solves ``(G - i D) theta = p(i)`` through the pluggable backend layer
of :mod:`repro.thermal.session`.  Six modes are accepted by
:class:`SteadyStateSolver` (and by everything that forwards to it —
``CoolingSystemProblem``, sweep scenarios, the CLI ``--backend`` flag):

``mode="direct"``
    One sparse LU per distinct current, kept in a true-LRU cache.  The
    seed behaviour; cost ``O(LU(n))`` per *distinct* current.

``mode="reuse"``
    Blocked Woodbury factorization reuse.  ``D`` is diagonal and only
    non-zero on the TEC hot/cold nodes, so ``G - i D`` is a low-rank
    diagonal perturbation of ``G``.  The engine factorizes ``G`` once
    per assembled system, batch-solves the ``2 m`` influence columns
    ``W = G^{-1} I_S`` (``S`` = Peltier support) in one BLAS-3 pass,
    and answers every current through the Woodbury identity

        (G - i D)^{-1} b = x + W (I - i d Z)^{-1} (i d x_S)

    with ``x = G^{-1} b``, ``Z = I_S^T W`` and ``d`` the support
    diagonal.  The power-vector solves are *blocked over currents*
    too: ``p(i) = p_base + i^2 joule`` is linear in ``(1, i^2)``, so
    one two-column triangular solve answers ``G^{-1} p(i)`` for every
    current ever requested.  Per current this leaves one dense
    ``2m x 2m`` capacitance factorization (cached per current, LRU)
    and BLAS-3 back-substitutions — ``O((2m)^3)`` once per current,
    ``O(n * 2m)`` per solve.  Ideal while the support is small; the
    capacitance blows up quadratically-to-cubically as deployments
    densify.

``mode="krylov"``
    G-preconditioned iterative solves
    (:func:`repro.linalg.krylov.krylov_solve`).  The cached base-``G``
    sparse LU preconditions GMRES (or BiCGSTAB) on ``G - i D``; the
    preconditioned operator is ``I - i G^{-1} D``, whose spectrum
    clusters at 1 with a spread shrinking in the runaway margin, so a
    handful of iterations suffice per current *independent of the
    deployment density*.  Per current: ``k`` triangular solves plus
    ``k`` sparse mat-vecs (``k`` ~ 5-30), no dense capacitance at
    all.  A residual above the target triggers an automatic fallback
    to the direct per-current LU (counted in
    ``SolverStats.krylov_fallbacks``), so krylov never silently
    degrades accuracy.

``mode="cholesky"``
    Like ``direct`` — one factorization per distinct current, kept in
    the same LRU cache — but the SPD matrix ``G - i D`` is factored
    through :func:`repro.linalg.cholesky.spd_factorize`: CHOLMOD's
    supernodal sparse Cholesky when scikit-sparse is importable, a
    symmetric-mode pivot-free SuperLU with a positive-pivot check
    otherwise.  Half the flops/fill of a general LU on large grids;
    an indefinite matrix (current at/beyond ``lambda_m``) raises the
    same :class:`SingularSystemError`.

``mode="mg"``
    Geometric-multigrid preconditioned CG
    (:mod:`repro.linalg.multigrid`).  One aggregation hierarchy is
    built per view from the current-independent base ``S + G`` over
    the assembled system's lattice geometry — per-layer 2x2 tile
    agglomeration, Galerkin coarse operators, Chebyshev smoothing, a
    direct solve on the coarsest level — and the fine-level operator
    is applied matrix-free through the lattice stencil with the
    Peltier ``- i D`` term as a diagonal correction, so every current,
    round and scenario shares one hierarchy (``SolverStats.mg_*``
    counts builds, solves, cycles and fallbacks).  O(n) work *and*
    memory: no assembled factorization above the coarsest level, which
    is what makes >= 256x256 chiplet-scale grids tractable.  Same
    never-degrade contract as ``krylov`` — a missed residual target
    falls back to an exact per-current factorization.

``mode="auto"``
    Pick ``reuse``, ``krylov`` or ``mg`` per assembled system
    (:func:`select_backend`): small supports keep the dense Woodbury
    update, dense deployments on fine grids switch to the iterative
    backend, and grids at/past ``MG_NODE_CROSSOVER`` nodes go
    multigrid regardless of support.

Per-current caches key on the **exact float value** of the current
(``float(i)`` equality — no quantization).  Golden-section probes at
nearly identical currents (e.g. ``i`` and ``i * (1 + 1e-15)``) are
*distinct* keys and always miss; this is deliberate, keeps replay
bit-reproducible, and is pinned by
``tests/thermal/test_solve.py::TestExactFloatCacheKey`` — introducing
a quantized key must be an explicit behaviour change there.

The full factorization/caching/backend machinery lives in
:mod:`repro.thermal.session`: a :class:`SolveSession` per assembled
system hands out :class:`SessionView` objects per diagonal shift, and
:class:`SteadyStateSolver` *is* the session's unshifted view (it
subclasses :class:`SessionView` and registers itself as the session's
zero-shift entry), so the transient integrator, the control loop and
the multi-pin engine obtained from ``solver.session`` share its stats,
its base factorization policy and its backend selection.  Historical
imports — :class:`SolverStats`, :class:`SingularSystemError`,
:data:`SOLVER_MODES`, :func:`select_backend` and the ``auto``
threshold constants — are re-exported here unchanged.
"""

from __future__ import annotations

from repro.thermal.session import (
    AUTO_SUPPORT_COEFF,
    AUTO_SUPPORT_FLOOR,
    MG_NODE_CROSSOVER,
    SOLVER_MODES,
    BatchColumn,
    BatchResult,
    SessionView,
    SingularSystemError,
    SolveSession,
    SolverStats,
    select_backend,
)

__all__ = [
    "AUTO_SUPPORT_COEFF",
    "AUTO_SUPPORT_FLOOR",
    "MG_NODE_CROSSOVER",
    "SOLVER_MODES",
    "BatchColumn",
    "BatchResult",
    "SessionView",
    "SingularSystemError",
    "SolveSession",
    "SolverStats",
    "SteadyStateSolver",
    "select_backend",
]


class SteadyStateSolver(SessionView):
    """Factorization-caching solver for one assembled system.

    The unshifted :class:`~repro.thermal.session.SessionView` of a
    freshly created :class:`~repro.thermal.session.SolveSession` —
    constructing a solver constructs its session, reachable as
    :attr:`session` for consumers that need shifted or
    arbitrary-diagonal views of the same system (transient, control
    loop, multi-pin).

    Parameters
    ----------
    system:
        An :class:`~repro.thermal.assembly.AssembledSystem`.
    cache_size:
        Number of per-current cache entries kept (true LRU): LU
        factorizations in ``direct`` mode, dense capacitance
        factorizations in ``reuse`` mode, and solved temperature
        vectors in both.  Keys are exact float currents — see the
        module docstring.
    mode:
        One of :data:`SOLVER_MODES` — ``"direct"``, ``"reuse"``,
        ``"krylov"``, ``"cholesky"``, ``"mg"``, or ``"auto"``
        (resolved per system by :func:`select_backend`; see
        :attr:`~repro.thermal.session.SessionView.effective_mode`).
    stats:
        Optional shared :class:`SolverStats`; a private one is created
        when omitted.
    krylov_method / krylov_rtol / krylov_maxiter / krylov_restart:
        Knobs of the iterative backend (ignored by the other modes):
        method (``"gmres"`` or ``"bicgstab"``), relative residual
        target, outer-iteration budget per right-hand side, and GMRES
        restart length.  The ``mg`` backend shares the residual target
        and iteration budget for its preconditioned CG.
    mg_options:
        Optional dict of multigrid build knobs forwarded to
        :class:`~repro.linalg.multigrid.MultigridHierarchy` by the
        ``mg`` backend (ignored by the other modes).
    """

    def __init__(
        self,
        system,
        cache_size=8,
        *,
        mode="direct",
        stats=None,
        krylov_method="gmres",
        krylov_rtol=1.0e-10,
        krylov_maxiter=200,
        krylov_restart=40,
        mg_options=None,
    ):
        session = SolveSession(
            system,
            mode=mode,
            cache_size=cache_size,
            stats=stats,
            krylov_method=krylov_method,
            krylov_rtol=krylov_rtol,
            krylov_maxiter=krylov_maxiter,
            krylov_restart=krylov_restart,
            mg_options=mg_options,
        )
        super().__init__(session, None, cache_size)
        session._views[None] = self

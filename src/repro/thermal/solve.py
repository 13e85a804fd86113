"""Steady-state nodal analysis (Section IV.C) on the solve-session core.

Solves ``(G - i D) theta = p(i)`` through the pluggable backend layer
of :mod:`repro.thermal.session`.  Four modes are accepted by
:class:`SteadyStateSolver` (and by everything that forwards to it —
``CoolingSystemProblem``, sweep scenarios, the CLI ``--backend`` flag):

``mode="direct"``
    One sparse SPD factorization per distinct current, kept in a
    true-LRU cache.  Below the runaway current ``G - i D`` is
    symmetric positive definite (Lemma 1, Theorem 1), so
    :func:`repro.linalg.cholesky.spd_factorize` factors it pivot-free
    in symmetric mode on the MMD ordering of ``A + A'`` — roughly half
    the fill of a general LU — and checks every pivot is positive.  A
    non-positive pivot certifies ``i >= lambda_m`` and raises
    :class:`SingularSystemError`.

``mode="reuse"``
    The condensed engine (:mod:`repro.linalg.condensed`).  ``D`` is
    diagonal and only non-zero on the TEC hot/cold nodes ``S``, so
    ``G - i D`` differs from ``G`` only in its ``S x S`` block.  The
    engine factors ``G`` once per assembled system with ``S`` ordered
    last (geometric nested dissection over the tile lattice) and reads
    the ``2m x 2m`` Schur complement ``C_S = ((G^{-1})[S, S])^{-1}``
    off the factor's trailing block; one eigendecomposition of the
    pencil ``(diag(d_S), C_S)`` then gives ``lambda_m`` and answers
    every current:

        (G - i D)^{-1} b = x + G^{-1} I_S (i d_S * (x_S + delta)),
        (C_S - i diag(d_S)) delta = i d_S * x_S

    with ``x = G^{-1} b``.  The power-vector solves are *blocked over
    currents* too: ``p(i) = p_base + i^2 joule`` is linear in
    ``(1, i^2)``, so one two-column triangular solve answers
    ``G^{-1} p(i)`` for every current ever requested.  Per current this
    leaves two dense ``2m x 2m`` products and one sparse lift solve; a
    current at or beyond ``lambda_m`` raises
    :class:`SingularSystemError`.  Ideal while the support is small;
    the dense trailing block grows quadratically (its
    eigendecomposition cubically) as deployments densify.

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
    is what makes >= 256x256 chiplet-scale grids tractable.  CG
    checks the true residual; a missed target falls back to an exact
    per-current SPD factorization, so mg never degrades accuracy.

``mode="auto"``
    Pick ``reuse``, ``direct`` or ``mg`` per assembled system
    (:func:`select_backend`): small supports keep the condensed
    engine, dense deployments switch to the per-current SPD
    factorization, and grids at/past ``MG_NODE_CROSSOVER`` nodes go
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
        Number of per-current cache entries kept (true LRU): SPD
        factorizations in ``direct`` mode and solved temperature
        vectors in every mode.  Keys are exact float currents — see the
        module docstring.
    mode:
        One of :data:`SOLVER_MODES` — ``"direct"``, ``"reuse"``,
        ``"mg"``, or ``"auto"`` (resolved per system by
        :func:`select_backend`; see
        :attr:`~repro.thermal.session.SessionView.effective_mode`).
    stats:
        Optional shared :class:`SolverStats`; a private one is created
        when omitted.
    """

    def __init__(self, system, cache_size=8, *, mode="direct", stats=None):
        session = SolveSession(
            system, mode=mode, cache_size=cache_size, stats=stats
        )
        super().__init__(session, None, cache_size)
        session._views[None] = self

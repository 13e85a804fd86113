"""The shared solve-session engine behind every linear solve.

Everything the paper's machinery computes reduces to solves of shifted
nodal systems

    (S + G - D_x) theta = b

where ``G`` is the assembled conductance matrix, ``S`` an optional
additive diagonal (zero for steady state, ``C / dt`` for the
backward-Euler transient systems) and ``D_x`` a Peltier diagonal —
either the shared-current form ``i D`` of Equation (4) or an arbitrary
per-device diagonal (the multi-pin generalization).  A
:class:`SolveSession` owns one assembled system together with the
solver mode and the :class:`SolverStats` instrumentation, and hands
out one :class:`SessionView` per distinct diagonal shift ``S``.  Each
view carries the full factorization machinery of the engine:

* the ``direct`` backend: a true-LRU cache of sparse SPD factors
  (:func:`repro.linalg.cholesky.spd_factorize`) keyed on
  *(shift, current)* — the shift selects the view, the exact float
  current the entry; a non-positive pivot refuses a current at or
  beyond ``lambda_m`` with :class:`SingularSystemError`;
* the condensed ``reuse`` backend: one sparse LU of ``S + G`` per view
  with the Peltier support ordered last, whose trailing block is the
  support's Schur complement ``C_S`` (:mod:`repro.linalg.condensed`),
  and one ``m x m`` eigendecomposition of the pencil
  ``(diag(d_S), C_S)``; each current then costs two ``m x m``
  products and one sparse lift solve, and a current at or beyond
  ``lambda_m`` is refused with :class:`SingularSystemError`;
* the multigrid-preconditioned CG backend ``mg`` with an exact SPD
  factorization as its fallback;
* ``auto``, which picks ``reuse``, ``direct`` or ``mg`` once per
  assembled system (:func:`select_backend`);
* per-view solution caches and the arbitrary-diagonal solves of
  :meth:`SessionView.solve_diagonal`.

Consumers share sessions instead of carrying private ``splu`` calls:
a model's steady solver is its session's zero-shift view
(``SolveSession(system, mode=...).view(None)``), the transient
integrator and the closed control loop share the ``C / dt`` view (so
a control trace's per-quantized-current factorizations become cache
hits with real LRU eviction), and the multi-pin optimizer routes its
per-device-current solves through :meth:`SessionView.solve_diagonal`.

Cache keys use the **exact float value** of the current (``float(i)``
equality — no quantization) and the exact bytes of diagonal vectors.
Golden-section probes at nearly identical currents are *distinct* keys
and always miss; this is deliberate, keeps replay bit-reproducible,
and is pinned by
``tests/thermal/test_solve.py::TestExactFloatCacheKey``.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

from repro.linalg.cholesky import NotPositiveDefiniteError, spd_factorize
from repro.linalg.condensed import condensed_pencil, factor_support_last
from repro.linalg.krylov import DEFAULT_RTOL, krylov_solve
from repro.linalg.spd import cholesky_is_spd

#: Engine modes accepted by :class:`SolveSession`.  ``direct`` factors
#: the SPD matrix once per distinct current (LRU-cached) with
#: :func:`repro.linalg.cholesky.spd_factorize`.  ``reuse`` is the
#: condensed engine: one support-last factorization of ``S + G`` and
#: one ``m x m`` pencil eigendecomposition per view, then two
#: ``m x m`` products and one lift solve per current (see the module
#: docstring).  ``mg`` runs multigrid-preconditioned CG: one geometric
#: hierarchy is built per view from the current-independent base
#: ``S + G`` (see :mod:`repro.linalg.multigrid`) and the Peltier term
#: ``- i D`` is applied as a matrix-free diagonal correction on the
#: fine level, so every current, round and scenario reuses the same
#: hierarchy.
SOLVER_MODES = ("direct", "reuse", "mg", "auto")

#: ``auto`` keeps the condensed ``reuse`` backend up to this support
#: size regardless of the node count (the dense ``m x m`` Schur
#: complement is trivial below it).
AUTO_SUPPORT_FLOOR = 64

#: ``auto`` switches to ``direct`` once the Peltier support exceeds
#: ``AUTO_SUPPORT_COEFF * sqrt(num_nodes)``: past that point the dense
#: trailing ``m x m`` block of the support-last factorization (and its
#: ``O(m^3)`` eigendecomposition) outweighs one sparse SPD
#: factorization per current.
AUTO_SUPPORT_COEFF = 4.0

#: ``auto`` switches to the geometric-multigrid backend once the
#: system reaches this node count, regardless of support: past it the
#: assembled factorizations' superlinear fill (memory *and* time)
#: loses to the O(n) hierarchy — the 128x128 package (~66k nodes)
#: stays on the factorized backends, 256x256 (~262k nodes) goes mg.
MG_NODE_CROSSOVER = 150_000

#: The ``mg`` backend's CG: relative true-residual target and
#: iteration budget per right-hand side.  A miss falls back to an exact
#: SPD factorization.
MG_RTOL = DEFAULT_RTOL
MG_MAXITER = 200


def select_backend(num_nodes, support_size):
    """The ``auto`` heuristic: ``"reuse"``, ``"direct"`` or ``"mg"``.

    Chooses the condensed ``reuse`` backend while the Peltier support
    (two nodes per deployed TEC) is small — at most
    ``max(AUTO_SUPPORT_FLOOR, AUTO_SUPPORT_COEFF * sqrt(n))`` — and
    the per-current SPD factorization of ``direct`` beyond, where the
    dense ``support x support`` Schur complement in the factorization
    and its eigendecomposition would dominate.
    From :data:`MG_NODE_CROSSOVER` nodes on, every assembled
    factorization is superlinear in fill, so the choice flips to the
    matrix-free ``mg`` backend independent of support.
    """
    if num_nodes >= MG_NODE_CROSSOVER:
        return "mg"
    limit = max(AUTO_SUPPORT_FLOOR, AUTO_SUPPORT_COEFF * math.sqrt(num_nodes))
    return "reuse" if support_size <= limit else "direct"


class SingularSystemError(RuntimeError):
    """Raised when the system matrix is singular or indefinite at the
    requested current — i.e. the current is at or beyond the runaway
    limit ``lambda_m`` (Theorem 1)."""


@dataclass
class SolverStats:
    """Instrumentation counters for the solve engine.

    One instance can be shared by many solvers and sessions (every
    model built by a :class:`~repro.core.problem.CoolingSystemProblem`
    reports into the problem's stats object), so the counters
    aggregate over a whole GreedyDeploy run — or a whole transient /
    control-loop / nonlinear workload.

    Attributes
    ----------
    factorizations:
        Sparse factorizations performed (SPD factors and the reuse
        backend's support-last ``splu`` calls).
    condensed_factorizations:
        Dense ``m x m`` factorizations of the reuse backend: one
        eigendecomposition of the pencil ``(diag(d_S), C_S)`` per view
        (it serves every shared current), plus one Cholesky of
        ``C_S - diag(d_S)`` per per-device diagonal not already held as
        the view's most recent factor.
    cache_hits / cache_misses / evictions:
        Per-current factorization-cache traffic.
    solves:
        ``solve`` / ``solve_rhs`` / ``solve_diagonal`` /
        ``influence_rows`` calls.
    rhs_columns:
        Total right-hand-side columns pushed through a factorization.
    solution_hits:
        ``solve`` calls answered from the per-current solution cache
        without any triangular solve.
    mg_hierarchies:
        Multigrid hierarchies built (``mg`` backend; one per view and
        process — the acceptance tests assert a multi-current solve
        sequence builds exactly one).
    mg_solves / mg_cycles:
        ``mg``-backend solve calls and the total multigrid cycles they
        spent (one V-cycle per preconditioned CG iteration).
    mg_fallbacks:
        ``mg`` solves whose residual missed the target and fell back
        to an exact per-current SPD factorization.
    factor_time_s / solve_time_s:
        Cumulative wall time in factorization and in solves.
    full_builds / incremental_builds:
        Package networks built from scratch vs replayed from a cached
        :class:`~repro.thermal.assembly.NetworkBlueprint`.
    assembly_time_s:
        Cumulative wall time building networks and assembling matrices.
    """

    factorizations: int = 0
    condensed_factorizations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    solves: int = 0
    rhs_columns: int = 0
    solution_hits: int = 0
    mg_hierarchies: int = 0
    mg_solves: int = 0
    mg_cycles: int = 0
    mg_fallbacks: int = 0
    factor_time_s: float = 0.0
    solve_time_s: float = 0.0
    full_builds: int = 0
    incremental_builds: int = 0
    assembly_time_s: float = 0.0

    def copy(self):
        """An independent snapshot of the current counters."""
        return SolverStats(**self.as_dict())

    def diff(self, baseline):
        """Counters accumulated since ``baseline`` (an earlier copy)."""
        return SolverStats(**{
            f.name: getattr(self, f.name) - getattr(baseline, f.name)
            for f in fields(self)
        })

    def merge(self, other):
        """Fold another stats object into this one (in place)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def cache_hit_rate(self):
        """Hit fraction of the per-current cache (0 when untouched)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self):
        """Plain-data view (JSON-representable)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self):
        """Compact one-line report for CLIs and benchmarks."""
        line = (
            "{} LU + {} condensed factorizations, {} solves ({} rhs cols), "
            "cache {}/{} hit ({:.0f}%), {} evictions, "
            "builds {} full + {} incremental".format(
                self.factorizations,
                self.condensed_factorizations,
                self.solves,
                self.rhs_columns,
                self.cache_hits,
                self.cache_hits + self.cache_misses,
                100.0 * self.cache_hit_rate,
                self.evictions,
                self.full_builds,
                self.incremental_builds,
            )
        )
        if self.mg_solves or self.mg_hierarchies:
            line += ", mg {} hierarchies / {} solves / {} cycles / {} fallbacks".format(
                self.mg_hierarchies, self.mg_solves, self.mg_cycles,
                self.mg_fallbacks,
            )
        return line


@dataclass(frozen=True)
class BatchColumn:
    """Per-column record of a :meth:`SessionView.solve_batch` result.

    Attributes
    ----------
    index:
        Position of the column in the request.
    current:
        Exact float supply current of the column.
    peak_k:
        Maximum entry of the column's solution (Kelvin rise for the
        steady system).
    solution_hit:
        True when the column was answered straight from the per-current
        solution cache (power-vector batches only).
    grouped:
        Number of request columns that shared this column's
        factorization group — columns at the same exact float current
        are stacked into one multi-RHS solve, so ``grouped > 1`` marks
        a genuinely batched BLAS-3 column.
    stats:
        Plain-dict :class:`SolverStats` delta attributed to the
        column's group (columns of one group share the delta).
    """

    index: int
    current: float
    peak_k: float
    solution_hit: bool
    grouped: int
    stats: dict


@dataclass(frozen=True)
class BatchResult:
    """Stacked result of :meth:`SessionView.solve_batch`.

    ``temperatures`` is the ``(n, k)`` column-stacked solution block —
    column ``j`` answers request column ``j`` in order.  ``columns``
    carries one :class:`BatchColumn` per request column and ``stats``
    the overall :class:`SolverStats` delta of the whole batch.
    """

    temperatures: np.ndarray
    columns: tuple
    currents: tuple
    stats: dict

    def __len__(self):
        return len(self.columns)

    @property
    def peaks_k(self):
        """Per-column solution maxima as a length-``k`` array."""
        return np.array([column.peak_k for column in self.columns])


class SessionView:
    """One diagonal shift of a :class:`SolveSession`.

    A view answers solves of ``(S + G - i D) x = b`` for its fixed
    shift ``S`` (``None`` means the steady-state system ``G - i D``)
    across any number of currents, carrying the per-current LRU caches
    and backend machinery described in the module docstring.  Views
    are obtained from :meth:`SolveSession.view` — one per distinct
    shift, shared by every consumer requesting the same shift; a
    model's ``solver`` is the zero-shift view.

    Parameters
    ----------
    session:
        The owning :class:`SolveSession`.
    shift:
        Additive diagonal ``S`` as a dense length-``n`` vector, or
        None for the unshifted steady-state system.
    cache_size:
        Number of per-current cache entries kept (true LRU): SPD
        factorizations in ``direct`` mode and solved temperature
        vectors in every mode.  Keys are exact float currents — see
        the module docstring.  ``reuse`` needs no
        per-current factor (the pencil's spectrum serves every
        current) and keeps only its most recent per-device Cholesky
        factor for :meth:`solve_diagonal`.
    """

    def __init__(self, session, shift=None, cache_size=8):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1, got {}".format(cache_size))
        self.session = session
        self.system = session.system
        self.stats = session.stats
        if shift is not None:
            shift = np.ascontiguousarray(np.asarray(shift, dtype=float))
            if shift.shape != (self.system.num_nodes,):
                raise ValueError(
                    "shift must have length {}, got shape {}".format(
                        self.system.num_nodes, shift.shape
                    )
                )
        self._shift = shift
        self._shift_diag_matrix = None
        self._shifted_base = None
        self._cache_size = cache_size
        self._lu_cache = OrderedDict()
        self._solution_cache = OrderedDict()
        # Shared state, built lazily on first solve: the base
        # factorization, the condensed pencil (reuse) and the most
        # recent per-device m x m factor as a (key, inverse) pair.
        self._base_lu = None
        self._support = None
        self._d_support = None
        self._pencil = None
        self._last_factor = None
        self._x_pair = None
        # Arbitrary-diagonal LU factors (multi-pin solves off the
        # support), keyed on the diagonal's bytes.
        self._diag_lu_cache = OrderedDict()
        # Reduced-order models keyed on their (dim, tol, cadence)
        # request; shared by every trace over this shift (the basis is
        # enriched in place).  Never LRU-evicted — a model is a few
        # n x r arrays, far smaller than one LU factor.
        self._reduced_cache = {}
        # The multigrid hierarchy of the mg backend: built once per
        # view from the current-independent base ``S + G`` (like the
        # reduced models, never evicted) and shared by every current —
        # the Peltier ``- i D`` term rides on top as a matrix-free
        # diagonal correction.  The integer aggregation plan is pushed
        # up to the session so sibling views skip re-aggregation.
        self._mg = None

    def __getstate__(self):
        """Pickle support: drop live factorization handles.

        ``splu`` factors wrap SuperLU objects that cannot be pickled
        and must not be shared across a ``fork``/spawn boundary (the
        serve layer's process-pool tier and any sweep worker that
        receives a warmed problem would otherwise crash).  Everything
        derived from a factorization — LU caches, the condensed pencil,
        solution caches, shifted-matrix scratch — is
        dropped here and rebuilt lazily on first solve in the new
        process.  Plain state (shift vector, cache capacity, the shared
        stats object) survives the round trip, so an unpickled view
        answers bit-identical solves; pinned by
        ``tests/thermal/test_session.py::TestForkSafety``.
        """
        state = self.__dict__.copy()
        state["_shift_diag_matrix"] = None
        state["_shifted_base"] = None
        state["_lu_cache"] = OrderedDict()
        state["_solution_cache"] = OrderedDict()
        state["_base_lu"] = None
        state["_support"] = None
        state["_d_support"] = None
        state["_pencil"] = None
        state["_last_factor"] = None
        state["_x_pair"] = None
        state["_diag_lu_cache"] = OrderedDict()
        state["_reduced_cache"] = {}
        # The hierarchy itself pickles safely (its coarse-level splu
        # handle is dropped by its own __getstate__), but it is
        # factorization-scale state: drop it like the caches and
        # rebuild lazily — cheaply, since the session's aggregation
        # plan survives the round trip.
        state["_mg"] = None
        return state

    @property
    def mode(self):
        """The session's requested solver mode (see :data:`SOLVER_MODES`)."""
        return self.session.mode

    @property
    def effective_mode(self):
        """The backend actually answering solves.

        Equal to :attr:`mode` except under ``"auto"``, where the
        choice between ``"reuse"``, ``"direct"`` and ``"mg"`` is made
        once per assembled system by :func:`select_backend` (support
        size vs node count) and shared by every view of the session.
        """
        return self.session.effective_mode

    @property
    def shift(self):
        """The view's additive diagonal (copy), or None when unshifted."""
        return None if self._shift is None else self._shift.copy()

    # ------------------------------------------------------------------
    # Shifted matrices
    # ------------------------------------------------------------------

    def _shift_diags(self):
        if self._shift_diag_matrix is None:
            self._shift_diag_matrix = sp.diags(self._shift)
        return self._shift_diag_matrix

    def _matrix(self, current):
        """``S + G - i D`` for this view's shift (CSC)."""
        matrix = self.system.system_matrix(current)
        if self._shift is None:
            return matrix
        return (self._shift_diags() + matrix).tocsc()

    def _base_matrix(self):
        """``S + G`` — the view's current-independent base matrix."""
        if self._shift is None:
            return self.system.g_matrix
        if self._shifted_base is None:
            self._shifted_base = (
                self._shift_diags() + self.system.g_matrix
            ).tocsc()
        return self._shifted_base

    def _diagonal_matrix(self, diagonal):
        """``S + G - diag(d)`` for an arbitrary per-node diagonal."""
        matrix = (self.system.g_matrix - sp.diags(diagonal)).tocsc()
        if self._shift is None:
            return matrix
        return (self._shift_diags() + matrix).tocsc()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _cache_get(self, cache, key):
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
        return entry

    def _cache_put(self, cache, key, entry):
        if len(cache) >= self._cache_size:
            cache.popitem(last=False)
            self.stats.evictions += 1
        cache[key] = entry

    # ------------------------------------------------------------------
    # Direct mode: one sparse SPD factorization per current
    # ------------------------------------------------------------------

    def _splu(self, matrix, label, **options):
        """Factor a sparse system matrix.

        The single factorization seam of the engine: per-current
        matrices, the shared base matrix and arbitrary-diagonal
        matrices all pass through here.  The reuse backend's
        support-last factorization passes its own ordering and
        symmetric pivot-free ``options`` to ``splu``; every other
        matrix is SPD below ``lambda_m`` and goes through
        :func:`repro.linalg.cholesky.spd_factorize`, whose positive
        pivots certify it.  A singular or indefinite matrix (a current
        at/beyond ``lambda_m``) raises :class:`SingularSystemError`.
        """
        start = time.perf_counter()
        try:
            if options:
                lu = splu(matrix.tocsc(), **options)
            else:
                lu = spd_factorize(matrix)
        except (RuntimeError, NotPositiveDefiniteError) as error:
            raise SingularSystemError(
                "system matrix not positive definite at {} (at/beyond the "
                "runaway limit lambda_m)".format(label)
            ) from error
        finally:
            self.stats.factor_time_s += time.perf_counter() - start
        self.stats.factorizations += 1
        return lu

    def _factorization(self, current):
        """The per-current SPD factor, LRU-cached on the exact float
        ``current`` (no quantization — see the module docstring)."""
        current = float(current)
        lu = self._cache_get(self._lu_cache, current)
        if lu is None:
            self.stats.cache_misses += 1
            lu = self._splu(
                self._matrix(current), "i = {} A".format(current)
            )
            self._cache_put(self._lu_cache, current, lu)
        else:
            self.stats.cache_hits += 1
        return lu

    def _apply_direct(self, current, rhs):
        lu = self._factorization(current)
        return self._timed_lu_solve(lu, rhs)

    def _timed_lu_solve(self, lu, rhs):
        start = time.perf_counter()
        x = lu.solve(rhs)
        self.stats.solve_time_s += time.perf_counter() - start
        self.stats.rhs_columns += 1 if rhs.ndim == 1 else rhs.shape[1]
        return x

    # ------------------------------------------------------------------
    # Reuse mode: one support-last factorization, m x m work per current
    # ------------------------------------------------------------------

    def _base_factorization(self):
        """The shared factorization of ``S + G``: support-last under
        ``reuse``, the SPD factor otherwise (zero-current and
        zero-diagonal solves, the mg fallback)."""
        if self._base_lu is None:
            support = np.flatnonzero(self.system.d_diagonal)
            if self.effective_mode == "reuse":
                self._base_lu = factor_support_last(
                    self._base_matrix(), support,
                    lattice=getattr(self.system, "lattice", None),
                    factorize=lambda matrix, **options: self._splu(
                        matrix, "i = 0.0 A", **options
                    ),
                )
            else:
                self._base_lu = self._splu(self._base_matrix(), "i = 0.0 A")
            self._support = support
            self._d_support = self.system.d_diagonal[support]
        return self._base_lu

    def base_factorization(self):
        """The base factorization of ``S + G`` (public accessor).

        Builds it on first call.  The returned object answers
        ``.solve(rhs)`` for 1-D or ``(n, k)`` right-hand sides.
        """
        return self._base_factorization()

    def condensed(self):
        """The view's :class:`~repro.linalg.condensed.CondensedPencil`,
        built once on the reuse base factorization with its spectrum
        (one ``m x m`` eigendecomposition).  The runaway eigensolve
        reads ``lambda_m`` off it with no additional factorization."""
        if self._pencil is None:
            base = self._base_factorization()
            start = time.perf_counter()
            pencil = condensed_pencil(
                base, self._support, self._d_support,
                lambda rhs: self._timed_lu_solve(base, rhs),
                self.system.num_nodes,
            )
            if self._support.size:
                pencil.spectrum()
                self.stats.condensed_factorizations += 1
            self.stats.factor_time_s += time.perf_counter() - start
            self._pencil = pencil
        return self._pencil

    def _base_pair(self):
        """``(S + G)^{-1} [p_base, joule]`` — the blocked power solves.

        ``p(i) = p_base + i^2 joule`` is linear in ``(1, i^2)``, so
        this single two-column solve answers the base part of *every*
        per-current power solve; :meth:`solve` in reuse mode then pays
        only the condensed correction per current.
        """
        lu = self._base_factorization()
        if self._x_pair is None:
            rhs = np.column_stack([self.system.p_base, self.system.joule])
            self._x_pair = self._timed_lu_solve(lu, rhs)
        return self._x_pair

    def _current_correct(self, current, x):
        """Turn ``x = (S + G)^{-1} b`` into ``(S + G - i D)^{-1} b``
        (``x`` 1-D or a column block) through the pencil's spectrum."""
        if current == 0.0 or self._support.size == 0:
            return x
        pencil = self.condensed()
        inverse = pencil.current_inverse(current)
        if inverse is None:
            raise SingularSystemError(
                "C_S - i diag(d_S) is not positive definite at i = {} A "
                "(current at/beyond the runaway limit lambda_m)".format(current)
            )
        return pencil.solve(inverse, current * self._d_support, x)

    def _apply_reuse(self, current, rhs):
        x = self._timed_lu_solve(self._base_factorization(), rhs)
        return self._current_correct(current, x)

    def _reuse_solve_power(self, current):
        """Reuse-mode fast path for the power vector: the blocked base
        pair plus one lift solve per current."""
        pair = self._base_pair()
        if current == 0.0:
            x = pair[:, 0].copy()
        else:
            x = pair[:, 0] + (current * current) * pair[:, 1]
        return self._current_correct(current, x)

    # ------------------------------------------------------------------
    # Multigrid mode: hierarchy-preconditioned CG, matrix-free operator
    # ------------------------------------------------------------------

    def _mg_hierarchy(self):
        """The view's multigrid hierarchy, built once and shared.

        Builds from the current-independent base ``S + G`` over the
        system's :class:`~repro.linalg.multigrid.LatticeGeometry`
        (algebraic pairwise fallback without one).  The first hierarchy
        of the session publishes its integer aggregation plan on the
        session, so hierarchies of sibling shifted views — and of
        views rebuilt after a fork — skip the aggregation pass and only
        pay the Galerkin products.
        """
        if self._mg is None:
            from repro.linalg.multigrid import MultigridHierarchy

            start = time.perf_counter()
            self._mg = MultigridHierarchy(
                self._base_matrix(),
                geometry=getattr(self.system, "lattice", None),
                plan=self.session._mg_plan,
            )
            self.stats.factor_time_s += time.perf_counter() - start
            self.stats.mg_hierarchies += 1
            if self.session._mg_plan is None:
                self.session._mg_plan = self._mg.plan
        return self._mg

    def _mg_operator(self, hierarchy, diagonal=None):
        """``S + G - diag(d)`` as a matrix-free operator.

        The hierarchy applies the base operator (through its lattice
        stencil when available); the Peltier diagonal — rank ``2m`` on
        the TEC support — stays a fine-level correction, which is what
        lets one hierarchy serve every current, round and scenario.
        """
        n = self.system.num_nodes
        if diagonal is None:
            matvec = hierarchy.apply_fine
        else:
            def matvec(v):
                return hierarchy.apply_fine(v) - (diagonal * v.T).T
        return LinearOperator((n, n), matvec=matvec, dtype=float)

    def _mg_correction(self, current):
        """The per-current diagonal ``i d`` (None when zero)."""
        current = float(current)
        if current == 0.0 or not np.any(self.system.d_diagonal):
            return None
        return current * self.system.d_diagonal

    def _run_mg(self, operator, rhs, fallback):
        """One mg-preconditioned CG solve with exact direct fallback."""
        hierarchy = self._mg_hierarchy()
        cycles_before = hierarchy.cycles
        start = time.perf_counter()
        x, report = krylov_solve(
            operator,
            rhs,
            preconditioner=hierarchy.precondition,
            rtol=MG_RTOL,
            maxiter=MG_MAXITER,
        )
        self.stats.solve_time_s += time.perf_counter() - start
        self.stats.mg_solves += 1
        self.stats.mg_cycles += hierarchy.cycles - cycles_before
        if not report.converged:
            # Accuracy never degrades: stagnation (an exhausted
            # budget, or near-runaway ill-conditioning) falls back to
            # an exact per-current factorization.
            self.stats.mg_fallbacks += 1
            return fallback()
        self.stats.rhs_columns += 1 if rhs.ndim == 1 else rhs.shape[1]
        return x

    def _apply_mg(self, current, rhs):
        hierarchy = self._mg_hierarchy()
        operator = self._mg_operator(
            hierarchy, self._mg_correction(current)
        )
        return self._run_mg(
            operator, rhs, lambda: self._apply_direct(current, rhs)
        )

    def _diag_mg(self, d, rhs):
        """Arbitrary-diagonal mg solve (``d`` may be None for zero)."""
        hierarchy = self._mg_hierarchy()
        operator = self._mg_operator(hierarchy, d)
        if d is None:
            fallback = lambda: self._timed_lu_solve(  # noqa: E731
                self._base_factorization(), rhs
            )
        else:
            fallback = lambda: self._diag_direct(d, rhs)  # noqa: E731
        return self._run_mg(operator, rhs, fallback)

    # ------------------------------------------------------------------
    # Backend dispatch
    # ------------------------------------------------------------------

    def _apply_inverse(self, current, rhs):
        """``(S + G - i D)^{-1} rhs`` through the effective backend.

        ``rhs`` may be 1-D or 2-D (columns are independent right-hand
        sides sharing one factorization / preconditioner).
        """
        mode = self.effective_mode
        if mode == "reuse":
            return self._apply_reuse(current, rhs)
        if mode == "mg":
            return self._apply_mg(current, rhs)
        return self._apply_direct(current, rhs)

    # ------------------------------------------------------------------
    # Public solves
    # ------------------------------------------------------------------

    def solve(self, current=0.0, *, check_definite=False):
        """Temperatures (Kelvin) at supply current ``current``.

        Solves against the steady power vector ``p(i)``; only
        physically meaningful on the unshifted view (shifted views
        answer transient systems whose right-hand side carries the
        state — use :meth:`solve_rhs` there).

        Parameters
        ----------
        current:
            TEC supply current in amperes.
        check_definite:
            When True, verify that the system matrix is positive
            definite before solving and raise
            :class:`SingularSystemError` if it is not (i.e. the current
            exceeds ``lambda_m``).  The optimizer keeps currents inside
            ``[0, lambda_m)`` itself, so the check is off by default.
        """
        current = float(current)
        if check_definite and not cholesky_is_spd(self._matrix(current)):
            raise SingularSystemError(
                "G - i D is not positive definite at i = {} A "
                "(current at/beyond the runaway limit)".format(current)
            )
        self.stats.solves += 1
        cached = self._cache_get(self._solution_cache, current)
        if cached is not None:
            self.stats.solution_hits += 1
            return cached.copy()
        if self.effective_mode == "reuse":
            theta = self._reuse_solve_power(current)
        else:
            theta = self._apply_inverse(current, self.system.power_vector(current))
        if not np.all(np.isfinite(theta)):
            raise SingularSystemError(
                "solve produced non-finite temperatures at i = {} A".format(current)
            )
        self._cache_put(self._solution_cache, current, theta.copy())
        return theta

    def solve_rhs(self, current, rhs):
        """Solve ``(S + G - i D) x = rhs`` for arbitrary right-hand sides.

        ``rhs`` may be a length-``n`` vector or an ``(n, k)`` matrix of
        ``k`` independent right-hand sides solved in one batched pass
        against the shared factorization (one BLAS-3 call in reuse
        mode).
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.system.num_nodes:
            raise ValueError(
                "rhs has length {}, system has {} nodes".format(
                    rhs.shape[0], self.system.num_nodes
                )
            )
        self.stats.solves += 1
        return self._apply_inverse(float(current), rhs)

    def solve_batch(self, currents, loads=None):
        """Batched solves across currents (and scenarios) in one call.

        The BLAS-3 kernel of the engine: ``k`` solve requests —
        column ``j`` asking for ``(S + G - i_j D)^{-1} b_j`` — are
        answered as stacked multi-RHS triangular solves instead of
        ``k`` independent vector solves.

        Parameters
        ----------
        currents:
            Sequence of ``k`` supply currents, one per column.
        loads:
            Optional ``(n, k)`` right-hand-side block, column ``j``
            paired with ``currents[j]``.  When omitted, every column
            solves against the steady power vector ``p(i_j)`` — the
            classic multi-current operating-point batch — and each
            column is answered through (and feeds) the per-current
            solution cache, so a batched solve is bit-identical to the
            serial :meth:`solve` loop.

        With explicit ``loads``, columns sharing an exact float
        current are grouped into one multi-RHS solve against that
        current's factorization; in ``reuse`` mode the *entire* block
        additionally rides a single stacked base solve
        ``(S + G)^{-1} loads`` before the per-group condensed
        corrections (one ``m x m`` factor and one stacked lift solve
        per distinct current).

        Returns
        -------
        BatchResult
            ``(n, k)`` stacked solutions plus per-column records; the
            empty batch returns an ``(n, 0)`` block and no columns.
        """
        currents = [float(current) for current in currents]
        k = len(currents)
        n = self.system.num_nodes
        batch_before = self.stats.copy()
        temperatures = np.empty((n, k), dtype=float)
        columns = []
        if loads is None:
            for j, current in enumerate(currents):
                before = self.stats.copy()
                theta = self.solve(current)
                temperatures[:, j] = theta
                delta = self.stats.diff(before)
                columns.append(BatchColumn(
                    index=j,
                    current=current,
                    peak_k=float(theta.max()) if n else 0.0,
                    solution_hit=delta.solution_hits > 0,
                    grouped=1,
                    stats=delta.as_dict(),
                ))
        else:
            loads = np.asarray(loads, dtype=float)
            if loads.ndim != 2 or loads.shape != (n, k):
                raise ValueError(
                    "loads must have shape ({}, {}), got {}".format(
                        n, k, loads.shape
                    )
                )
            groups = OrderedDict()
            for j, current in enumerate(currents):
                groups.setdefault(current, []).append(j)
            base_block = None
            if self.effective_mode == "reuse" and k:
                # One stacked triangular solve answers the base part of
                # every column; the per-current work left is the
                # condensed correction of each group.
                lu = self._base_factorization()
                base_block = self._timed_lu_solve(lu, loads)
            for current, members in groups.items():
                before = self.stats.copy()
                if base_block is not None:
                    self.stats.solves += 1
                    block = self._current_correct(
                        current, base_block[:, members]
                    )
                else:
                    block = self.solve_rhs(current, loads[:, members])
                delta = self.stats.diff(before).as_dict()
                for position, j in enumerate(members):
                    temperatures[:, j] = block[:, position]
                    columns.append(BatchColumn(
                        index=j,
                        current=current,
                        peak_k=float(block[:, position].max()) if n else 0.0,
                        solution_hit=False,
                        grouped=len(members),
                        stats=delta,
                    ))
            columns.sort(key=lambda column: column.index)
        return BatchResult(
            temperatures=temperatures,
            columns=tuple(columns),
            currents=tuple(currents),
            stats=self.stats.diff(batch_before).as_dict(),
        )

    def reduced(self, *, dim=None, tol_kelvin=None, check_every=None,
                max_dim=None):
        """The view's shared reduced-order model for a ROM request.

        Builds (once) and returns a
        :class:`~repro.linalg.mor.ReducedModel` — a block-Arnoldi
        moment-matched reduction of this view's backward-Euler system
        with a certified a-posteriori error bound; see the
        ``repro.linalg.mor`` module docstring.  Models are cached on
        the exact ``(dim, tol_kelvin, check_every, max_dim)`` request,
        alongside (and ride on) the view's factorization caches: the
        basis build and every certification anchor and enrichment
        restart go through :meth:`solve_rhs`, so the model inherits the
        session's backend.  Only shifted (transient) views can be
        reduced.  Traces step a shared model through
        :class:`~repro.linalg.mor.ReducedTransient`.
        """
        from repro.linalg import mor

        if self._shift is None:
            raise ValueError(
                "only shifted (transient) views can be reduced; the "
                "steady-state view has no capacitance"
            )
        key = (
            int(dim) if dim is not None else mor.DEFAULT_ROM_DIM,
            float(tol_kelvin) if tol_kelvin is not None
            else mor.DEFAULT_ROM_TOL_K,
            int(check_every) if check_every is not None
            else mor.DEFAULT_CHECK_EVERY,
            int(max_dim) if max_dim is not None else None,
        )
        model = self._reduced_cache.get(key)
        if model is None:
            model = mor.ReducedModel(
                self,
                dim=key[0],
                tol_kelvin=key[1],
                check_every=key[2],
                max_dim=key[3],
            )
            self._reduced_cache[key] = model
        return model

    def solve_diagonal(self, diagonal, rhs):
        """Solve ``(S + G - diag(d)) x = rhs`` for a per-node diagonal.

        Generalizes the shared-current form ``i D`` to an arbitrary
        Peltier diagonal ``d`` — the multi-pin engine's per-device
        currents stamp ``alpha_j i_j`` entries here.  Factorizations
        are keyed on the exact bytes of ``d``.  In ``reuse`` mode a
        diagonal on the Peltier support (true for any per-device
        current vector) rides the condensed engine with ``d_S`` in
        place of ``i d_S``; diagonals outside the support fall back to
        a direct factorization.
        """
        d = np.ascontiguousarray(np.asarray(diagonal, dtype=float))
        if d.shape != (self.system.num_nodes,):
            raise ValueError(
                "diagonal must have length {}, got shape {}".format(
                    self.system.num_nodes, d.shape
                )
            )
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.system.num_nodes:
            raise ValueError(
                "rhs has length {}, system has {} nodes".format(
                    rhs.shape[0], self.system.num_nodes
                )
            )
        self.stats.solves += 1
        mode = self.effective_mode
        if mode == "mg":
            # The zero diagonal routes through mg too: the hierarchy
            # *is* this view's base solver, so no base LU is built.
            return self._diag_mg(d if np.any(d) else None, rhs)
        if not np.any(d):
            return self._timed_lu_solve(self._base_factorization(), rhs)
        if mode == "reuse":
            return self._diag_reuse(d, rhs)
        return self._diag_direct(d, rhs)

    def _diag_direct(self, d, rhs):
        key = d.tobytes()
        lu = self._cache_get(self._diag_lu_cache, key)
        if lu is None:
            self.stats.cache_misses += 1
            lu = self._splu(self._diagonal_matrix(d), "per-device currents")
            self._cache_put(self._diag_lu_cache, key, lu)
        else:
            self.stats.cache_hits += 1
        return self._timed_lu_solve(lu, rhs)

    def _diag_reuse(self, d, rhs):
        """Per-device diagonal on the support: a Cholesky of
        ``C_S - diag(d_S)``, only the most recent one kept."""
        lu = self._base_factorization()
        d_support = d[self._support]
        if not np.any(d_support) or np.any(np.delete(d, self._support)):
            # Not a TEC diagonal: answer it exactly with a direct
            # factorization.
            return self._diag_direct(d, rhs)
        key = d.tobytes()
        if self._last_factor is not None and self._last_factor[0] == key:
            self.stats.cache_hits += 1
        else:
            self.stats.cache_misses += 1
            self.stats.condensed_factorizations += 1
            inverse = self.condensed().diagonal_inverse(d_support)
            if inverse is None:
                raise SingularSystemError(
                    "C_S - diag(d_S) is not positive definite for these "
                    "per-device currents (at/beyond the runaway limit)"
                )
            self._last_factor = (key, inverse)
        x = self._timed_lu_solve(lu, rhs)
        return self.condensed().solve(self._last_factor[1], d_support, x)

    def influence_rows(self, current, node_indices):
        """Rows of ``H = (S + G - i D)^{-1}`` for the given nodes.

        Because the system matrix is symmetric, row ``k`` equals the
        solution of ``(S + G - i D) h = e_k``.  Returns an array of
        shape ``(len(node_indices), n)``; all columns share one
        factorization (batched multi-RHS solve).
        """
        n = self.system.num_nodes
        node_indices = list(node_indices)
        rhs = np.zeros((n, len(node_indices)))
        for j, k in enumerate(node_indices):
            rhs[int(k), j] = 1.0
        return self.solve_rhs(current, rhs).T

    def solver_state_bytes(self):
        """Deterministic byte count of the view's live solver state.

        Sums everything the backend holds beyond the assembled system
        (which every backend shares): sparse factor fill at 12
        bytes/nonzero (8 of value + ~4 of index, including the CSC copy
        of ``U`` that reading ``C_S`` leaves cached on the factor), the
        dense ``C_S`` block and the most recent ``m x m`` factor, the
        blocked power pair, and the multigrid hierarchy's coarse
        operators, transfers and stencil.
        A *deterministic* proxy rather than an RSS probe on purpose —
        ``tracemalloc`` cannot see SuperLU's C-heap allocations, so the
        backend benchmarks compare this accounting instead.
        """
        total = 0
        for lu in list(self._lu_cache.values()) + list(
            self._diag_lu_cache.values()
        ):
            total += _factor_bytes(lu)
        if self._base_lu is not None:
            total += _factor_bytes(self._base_lu)
        if self._pencil is not None:
            total += self._pencil.nbytes
            if self._last_factor is not None:
                # The per-device Cholesky factor is one more m x m block.
                total += self._pencil.schur.nbytes
        if self._x_pair is not None:
            total += self._x_pair.nbytes
        if self._mg is not None:
            total += self._mg.operator_bytes()
        return total


def _factor_bytes(factor):
    """12 bytes per stored factor nonzero (value + compressed index).

    The engine's factors expose their fill as ``.nnz`` (``L + U``
    nonzeros of the SuperLU handle).  A solve object without ``nnz``
    counts zero.
    """
    nnz = getattr(factor, "nnz", None)
    return int(nnz) * 12 if nnz is not None else 0


class SolveSession:
    """Shared solve engine over one assembled system.

    Owns the assembled system, the backend resolution and the
    (optionally shared) :class:`SolverStats`, and hands out
    :class:`SessionView` objects per diagonal shift.  Views are
    cached on the exact bytes of the shift vector, so every consumer
    asking for the same ``C / dt`` diagonal shares one set of
    factorizations — the transient integrator and the closed control
    loop literally hit each other's cache entries.

    Parameters
    ----------
    system:
        An :class:`~repro.thermal.assembly.AssembledSystem`.
    mode:
        One of :data:`SOLVER_MODES` — ``"direct"``, ``"reuse"``,
        ``"mg"``, or ``"auto"`` (resolved once per session by
        :func:`select_backend`; see :attr:`effective_mode`).
    cache_size:
        Default per-view LRU capacity (see :class:`SessionView`).
    stats:
        Optional shared :class:`SolverStats`; a private one is created
        when omitted.
    """

    def __init__(self, system, *, mode="direct", cache_size=8, stats=None):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1, got {}".format(cache_size))
        if mode not in SOLVER_MODES:
            raise ValueError(
                "mode must be one of {}, got {!r}".format(SOLVER_MODES, mode)
            )
        self.system = system
        self.mode = mode
        self.stats = stats if stats is not None else SolverStats()
        self.cache_size = cache_size
        self._resolved_mode = None
        self._views = {}
        # Aggregation plan shared across this session's hierarchies
        # (plain integer arrays — pickles with the session, so forked
        # workers re-Galerkin without re-aggregating).
        self._mg_plan = None

    @property
    def effective_mode(self):
        """The backend answering solves (``auto`` resolved per system)."""
        if self._resolved_mode is None:
            if self.mode == "auto":
                support = int(np.count_nonzero(self.system.d_diagonal))
                self._resolved_mode = select_backend(
                    self.system.num_nodes, support
                )
            else:
                self._resolved_mode = self.mode
        return self._resolved_mode

    def view(self, shift=None, *, cache_size=None):
        """The session's view for a diagonal shift (cached).

        ``shift`` is a dense length-``n`` vector (e.g. ``C / dt``) or
        None for the steady-state view.  Views are keyed on the exact
        bytes of the shift, so equal shifts share one view — and one
        set of factorizations.  A larger ``cache_size`` request grows
        an existing view's LRU capacity (it never shrinks).
        """
        if shift is None:
            key = None
        else:
            shift = np.ascontiguousarray(np.asarray(shift, dtype=float))
            if shift.shape != (self.system.num_nodes,):
                raise ValueError(
                    "shift must have length {}, got shape {}".format(
                        self.system.num_nodes, shift.shape
                    )
                )
            key = shift.tobytes()
        view = self._views.get(key)
        if view is None:
            view = SessionView(
                self,
                shift,
                cache_size if cache_size is not None else self.cache_size,
            )
            self._views[key] = view
        elif cache_size is not None and cache_size > view._cache_size:
            view._cache_size = int(cache_size)
        return view

    def base_view(self):
        """The unshifted (steady-state) view."""
        return self.view(None)

    @property
    def num_views(self):
        """Distinct shifts this session has handed out views for."""
        return len(self._views)

    def cache_info(self):
        """Aggregate cache occupancy across every view (plain data).

        Counts live entries, not capacity: sparse factors (``direct``
        mode and the per-view base factorization), the
        per-device ``m x m`` factor a reuse view holds, cached solution
        vectors, and arbitrary-diagonal entries.  Serve-pool eviction
        decisions and the ``/stats`` endpoint read this snapshot.
        """
        info = {
            "views": len(self._views),
            "lu_entries": 0,
            "base_factorizations": 0,
            "condensed_entries": 0,
            "solution_entries": 0,
            "diagonal_entries": 0,
            "reduced_entries": 0,
            "mg_hierarchies": 0,
        }
        for view in self._views.values():
            info["lu_entries"] += len(view._lu_cache)
            info["base_factorizations"] += 1 if view._base_lu is not None else 0
            info["condensed_entries"] += 1 if view._last_factor is not None else 0
            info["solution_entries"] += len(view._solution_cache)
            info["diagonal_entries"] += len(view._diag_lu_cache)
            info["reduced_entries"] += len(view._reduced_cache)
            info["mg_hierarchies"] += 1 if view._mg is not None else 0
        return info

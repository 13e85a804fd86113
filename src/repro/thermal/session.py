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
solver mode, the Krylov knobs and the :class:`SolverStats`
instrumentation, and hands out one :class:`SessionView` per distinct
diagonal shift ``S``.  Each view carries the full factorization
machinery of the engine:

* a true-LRU cache of sparse LU factors keyed on *(shift, current)* —
  the shift selects the view, the exact float current the entry;
* the blocked-Woodbury ``reuse`` backend (one sparse LU of ``S + G``
  per view, dense capacitance factorizations per current);
* the ``(S + G)``-preconditioned Krylov backend with automatic direct
  fallback;
* per-view solution caches and the arbitrary-diagonal solves of
  :meth:`SessionView.solve_diagonal`.

Consumers share sessions instead of carrying private ``splu`` calls:
the steady solver *is* the session's zero-shift view
(:class:`~repro.thermal.solve.SteadyStateSolver` subclasses
:class:`SessionView`), the transient integrator and the closed control
loop share the ``C / dt`` view (so a control trace's per-quantized-
current factorizations become cache hits with real LRU eviction), and
the multi-pin optimizer routes its per-device-current solves through
:meth:`SessionView.solve_diagonal`.

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
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

from repro.linalg.cholesky import NotPositiveDefiniteError, spd_factorize
from repro.linalg.krylov import KRYLOV_METHODS, krylov_solve
from repro.linalg.spd import cholesky_is_spd

#: Engine modes accepted by :class:`SolveSession` (and by
#: :class:`~repro.thermal.solve.SteadyStateSolver`).  ``cholesky``
#: behaves exactly like ``direct`` (one factorization per current,
#: LRU-cached) but factors the SPD matrix with
#: :func:`repro.linalg.cholesky.spd_factorize` — CHOLMOD when
#: scikit-sparse is installed, a symmetric-mode SuperLU otherwise.
#: ``mg`` runs multigrid-preconditioned CG: one geometric hierarchy is
#: built per view from the current-independent base ``S + G`` (see
#: :mod:`repro.linalg.multigrid`) and the Peltier term ``- i D`` is
#: applied as a matrix-free diagonal correction on the fine level, so
#: every current, round and scenario reuses the same hierarchy.
SOLVER_MODES = ("direct", "reuse", "krylov", "cholesky", "mg", "auto")

#: ``auto`` keeps the Woodbury ``reuse`` backend up to this support
#: size regardless of the node count (the dense capacitance is trivial
#: below it).
AUTO_SUPPORT_FLOOR = 64

#: ``auto`` switches to ``krylov`` once the Peltier support exceeds
#: ``AUTO_SUPPORT_COEFF * sqrt(num_nodes)``: past that point the
#: ``O((2m)^3)`` capacitance factorization outweighs the ~constant
#: iteration count of the preconditioned Krylov solve.
AUTO_SUPPORT_COEFF = 4.0

#: ``auto`` switches to the geometric-multigrid backend once the
#: system reaches this node count, regardless of support: past it the
#: assembled factorizations' superlinear fill (memory *and* time)
#: loses to the O(n) hierarchy — the 128x128 package (~66k nodes)
#: stays on the factorized backends, 256x256 (~262k nodes) goes mg.
MG_NODE_CROSSOVER = 150_000

#: Relative threshold below which the Woodbury capacitance is treated
#: as singular (current at/beyond the runaway limit ``lambda_m``).
_CAPACITANCE_RCOND = 1.0e-12

#: Capacitance solves at an unfactorized current may be answered by
#: iterative refinement against the nearest cached factorization —
#: exact on convergence (machine-precision residual), falling back to
#: a fresh factorization otherwise.  Only worthwhile once the support
#: is large enough that a factorization (``m^3/3``) clearly dominates
#: a handful of refinement sweeps (``~3 m^2`` each).
_CAP_REFINE_MIN_SUPPORT = 64

#: Relative residual demanded of a refined capacitance solve.
_CAP_REFINE_RTOL = 1.0e-13

#: Refinement sweep budget; the attempt also aborts as soon as one
#: sweep fails to halve the residual, so a poorly matched anchor
#: current costs only ~2 sweeps before the factorization fallback.
_CAP_REFINE_MAX_ITERATIONS = 15


def select_backend(num_nodes, support_size):
    """The ``auto`` heuristic: ``"reuse"``, ``"krylov"`` or ``"mg"``.

    Chooses the blocked-Woodbury ``reuse`` backend while the Peltier
    support (``2 m`` for ``m`` deployed TECs) is small — at most
    ``max(AUTO_SUPPORT_FLOOR, AUTO_SUPPORT_COEFF * sqrt(n))`` — and
    the G-preconditioned ``krylov`` backend beyond, where the dense
    ``support x support`` capacitance factorization would dominate.
    From :data:`MG_NODE_CROSSOVER` nodes on, every assembled
    factorization (including the krylov backend's base LU
    preconditioner) is superlinear in fill, so the choice flips to the
    matrix-free ``mg`` backend independent of support.
    """
    if num_nodes >= MG_NODE_CROSSOVER:
        return "mg"
    limit = max(AUTO_SUPPORT_FLOOR, AUTO_SUPPORT_COEFF * math.sqrt(num_nodes))
    return "reuse" if support_size <= limit else "krylov"


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
        Sparse LU factorizations performed (``splu`` calls).
    cap_factorizations:
        Dense Woodbury capacitance-matrix factorizations (reuse mode;
        ``2m x 2m``, orders of magnitude cheaper than a sparse LU).
    cap_refinements / cap_refine_failures:
        Capacitance solves answered by iterative refinement against a
        nearby cached factorization instead of a fresh one, and
        attempts that aborted (slow convergence) and fell back.
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
    krylov_solves / krylov_iterations:
        Iterative (krylov-backend) solve calls and their total matrix
        applications.
    krylov_fallbacks:
        Krylov solves whose residual missed the target and fell back
        to a direct per-current LU.
    mg_hierarchies:
        Multigrid hierarchies built (``mg`` backend; one per view and
        process — the acceptance tests assert a multi-current solve
        sequence builds exactly one).
    mg_solves / mg_cycles:
        ``mg``-backend solve calls and the total multigrid cycles they
        spent (one V-cycle per preconditioned CG iteration).
    mg_fallbacks:
        ``mg`` solves whose residual missed the target and fell back
        to a direct per-current LU.
    factor_time_s / solve_time_s:
        Cumulative wall time in factorization and in solves.
    full_builds / incremental_builds:
        Package networks built from scratch vs replayed from a cached
        :class:`~repro.thermal.assembly.NetworkBlueprint`.
    assembly_time_s:
        Cumulative wall time building networks and assembling matrices.
    """

    factorizations: int = 0
    cap_factorizations: int = 0
    cap_refinements: int = 0
    cap_refine_failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    solves: int = 0
    rhs_columns: int = 0
    solution_hits: int = 0
    krylov_solves: int = 0
    krylov_iterations: int = 0
    krylov_fallbacks: int = 0
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
            "{} LU + {} cap factorizations, {} solves ({} rhs cols), "
            "cache {}/{} hit ({:.0f}%), {} evictions, "
            "builds {} full + {} incremental".format(
                self.factorizations,
                self.cap_factorizations,
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
        if self.krylov_solves:
            line += ", krylov {} solves / {} iters / {} fallbacks".format(
                self.krylov_solves, self.krylov_iterations, self.krylov_fallbacks
            )
        if self.mg_solves or self.mg_hierarchies:
            line += ", mg {} hierarchies / {} solves / {} cycles / {} fallbacks".format(
                self.mg_hierarchies, self.mg_solves, self.mg_cycles,
                self.mg_fallbacks,
            )
        if self.cap_refinements or self.cap_refine_failures:
            line += ", cap refine {} ok / {} fallback".format(
                self.cap_refinements, self.cap_refine_failures
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
    shift, shared by every consumer requesting the same shift — except
    the zero-shift view, which is the model's
    :class:`~repro.thermal.solve.SteadyStateSolver` itself.

    Parameters
    ----------
    session:
        The owning :class:`SolveSession`.
    shift:
        Additive diagonal ``S`` as a dense length-``n`` vector, or
        None for the unshifted steady-state system.
    cache_size:
        Number of per-current cache entries kept (true LRU): LU
        factorizations in ``direct`` mode, dense capacitance
        factorizations in ``reuse`` mode, and solved temperature
        vectors in both.  Keys are exact float currents — see the
        module docstring.
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
        # Reuse/krylov shared state, built lazily on first solve.
        self._base_lu = None
        self._support = None
        self._d_support = None
        self._w = None
        self._z = None
        self._zd_matrix = None
        self._x_pair = None
        self._cap_cache = OrderedDict()
        # Arbitrary-diagonal machinery (multi-pin solves); kept apart
        # from the float-keyed scalar caches so the refinement anchor
        # search never mixes key types.
        self._diag_lu_cache = OrderedDict()
        self._diag_cap_cache = OrderedDict()
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
        self._krylov_method = session.krylov_method
        self._krylov_rtol = session.krylov_rtol
        self._krylov_maxiter = session.krylov_maxiter
        self._krylov_restart = session.krylov_restart

    def __getstate__(self):
        """Pickle support: drop live factorization handles.

        ``splu`` factors wrap SuperLU objects that cannot be pickled
        and must not be shared across a ``fork``/spawn boundary (the
        serve layer's process-pool tier and any sweep worker that
        receives a warmed problem would otherwise crash).  Everything
        derived from a factorization — LU caches, the Woodbury
        influence block, solution caches, shifted-matrix scratch — is
        dropped here and rebuilt lazily on first solve in the new
        process.  Plain state (shift vector, cache capacity, Krylov
        knobs, the shared stats object) survives the round trip, so an
        unpickled view answers bit-identical solves; pinned by
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
        state["_w"] = None
        state["_z"] = None
        state["_zd_matrix"] = None
        state["_x_pair"] = None
        state["_cap_cache"] = OrderedDict()
        state["_diag_lu_cache"] = OrderedDict()
        state["_diag_cap_cache"] = OrderedDict()
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
        choice between ``"reuse"``, ``"krylov"`` and ``"mg"`` is made
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
    # Direct mode: one sparse LU per current
    # ------------------------------------------------------------------

    def _splu(self, matrix, label):
        """Factor a sparse system matrix through the mode's kernel.

        The single factorization seam of the engine: per-current
        matrices, the shared base matrix and arbitrary-diagonal
        matrices all pass through here.  ``cholesky`` mode swaps the
        general sparse LU for the SPD factorization of
        :func:`repro.linalg.cholesky.spd_factorize`; an indefinite
        matrix (current at/beyond ``lambda_m``) surfaces as the same
        :class:`SingularSystemError` the other backends raise.
        """
        start = time.perf_counter()
        try:
            if self.effective_mode == "cholesky":
                lu = spd_factorize(matrix.tocsc())
            else:
                lu = splu(matrix.tocsc())
        except (RuntimeError, NotPositiveDefiniteError) as error:
            raise SingularSystemError(
                "system matrix singular at {} (at/beyond runaway)".format(label)
            ) from error
        finally:
            self.stats.factor_time_s += time.perf_counter() - start
        self.stats.factorizations += 1
        return lu

    def _factorization(self, current):
        """The per-current LU, LRU-cached on the exact float ``current``
        (no quantization — see the module docstring)."""
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
    # Reuse mode: factorize S + G once, blocked Woodbury per current
    # ------------------------------------------------------------------

    def _base_factorization(self):
        """The shared sparse LU of ``S + G`` (reuse preconditioner too)."""
        if self._base_lu is None:
            self._base_lu = self._splu(self._base_matrix(), "i = 0.0 A")
            support = np.flatnonzero(self.system.d_diagonal)
            self._support = support
            self._d_support = self.system.d_diagonal[support]
        return self._base_lu

    def base_factorization(self):
        """The base factorization of ``S + G`` (public accessor).

        Builds it on first call (reuse/krylov machinery).  The returned
        object answers ``.solve(rhs)`` for 1-D or ``(n, k)`` right-hand
        sides; the incremental deployment engine anchors its
        cross-round bordered solves on it.
        """
        return self._base_factorization()

    def adopt_base(self, base_solve):
        """Inject an external base-``G`` solve (cross-round reuse).

        ``base_solve`` must answer ``.solve(rhs)`` with ``G^{-1} rhs``
        for this solver's assembled system — e.g. a
        :class:`~repro.thermal.border.BorderedDeployContext` view that
        expresses this round's ``G`` as a bordered low-rank update of
        an earlier round's factorization.  A reuse-mode round seeded
        this way performs **zero** new sparse LU factorizations: the
        influence block ``W``, the base power pair and every Woodbury
        correction ride the adopted solve.

        Only meaningful on the unshifted view, in (effective) ``reuse``
        mode, and before the view has built its own base factorization.
        """
        if self._shift is not None:
            raise RuntimeError(
                "adopt_base is only available on the unshifted (steady) view"
            )
        if self.effective_mode != "reuse":
            raise RuntimeError(
                "adopt_base requires the 'reuse' backend, solver is {!r}".format(
                    self.effective_mode
                )
            )
        if self._base_lu is not None:
            raise RuntimeError("base factorization already built; cannot adopt")
        if not hasattr(base_solve, "solve"):
            raise TypeError("base_solve must expose a .solve(rhs) method")
        self._base_lu = base_solve
        support = np.flatnonzero(self.system.d_diagonal)
        self._support = support
        self._d_support = self.system.d_diagonal[support]

    def influence_block(self):
        """``(support, d_support, w, z)`` of the Woodbury engine.

        Forces the base factorization and the batched influence build
        (reuse-mode machinery) and returns the Peltier support indices,
        the support diagonal, the influence columns ``W = G^{-1} I_S``
        and ``Z = W[support]``.  The runaway eigensolve
        (:func:`~repro.linalg.runaway.runaway_current_eigen`, reached
        through :meth:`PackageThermalModel.runaway_current
        <repro.thermal.model.PackageThermalModel.runaway_current>` and
        the incremental deployment engine) reads ``lambda_m`` and its
        eigenvector off this block with zero additional factorizations.
        """
        self._ensure_influence()
        if self._support.size == 0:
            empty = np.zeros((self.system.num_nodes, 0))
            return self._support, self._d_support, empty, np.zeros((0, 0))
        return self._support, self._d_support, self._w, self._z

    def _ensure_influence(self):
        """Batch-solve the Woodbury influence block ``W = G^{-1} I_S``.

        Deferred past :meth:`_base_factorization` so the krylov
        backend — which shares the base LU but never forms ``W`` —
        does not pay the ``O(n * 2m)`` memory and solve cost of the
        dense influence block on dense deployments.
        """
        lu = self._base_factorization()
        if self._w is None and self._support.size:
            rhs = np.zeros((self.system.num_nodes, self._support.size))
            rhs[self._support, np.arange(self._support.size)] = 1.0
            self._w = self._timed_lu_solve(lu, rhs)
            self._z = self._w[self._support, :]

    def _base_pair(self):
        """``G^{-1} [p_base, joule]`` — the blocked power solves.

        ``p(i) = p_base + i^2 joule`` is linear in ``(1, i^2)``, so
        this single two-column solve answers the base part of *every*
        per-current power solve; :meth:`solve` in reuse mode then pays
        only the dense Woodbury correction per current.
        """
        lu = self._base_factorization()
        if self._x_pair is None:
            rhs = np.column_stack([self.system.p_base, self.system.joule])
            self._x_pair = self._timed_lu_solve(lu, rhs)
        return self._x_pair

    def _capacitance(self, current):
        """LU factors of ``I - i d Z`` for the Woodbury correction.

        Cached per exact float current (LRU).  Raises
        :class:`SingularSystemError` when the capacitance is singular
        to working precision — ``I - i d Z`` is singular exactly when
        ``G - i D`` is, i.e. at the runaway current ``lambda_m``.
        """
        factors = self._cache_get(self._cap_cache, current)
        if factors is None:
            self.stats.cache_misses += 1
            size = self._support.size
            cap = np.eye(size) - current * self._zd()
            factors = self._cap_factorize(
                cap, "i = {} A".format(current)
            )
            self._cache_put(self._cap_cache, current, factors)
        else:
            self.stats.cache_hits += 1
        return factors

    def _cap_factorize(self, cap, label):
        """Dense-factorize a Woodbury capacitance with singularity guard."""
        factors = scipy.linalg.lu_factor(cap, check_finite=False)
        self.stats.cap_factorizations += 1
        u_diag = np.abs(np.diag(factors[0]))
        if not np.all(np.isfinite(u_diag)) or (
            u_diag.min() <= _CAPACITANCE_RCOND * max(u_diag.max(), 1.0)
        ):
            raise SingularSystemError(
                "Woodbury capacitance singular at {} "
                "(current at/beyond the runaway limit)".format(label)
            )
        return factors

    def _zd(self):
        """The dense ``diag(d_S) Z`` block (built once, reused by every
        capacitance assembly and refinement residual)."""
        if self._zd_matrix is None:
            self._zd_matrix = self._d_support[:, None] * self._z
        return self._zd_matrix

    def _cap_solve(self, current, rhs):
        """Solve ``(I - i d Z) y = rhs``, preferring cached work.

        Order of preference: an exact cached factorization at this
        current; iterative refinement against the *nearest* cached
        factorization (exact to ``_CAP_REFINE_RTOL`` on success —
        Problem 2 searches and shift-invert iterations evaluate
        tightly clustered currents, where refinement converges in a
        couple of ``m^2`` sweeps instead of a fresh ``m^3/3``
        factorization); a fresh factorization otherwise.
        """
        factors = self._cache_get(self._cap_cache, current)
        if factors is not None:
            self.stats.cache_hits += 1
            return scipy.linalg.lu_solve(factors, rhs, check_finite=False)
        if self._cap_cache and self._support.size >= _CAP_REFINE_MIN_SUPPORT:
            anchor = min(self._cap_cache, key=lambda cached: abs(cached - current))
            refined = self._cap_refine(current, anchor, rhs)
            if refined is not None:
                self.stats.cap_refinements += 1
                return refined
            self.stats.cap_refine_failures += 1
        factors = self._capacitance(current)
        return scipy.linalg.lu_solve(factors, rhs, check_finite=False)

    def _cap_refine(self, current, anchor, rhs):
        """Iterative refinement of a capacitance solve at ``current``
        against the cached factorization at ``anchor``.

        Returns the solution once the relative residual reaches
        ``_CAP_REFINE_RTOL``, or None when a sweep fails to halve the
        residual (anchor too far, or current near runaway) — the
        caller then pays a fresh factorization, so accuracy never
        degrades.
        """
        factors = self._cap_cache[anchor]
        zd = self._zd()
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return np.zeros_like(rhs)
        start = time.perf_counter()
        solution = scipy.linalg.lu_solve(factors, rhs, check_finite=False)
        previous = math.inf
        outcome = None
        for _ in range(_CAP_REFINE_MAX_ITERATIONS):
            residual = rhs - solution + current * (zd @ solution)
            residual_norm = float(np.linalg.norm(residual))
            if residual_norm <= _CAP_REFINE_RTOL * rhs_norm:
                outcome = solution
                break
            if not math.isfinite(residual_norm) or residual_norm >= 0.5 * previous:
                break
            previous = residual_norm
            solution = solution + scipy.linalg.lu_solve(
                factors, residual, check_finite=False
            )
        self.stats.solve_time_s += time.perf_counter() - start
        return outcome

    def _woodbury_correct(self, current, x):
        """Apply the low-rank correction turning ``(S+G)^{-1} b`` into
        ``(S + G - i D)^{-1} b`` (``x`` may be 1-D or a column block)."""
        if current == 0.0 or self._support.size == 0:
            return x
        self._ensure_influence()
        x_support = x[self._support]
        small = self._cap_solve(
            current, current * (self._d_support * x_support.T).T
        )
        return x + self._w @ small

    def _apply_reuse(self, current, rhs):
        lu = self._base_factorization()
        x = self._timed_lu_solve(lu, rhs)
        return self._woodbury_correct(current, x)

    def _reuse_solve_power(self, current):
        """Reuse-mode fast path for the power vector: zero triangular
        solves per current thanks to the blocked base pair."""
        pair = self._base_pair()
        if current == 0.0:
            x = pair[:, 0].copy()
        else:
            x = pair[:, 0] + (current * current) * pair[:, 1]
        return self._woodbury_correct(current, x)

    # ------------------------------------------------------------------
    # Krylov mode: (S+G)-preconditioned GMRES/BiCGSTAB per current
    # ------------------------------------------------------------------

    def _apply_krylov(self, current, rhs):
        lu = self._base_factorization()
        if current == 0.0 or self._support.size == 0:
            return self._timed_lu_solve(lu, rhs)
        matrix = self._matrix(current)
        start = time.perf_counter()
        x, report = krylov_solve(
            matrix,
            rhs,
            preconditioner=lu,
            method=self._krylov_method,
            rtol=self._krylov_rtol,
            maxiter=self._krylov_maxiter,
            restart=self._krylov_restart,
        )
        self.stats.solve_time_s += time.perf_counter() - start
        self.stats.krylov_solves += 1
        self.stats.krylov_iterations += report.iterations
        if not report.converged:
            # Residual missed the target (stagnation, near-runaway
            # ill-conditioning, or an exhausted iteration budget):
            # fall back to an exact per-current factorization so the
            # iterative backend never degrades accuracy.
            self.stats.krylov_fallbacks += 1
            return self._apply_direct(current, rhs)
        self.stats.rhs_columns += 1 if rhs.ndim == 1 else rhs.shape[1]
        return x

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

            options = dict(self.session.mg_options or {})
            start = time.perf_counter()
            self._mg = MultigridHierarchy(
                self._base_matrix(),
                geometry=getattr(self.system, "lattice", None),
                plan=self.session._mg_plan,
                **options,
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
            method="cg",
            rtol=self._krylov_rtol,
            maxiter=self._krylov_maxiter,
        )
        self.stats.solve_time_s += time.perf_counter() - start
        self.stats.mg_solves += 1
        self.stats.mg_cycles += hierarchy.cycles - cycles_before
        if not report.converged:
            # Same contract as the krylov backend: accuracy never
            # degrades — stagnation (e.g. at/beyond runaway, where the
            # operator loses definiteness and CG loses its footing)
            # falls back to an exact per-current factorization.
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
        if mode in ("direct", "cholesky"):
            return self._apply_direct(current, rhs)
        if mode == "reuse":
            return self._apply_reuse(current, rhs)
        if mode == "mg":
            return self._apply_mg(current, rhs)
        return self._apply_krylov(current, rhs)

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
        ``(S + G)^{-1} loads`` before the per-group dense Woodbury
        corrections, so the sparse triangular work is one BLAS-3 call
        for the whole batch regardless of how many currents appear.

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
                # every column; the per-current work left is the dense
                # Woodbury correction of each group.
                lu = self._base_factorization()
                base_block = self._timed_lu_solve(lu, loads)
            for current, members in groups.items():
                before = self.stats.copy()
                if base_block is not None:
                    self.stats.solves += 1
                    block = self._woodbury_correct(
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
        are LRU-cached on the exact bytes of ``d``.  In ``reuse`` mode
        the diagonal must be supported on the Peltier support (true
        for any per-device current vector); diagonals outside the
        support fall back to a direct factorization.
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
        if mode == "krylov":
            return self._diag_krylov(d, rhs)
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
        self._ensure_influence()
        if self._support.size == 0:
            # No Peltier support but a non-zero diagonal: not a TEC
            # diagonal — answer it exactly with a direct factorization.
            return self._diag_direct(d, rhs)
        off_support = np.ones(self.system.num_nodes, dtype=bool)
        off_support[self._support] = False
        if np.any(d[off_support]):
            return self._diag_direct(d, rhs)
        lu = self._base_factorization()
        x = self._timed_lu_solve(lu, rhs)
        d_support = d[self._support]
        key = d.tobytes()
        factors = self._cache_get(self._diag_cap_cache, key)
        if factors is None:
            self.stats.cache_misses += 1
            cap = np.eye(self._support.size) - d_support[:, None] * self._z
            factors = self._cap_factorize(cap, "per-device currents")
            self._cache_put(self._diag_cap_cache, key, factors)
        else:
            self.stats.cache_hits += 1
        x_support = x[self._support]
        small = scipy.linalg.lu_solve(
            factors, (d_support * x_support.T).T, check_finite=False
        )
        return x + self._w @ small

    def _diag_krylov(self, d, rhs):
        lu = self._base_factorization()
        matrix = self._diagonal_matrix(d)
        start = time.perf_counter()
        x, report = krylov_solve(
            matrix,
            rhs,
            preconditioner=lu,
            method=self._krylov_method,
            rtol=self._krylov_rtol,
            maxiter=self._krylov_maxiter,
            restart=self._krylov_restart,
        )
        self.stats.solve_time_s += time.perf_counter() - start
        self.stats.krylov_solves += 1
        self.stats.krylov_iterations += report.iterations
        if not report.converged:
            self.stats.krylov_fallbacks += 1
            return self._diag_direct(d, rhs)
        self.stats.rhs_columns += 1 if rhs.ndim == 1 else rhs.shape[1]
        return x

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
        bytes/nonzero (8 of value + ~4 of index), the dense Woodbury
        influence/capacitance blocks, the blocked power pair, and the
        multigrid hierarchy's coarse operators, transfers and stencil.
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
        for block in (self._w, self._z, self._zd_matrix, self._x_pair):
            if block is not None:
                total += block.nbytes
        for factors in list(self._cap_cache.values()) + list(
            self._diag_cap_cache.values()
        ):
            total += factors[0].nbytes + factors[1].nbytes
        if self._mg is not None:
            total += self._mg.operator_bytes()
        return total


def _factor_bytes(factor):
    """12 bytes per stored factor nonzero (value + compressed index).

    Both factor kinds the engine produces expose their fill: SuperLU
    handles via ``.nnz`` (L + U nonzeros) and
    :class:`~repro.linalg.cholesky.CholeskyFactor` via its ``nnz``
    slot.  Adopted bordered solves (no ``nnz``) count zero — their
    memory belongs to the donor round.
    """
    nnz = getattr(factor, "nnz", None)
    return int(nnz) * 12 if nnz is not None else 0


class SolveSession:
    """Shared solve engine over one assembled system.

    Owns the assembled system, the solver-mode resolution, the Krylov
    knobs and the (optionally shared) :class:`SolverStats`, and hands
    out :class:`SessionView` objects per diagonal shift.  Views are
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
        ``"krylov"``, ``"cholesky"``, ``"mg"``, or ``"auto"``
        (resolved once per session by :func:`select_backend`; see
        :attr:`effective_mode`).
    cache_size:
        Default per-view LRU capacity (see :class:`SessionView`).
    stats:
        Optional shared :class:`SolverStats`; a private one is created
        when omitted.
    krylov_method / krylov_rtol / krylov_maxiter / krylov_restart:
        Knobs of the iterative backend.  The ``mg`` backend shares
        ``krylov_rtol`` / ``krylov_maxiter`` for its preconditioned CG
        outer iteration (``krylov_method`` / ``krylov_restart`` do not
        apply — mg always runs CG).
    mg_options:
        Optional dict of :class:`~repro.linalg.multigrid.MultigridHierarchy`
        build knobs (``coarse_size``, ``smoother``, ``sweeps``,
        ``cycle_kind``, ...) forwarded verbatim when the ``mg`` backend
        builds a view's hierarchy; ignored by the other modes.
    """

    def __init__(
        self,
        system,
        *,
        mode="direct",
        cache_size=8,
        stats=None,
        krylov_method="gmres",
        krylov_rtol=1.0e-10,
        krylov_maxiter=200,
        krylov_restart=40,
        mg_options=None,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1, got {}".format(cache_size))
        if mode not in SOLVER_MODES:
            raise ValueError(
                "mode must be one of {}, got {!r}".format(SOLVER_MODES, mode)
            )
        if krylov_method not in KRYLOV_METHODS:
            raise ValueError(
                "krylov_method must be one of {}, got {!r}".format(
                    KRYLOV_METHODS, krylov_method
                )
            )
        self.system = system
        self.mode = mode
        self.stats = stats if stats is not None else SolverStats()
        self.cache_size = cache_size
        self.krylov_method = krylov_method
        self.krylov_rtol = float(krylov_rtol)
        self.krylov_maxiter = int(krylov_maxiter)
        self.krylov_restart = int(krylov_restart)
        self.mg_options = dict(mg_options) if mg_options else None
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

    def solve_batch(self, currents, loads=None):
        """Batched steady-state solves — see :meth:`SessionView.solve_batch`.

        Convenience delegate to the unshifted view, so session holders
        (the serve tier's warm pools, the sweep worker) can stack
        requests without first asking for a view.
        """
        return self.base_view().solve_batch(currents, loads)

    @property
    def num_views(self):
        """Distinct shifts this session has handed out views for."""
        return len(self._views)

    def stats_snapshot(self):
        """Plain-dict copy of the session's counters.

        Safe to hand across threads and serialize as-is — the serve
        layer's ``/stats`` endpoint and the session pool report these
        without touching the live (mutable) :class:`SolverStats`.
        """
        return self.stats.as_dict()

    def cache_info(self):
        """Aggregate cache occupancy across every view (plain data).

        Counts live entries, not capacity: sparse LU factors
        (``direct`` mode and the per-view base factorization), dense
        Woodbury capacitance factors, cached solution vectors, and
        arbitrary-diagonal entries.  Serve-pool eviction decisions and
        the ``/stats`` endpoint read this snapshot.
        """
        info = {
            "views": len(self._views),
            "lu_entries": 0,
            "base_factorizations": 0,
            "cap_entries": 0,
            "solution_entries": 0,
            "diagonal_entries": 0,
            "reduced_entries": 0,
            "mg_hierarchies": 0,
        }
        for view in self._views.values():
            info["lu_entries"] += len(view._lu_cache)
            info["base_factorizations"] += 1 if view._base_lu is not None else 0
            info["cap_entries"] += len(view._cap_cache)
            info["solution_entries"] += len(view._solution_cache)
            info["diagonal_entries"] += (
                len(view._diag_lu_cache) + len(view._diag_cap_cache)
            )
            info["reduced_entries"] += len(view._reduced_cache)
            info["mg_hierarchies"] += 1 if view._mg is not None else 0
        return info

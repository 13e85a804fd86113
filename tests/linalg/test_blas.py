"""The one-BLAS-thread guard around sparse solves, runaway reductions,
CG and the condensed pencil's small dense kernels.

:func:`repro.linalg.blas.one_thread` lowers every loaded OpenBLAS to
one thread while such work runs and restores each library's count
afterwards, shared by every thread of the process through one depth
count.  These tests pin the counts inside and after the guard (also
when the body raises, under nesting and from many threads at once),
the size bound for dense kernels, the no-op without OpenBLAS, that the
pencil's ``eigh`` and ``current_inverse`` products run inside it, and
that session solves, runaway quotients and norms and CG's
preconditioner run inside it while factorizations keep two threads.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.linalg import blas, condensed
from repro.linalg.blas import ONE_THREAD_MAX_ORDER, one_thread, openblas_pools
from repro.linalg.krylov import krylov_solve
from repro.linalg.runaway import (
    runaway_current_eigen,
    runaway_current_shift_invert,
)
from repro.thermal import session
from repro.thermal.session import SolveSession

POOLS = openblas_pools()

needs_openblas = pytest.mark.skipif(not POOLS, reason="no OpenBLAS loaded")


def _counts():
    return [get() for get, _ in POOLS]


@pytest.fixture
def two_threads():
    """Every pool at two threads, so a lowered count shows; the
    counts found are put back afterwards."""
    before = _counts()
    for _, put in POOLS:
        put(2)
    yield _counts()
    for (_, put), count in zip(POOLS, before):
        put(count)


def _path_graph(size=24):
    """A path-graph Laplacian (plus a leak) on ``size`` nodes and a
    Peltier diagonal on every other node."""
    g_matrix = sp.diags(
        [-np.ones(size - 1), np.full(size, 2.1), -np.ones(size - 1)],
        [-1, 0, 1], format="csc",
    )
    diagonal = np.where(np.arange(size) % 2 == 0, 0.05, 0.0)
    return g_matrix, diagonal


def _pencil():
    """The pencil of :func:`_path_graph`."""
    return condensed.condense(*_path_graph())


@needs_openblas
class TestCounts:
    def test_one_thread_inside_previous_count_after(self, two_threads):
        with one_thread(8):
            assert _counts() == [1] * len(POOLS)
        assert _counts() == two_threads

    def test_restored_when_the_body_raises(self, two_threads):
        with pytest.raises(RuntimeError, match="kernel failed"):
            with one_thread(8):
                raise RuntimeError("kernel failed")
        assert _counts() == two_threads

    def test_nested_guards_restore_once_at_the_outermost_exit(self, two_threads):
        with one_thread(8):
            with one_thread(16):
                assert _counts() == [1] * len(POOLS)
            assert _counts() == [1] * len(POOLS)
        assert _counts() == two_threads

    def test_large_kernels_keep_their_threads(self, two_threads):
        with one_thread(ONE_THREAD_MAX_ORDER):
            assert _counts() == two_threads
        with one_thread(ONE_THREAD_MAX_ORDER - 1):
            assert _counts() == [1] * len(POOLS)


def test_no_op_without_openblas(monkeypatch):
    def no_maps(*args, **kwargs):
        raise OSError("no /proc")

    monkeypatch.setattr(blas, "open", no_maps, raising=False)
    assert openblas_pools() == []
    monkeypatch.setattr(blas, "_ONE_THREAD", blas._OneThread())
    with one_thread(8):
        pass
    assert blas._ONE_THREAD.pools == [] and blas._ONE_THREAD.depth == 0


@needs_openblas
class TestPencilKernels:
    def test_spectrum_runs_on_one_thread(self, monkeypatch, two_threads):
        seen = []
        eigh = condensed.scipy.linalg.eigh

        def recording_eigh(*args, **kwargs):
            seen.append(_counts())
            return eigh(*args, **kwargs)

        monkeypatch.setattr(condensed.scipy.linalg, "eigh", recording_eigh)
        _pencil().spectrum()
        assert seen == [[1] * len(POOLS)]
        assert _counts() == two_threads

    def test_current_inverse_runs_on_one_thread(self, two_threads):
        seen = []

        class Recording(np.ndarray):
            """Records the counts when a product (a ufunc) reads it."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                seen.append(_counts())
                inputs = [np.asarray(value) for value in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        pencil = _pencil()
        inverse = pencil.current_inverse(0.5 / pencil.top_eigenpair()[0])
        rhs = np.ones((pencil.support.size, 2)).view(Recording)
        inverse(rhs)
        assert seen and all(count == [1] * len(POOLS) for count in seen)
        assert _counts() == two_threads


class RecordingFactor:
    """A SuperLU factor that records the thread counts at each solve."""

    def __init__(self, lu, seen):
        self._lu = lu
        self._seen = seen

    def solve(self, rhs):
        self._seen.append(_counts())
        return self._lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class RecordingMatrix(sp.csr_matrix):
    """A sparse ``G`` that records the thread counts at each product,
    the matrix-vector step of a Rayleigh quotient."""

    seen = None

    def __matmul__(self, other):
        RecordingMatrix.seen.append(_counts())
        return super().__matmul__(other)


@pytest.fixture
def recorded(monkeypatch):
    """``(factored, solved)``: the thread counts at every factorization
    the solve session runs (``splu`` and ``spd_factorize`` as it looks
    them up) and at every solve of those factors."""
    factored, solved = [], []

    def recording(factorize):
        def factor(*args, **kwargs):
            factored.append(_counts())
            return RecordingFactor(factorize(*args, **kwargs), solved)

        return factor

    monkeypatch.setattr(session, "splu", recording(session.splu))
    monkeypatch.setattr(session, "spd_factorize", recording(session.spd_factorize))
    return factored, solved


@pytest.fixture
def recorded_reductions(monkeypatch):
    """The thread counts at every ``np.linalg.norm`` call and every
    :class:`RecordingMatrix` product."""
    seen = []
    norm = np.linalg.norm

    def recording_norm(*args, **kwargs):
        seen.append(_counts())
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    monkeypatch.setattr(RecordingMatrix, "seen", seen)
    return seen


@needs_openblas
class TestSparseSeams:
    """Every sparse triangular solve, runaway reduction and CG step
    runs on one BLAS thread whatever its order; factorizations keep
    the libraries' threads."""

    @pytest.mark.parametrize("mode", ["reuse", "direct"])
    def test_session_solves_run_on_one_thread(self, small_deployed, mode,
                                              recorded, two_threads):
        factored, solved = recorded
        view = SolveSession(small_deployed.system, mode=mode).view(None)
        view.solve(1.0)
        view.solve_derivatives(1.5)
        assert solved and all(count == [1] * len(POOLS) for count in solved)
        assert _counts() == two_threads

    @pytest.mark.parametrize("mode", ["reuse", "direct"])
    def test_factorizations_keep_their_threads(self, small_deployed, mode,
                                               recorded, two_threads):
        factored, _ = recorded
        view = SolveSession(small_deployed.system, mode=mode).view(None)
        view.solve(1.0)
        assert factored and all(count == two_threads for count in factored)
        assert _counts() == two_threads

    def test_support_last_solves_run_on_one_thread(self, two_threads):
        """The private factor of a standalone runaway bound."""
        g_matrix, diagonal = _path_graph()
        seen = []
        factor = condensed.factor_support_last(
            g_matrix, np.flatnonzero(diagonal),
            factorize=lambda matrix, **options: RecordingFactor(
                splu(matrix, **options), seen
            ),
        )
        factor.solve(np.ones((diagonal.size, 2)))
        assert seen == [[1] * len(POOLS)]
        assert _counts() == two_threads

    def test_eigen_quotient_and_norm_run_on_one_thread(
            self, recorded_reductions, two_threads):
        g_matrix, diagonal = _path_graph()
        result, vector = runaway_current_eigen(
            RecordingMatrix(g_matrix), diagonal, return_vector=True
        )
        assert result.value > 0.0 and vector is not None
        assert len(recorded_reductions) >= 2
        assert all(count == [1] * len(POOLS) for count in recorded_reductions)
        assert _counts() == two_threads

    def test_shift_invert_quotients_and_norms_run_on_one_thread(
            self, recorded_reductions, two_threads):
        g_matrix, diagonal = _path_graph()
        exact, vector = runaway_current_eigen(
            g_matrix, diagonal, return_vector=True
        )
        recorded_reductions.clear()

        def solve(current, rhs):
            return splu((g_matrix - current * sp.diags(diagonal)).tocsc()).solve(rhs)

        guess = vector + 0.05 * np.random.default_rng(3).standard_normal(vector.size)
        result, _ = runaway_current_shift_invert(
            solve, RecordingMatrix(g_matrix), diagonal, guess=guess,
            shift=0.9 * exact.value,
        )
        assert result is not None
        assert result.value == pytest.approx(exact.value, rel=1e-6)
        assert len(recorded_reductions) >= 2 * result.iterations
        assert all(count == [1] * len(POOLS) for count in recorded_reductions)
        assert _counts() == two_threads

    def test_cg_preconditioner_runs_on_one_thread(self, two_threads):
        g_matrix, _ = _path_graph()
        diagonal = g_matrix.diagonal()
        seen = []

        def precondition(v):
            seen.append(_counts())
            return v / diagonal

        x, report = krylov_solve(g_matrix, np.ones(diagonal.size),
                                 preconditioner=precondition)
        assert report.converged
        np.testing.assert_allclose(g_matrix @ x, 1.0, rtol=1e-9)
        assert seen and all(count == [1] * len(POOLS) for count in seen)
        assert _counts() == two_threads


@needs_openblas
def test_many_threads_share_one_depth_count(two_threads):
    """8 threads (more than the cores) each enter and leave the guard
    200 times around a pencil solve: no thread ever sees more than one
    BLAS thread inside, every answer is the serial one, and the counts
    come back once the last thread leaves."""
    pencil = _pencil()
    inverse = pencil.current_inverse(0.5 / pencil.top_eigenpair()[0])
    rhs = np.linspace(1.0, 2.0, pencil.support.size)
    serial = inverse(rhs)
    answers = [[] for _ in range(8)]
    inside = [[] for _ in range(8)]

    def work(k):
        for _ in range(200):
            with one_thread(pencil.support.size):
                inside[k].append(_counts())
                answers[k].append(inverse(rhs))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(answer) == 200 for answer in answers)
    assert all(count == [1] * len(POOLS) for seen in inside for count in seen)
    assert all(np.array_equal(answer, serial) for run in answers for answer in run)
    assert _counts() == two_threads
    assert blas._ONE_THREAD.depth == 0

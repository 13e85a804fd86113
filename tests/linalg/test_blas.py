"""The one-BLAS-thread guard around the condensed pencil's dense kernels.

:func:`repro.linalg.blas.one_thread` lowers every loaded OpenBLAS to
one thread while a small kernel runs and restores each library's count
afterwards, shared by every thread of the process through one depth
count.  These tests pin the counts inside and after the guard (also
when the body raises, under nesting and from many threads at once),
the size bound, the no-op without OpenBLAS, and that the pencil's
``eigh`` and ``current_inverse`` products run inside it.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import blas, condensed
from repro.linalg.blas import ONE_THREAD_MAX_ORDER, one_thread, openblas_pools

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


def _pencil():
    """The pencil of a path-graph Laplacian (plus a leak) on 24 nodes
    with every other node in the Peltier support."""
    size = 24
    g_matrix = sp.diags(
        [-np.ones(size - 1), np.full(size, 2.1), -np.ones(size - 1)],
        [-1, 0, 1], format="csc",
    )
    diagonal = np.where(np.arange(size) % 2 == 0, 0.05, 0.0)
    return condensed.condense(g_matrix, diagonal)


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

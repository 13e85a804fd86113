"""One BLAS thread for sparse solves, vector reductions and small
dense kernels.

numpy and scipy each load their own OpenBLAS
(``libscipy_openblas64_``, ``libscipy_openblas``), and each runs one
thread per core.  A threaded level-1/2 call or a small level-3 kernel
made between Python steps and the other library's work waits for a
worker thread to be scheduled, which costs more than the thread saves.
:func:`one_thread` lowers every loaded OpenBLAS to one thread while
such work runs and then restores each library's previous count.  Run
on one thread:

* every SuperLU triangular solve (``SessionView._timed_lu_solve`` and
  ``SupportLastFactor.solve``), whatever its order: ``one_thread()``
  with no order;
* the ``n``-vector reductions of the runaway bound (Rayleigh quotients
  and norms in :mod:`repro.linalg.runaway`) and the ``mg`` backend's
  conjugate gradients (:func:`repro.linalg.krylov.krylov_solve`,
  V-cycles and their coarsest ``splu`` included);
* the condensed pencil's ``m x m`` dense kernels while ``m`` is below
  :data:`ONE_THREAD_MAX_ORDER` (``one_thread(m)``).

Sparse factorizations (``splu``, ``spd_factorize`` and the
support-last factor) and dense kernels of order
:data:`ONE_THREAD_MAX_ORDER` and up keep the libraries' own threading:
those are the only kernels where threads were measured to pay or tie.

Measured on a 2-vCPU VM, both pools at two threads against one
(medians of 5): ``np.linalg.norm`` of a 16,478-node runaway vector
8.00 vs 0.02 ms, its Rayleigh quotient 12.24 vs 0.27 ms; back-to-back
SuperLU solves tie (one column 5.04 vs 4.89 ms), but inside a 64x64
GreedyDeploy job they take 104.6 vs 50.2 ms per job and the whole job
461 vs 368 ms (cProfile).  Factorizations tie or gain from two
threads: ``spd_factorize`` takes 0.145 vs 0.141 s at 16,477 nodes,
0.987 vs 0.950 s at 65,875 and 10.02 vs 10.40 s at 263,466.  In a
Table I pass the pencil's ``eigh`` at ``m = 288`` took 19-93 ms
(median 24) at two threads and 10-14 ms at one.

The libraries are looked up on first use, as the OpenBLAS objects
mapped into this process (``/proc/self/maps``) that export the
thread-count entry points.  Where there is none (another BLAS, no
``/proc``) the guard does nothing.  A thread count belongs to the
library, not to a thread: while any thread is inside the guard, every
BLAS call of the process runs on one thread.  Guards nest: only the
outermost one sets and restores the counts, so a caller that wraps a
whole probe or runaway bound makes the inner guards depth bumps.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

#: Dense kernels of at least this order keep every BLAS thread.
#: Measured on a 2-vCPU VM, one thread against two: the ``reuse``
#: column of ``benchmarks/bench_backends.py`` takes 0.010 vs 0.150 s
#: at support 128 and 0.09-0.11 vs 0.13-0.24 s at 512 (16x16), ties
#: at 1024 (0.67-0.80 vs 0.69-0.75 s) and loses at 2304 (5.7-6.8 vs
#: 4.8-5.8 s); an isolated pencil ``eigh`` ties at 288 and 384 and
#: loses at 1024 (253 vs 169 ms).
ONE_THREAD_MAX_ORDER = 1024


#: ``(get, set)`` thread-count entry points: scipy's wheels rename
#: OpenBLAS's, and an ILP64 build appends ``64_``.
_ENTRY_POINTS = [
    (prefix + "_get_num_threads" + suffix, prefix + "_set_num_threads" + suffix)
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def openblas_pools():
    """``(get_num_threads, set_num_threads)`` of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower()})
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _ENTRY_POINTS:
            get = getattr(library, get_name, None)
            put = getattr(library, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


class _OneThread:
    """Process-wide depth count: the first thread in saves every
    library's count and sets one, the last one out restores them."""

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.pools = None
        self.saved = ()

    def enter(self):
        with self.lock:
            if self.pools is None:
                self.pools = openblas_pools()
            if self.depth == 0:
                self.saved = tuple(get() for get, _ in self.pools)
                for _, put in self.pools:
                    put(1)
            self.depth += 1

    def leave(self):
        with self.lock:
            self.depth -= 1
            if self.depth == 0:
                for (_, put), count in zip(self.pools, self.saved):
                    put(count)


_ONE_THREAD = _OneThread()


@contextlib.contextmanager
def one_thread(order=None):
    """Run the block on one BLAS thread.

    A dense kernel passes its ``order`` and keeps every thread from
    :data:`ONE_THREAD_MAX_ORDER` on; sparse solves and vector
    reductions pass none and always take one thread.
    """
    if order is not None and order >= ONE_THREAD_MAX_ORDER:
        yield
        return
    _ONE_THREAD.enter()
    try:
        yield
    finally:
        _ONE_THREAD.leave()

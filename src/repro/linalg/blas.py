"""Small dense kernels on one BLAS thread.

numpy and scipy each load their own OpenBLAS, and each runs one
thread per core.  Called back to back, an ``m x m`` kernel with ``m``
in the low hundreds costs about the same on one thread or two; called
between sparse solves and Python, as a real run calls it, it waits on
the threads.  In a Table I pass on a 2-vCPU VM the pencil's ``eigh``
at ``m = 288`` took 19-93 ms (median 24) with both pools at two
threads and 10-14 ms on one.  :func:`one_thread` lowers every loaded
OpenBLAS to one thread while such a kernel runs and then restores
each library's previous count; kernels of order
:data:`ONE_THREAD_MAX_ORDER` and up keep the libraries' own
threading, where it pays.

The libraries are looked up on first use, as the OpenBLAS objects
mapped into this process (``/proc/self/maps``) that export the
thread-count entry points.  Where there is none (another BLAS, no
``/proc``) the guard does nothing.  A thread count belongs to the
library, not to a thread: while any thread is inside the guard, every
BLAS call of the process runs on one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

#: Kernels of at least this order keep every BLAS thread.  Measured on
#: a 2-vCPU VM, one thread against two: the ``reuse`` column of
#: ``benchmarks/bench_backends.py`` takes 0.010 vs 0.150 s at support
#: 128 and 0.09-0.11 vs 0.13-0.24 s at 512 (16x16), ties at 1024
#: (0.67-0.80 vs 0.69-0.75 s) and loses at 2304 (5.7-6.8 vs 4.8-5.8 s);
#: an isolated pencil ``eigh`` ties at 288 and 384 and loses at 1024
#: (253 vs 169 ms).
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
def one_thread(order):
    """Run the block on one BLAS thread when its kernels are of order
    below :data:`ONE_THREAD_MAX_ORDER`; a no-op otherwise."""
    if order >= ONE_THREAD_MAX_ORDER:
        yield
        return
    _ONE_THREAD.enter()
    try:
        yield
    finally:
        _ONE_THREAD.leave()

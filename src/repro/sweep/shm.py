"""Zero-copy problem broadcast for process-pool sweep workers.

Without it every worker rebuilds each package geometry from its
scenario payload: the first scenario of a geometry records the
network blueprint (layer physics stamped as arrays, a few milliseconds
at 64x64 tiles) *per worker*.  This module broadcasts the parent's
assembled :class:`~repro.core.problem.CoolingSystemProblem` (carrying
its recorded :class:`~repro.thermal.assembly.NetworkBlueprint`)
through one ``multiprocessing.shared_memory`` segment per geometry
instead:

* the runner :func:`publish`\\ es one segment per multi-scenario
  geometry before submitting tasks, and passes only tiny
  :class:`SharedProblemHandle` records (name + size) with each task —
  task payloads never carry blueprints;
* workers :func:`load` the segment on their first scenario of the
  geometry (attach, copy out, detach immediately — a crashed worker
  can never pin a segment) and seed their per-process problem cache
  with the result, so every worker-side model build instantiates the
  broadcast blueprint;
* the parent's refcounted registry unlinks each segment when its last
  :func:`release` lands, and an ``atexit`` sweep unlinks anything
  still registered, so no ``/dev/shm`` entry outlives the process
  even when a sweep dies mid-flight.

Because blueprint replay is bit-identical to a fresh build, a worker
seeded over shared memory returns byte-for-byte the values it would
have produced rebuilding from scratch — pinned by
``tests/sweep/test_shm.py``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

#: Parent-side registry: segment name -> [SharedMemory, refcount].
_PUBLISHED = {}

#: Worker-side cache: segment name -> unpickled problem (one attach +
#: copy per worker process, however many scenarios ride the segment).
_LOADED = {}

_ATEXIT_REGISTERED = False


@dataclass(frozen=True)
class SharedProblemHandle:
    """A picklable pointer to a published problem segment.

    Only the segment ``name`` and payload ``size`` cross the process
    boundary — the assembled problem itself stays in shared memory.
    """

    name: str
    size: int


def _register_atexit():
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_unlink_all)
        _ATEXIT_REGISTERED = True


def publish(problem):
    """Publish a problem into a fresh shared-memory segment.

    Pickles the problem (live factorization handles are dropped by the
    session layer's ``__getstate__`` — the blueprint and plain state
    survive) and copies it into a new segment owned by this process.
    Returns a :class:`SharedProblemHandle` with refcount 1; every
    handle must eventually be :func:`release`\\ d.
    """
    payload = pickle.dumps(problem, protocol=pickle.HIGHEST_PROTOCOL)
    segment = shared_memory.SharedMemory(create=True, size=len(payload))
    segment.buf[: len(payload)] = payload
    _PUBLISHED[segment.name] = [segment, 1]
    _register_atexit()
    return SharedProblemHandle(name=segment.name, size=len(payload))


def retain(handle):
    """Take an extra reference on a published segment."""
    entry = _PUBLISHED.get(handle.name)
    if entry is None:
        raise KeyError(
            "segment {!r} is not published by this process".format(handle.name)
        )
    entry[1] += 1
    return handle


def release(handle):
    """Drop one reference; unlink the segment when none remain.

    Releasing a segment this process never published (or one already
    fully released) is a no-op, so cleanup paths can release
    unconditionally.
    """
    entry = _PUBLISHED.get(handle.name)
    if entry is None:
        return
    entry[1] -= 1
    if entry[1] <= 0:
        del _PUBLISHED[handle.name]
        _destroy(entry[0])


def _destroy(segment):
    try:
        segment.close()
    finally:
        try:
            segment.unlink()
        except FileNotFoundError:  # already gone (e.g. external cleanup)
            pass


def published_segments():
    """Names of the segments this process currently has published."""
    return sorted(_PUBLISHED)


def _unlink_all():
    """Unlink every still-published segment (atexit safety net)."""
    while _PUBLISHED:
        _name, entry = _PUBLISHED.popitem()
        _destroy(entry[0])


def load(handle):
    """Worker-side: the problem behind a handle (cached per process).

    Attaches to the segment, copies the payload out, and detaches
    *immediately* — no file descriptor or mapping stays open in the
    worker, so a crashed worker cannot leak or pin the segment.  The
    unpickled problem is cached per segment name and marked with
    ``_from_shared_memory = True`` (test/diagnostic breadcrumb).

    Raises ``FileNotFoundError`` if the segment is gone (e.g. the
    parent already released it); callers treat that as a cache miss
    and rebuild from the scenario payload.
    """
    problem = _LOADED.get(handle.name)
    if problem is not None:
        return problem
    segment = shared_memory.SharedMemory(name=handle.name)
    try:
        payload = bytes(segment.buf[: handle.size])
    finally:
        segment.close()
        # Python < 3.13 registers *attaches* with the resource tracker
        # too.  Under the default fork start method the worker shares
        # the publisher's tracker, whose registration set already holds
        # the name (set semantics — the extra register was a no-op), so
        # unregistering here would strip the publisher's entry and make
        # its unlink-time unregister fail.  Only under spawn/forkserver
        # does this process own a *private* tracker that would try to
        # unlink the publisher's segment at exit — unregister there.
        if (
            handle.name not in _PUBLISHED
            and multiprocessing.get_start_method(allow_none=True) != "fork"
        ):
            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker already gone
                pass
    problem = pickle.loads(payload)
    problem._from_shared_memory = True
    _LOADED[handle.name] = problem
    return problem


def clear_worker_cache():
    """Drop the worker-side loaded-problem cache (tests, cache resets)."""
    _LOADED.clear()

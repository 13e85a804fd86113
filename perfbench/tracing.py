"""Span recording around the program's public entry points.

The tracer never edits the program.  It replaces a function where the
caller looks it up (a module global, or a method on its class) with a
wrapper that records a span, and puts the original back afterwards.

A span has a name, start, end, parent span and job id.  Synchronous
spans nest through a per-thread stack, so a span's parent is the
innermost span open on the same thread.  Coroutine spans (the serve
tier's ASGI call and batcher) are recorded as roots: tasks interleave
on one thread, so a stack cannot tell which of them is the parent.

Spans stay in memory until the run ends.  :func:`self_times` turns
them into self time, a span's duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict


class Span:
    """One timed call: ``name``, ``start``/``end`` (seconds), ``parent``
    (index into the tracer's span list or None), ``job`` and ``thread``.
    ``value`` holds one number a hook took from the call (a count)."""

    __slots__ = ("name", "start", "end", "parent", "job", "thread", "value")

    def __init__(self, name, start, parent, job, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.thread = thread
        self.value = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans and per-wrapper call counts.

    ``active`` decides, at the start of each call, whether the call is
    traced; calls are counted either way, so a wrapper that is never
    reached shows as zero calls even while tracing is paused.
    """

    def __init__(self, clock=time.perf_counter, active=None):
        self.clock = clock
        self.spans = []
        self.calls = defaultdict(int)
        self.job = None
        self.enabled = True
        self._active = active
        self._local = threading.local()
        self._lock = threading.Lock()

    def active(self):
        if self._active is not None:
            return self._active()
        return self.enabled

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key):
        with self._lock:
            self.calls[key] += 1

    def open(self, name, *, nested=True):
        """Start a span; returns its index.  ``nested=False`` records a
        root span that does not become the parent of later spans."""
        stack = self._stack()
        parent = stack[-1] if (stack and nested) else None
        span = Span(name, self.clock(), parent, self.job, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        if nested:
            stack.append(index)
        return index

    def close(self, index, *, nested=True):
        self.spans[index].end = self.clock()
        if nested:
            self._stack().pop()

    def wrap(self, function, key, name, hook=None, before=None):
        """A stand-in for ``function`` that records a ``name`` span.

        ``hook(span, args, kwargs, result)`` runs after a traced call
        returns, to take a count from its arguments or result;
        ``before(args)`` runs before a traced call starts.
        """
        tracer = self

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                tracer.count(key)
                if not tracer.active():
                    return await function(*args, **kwargs)
                index = tracer.open(name, nested=False)
                try:
                    result = await function(*args, **kwargs)
                finally:
                    tracer.close(index, nested=False)
                if hook is not None:
                    hook(tracer.spans[index], args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            tracer.count(key)
            if not tracer.active():
                return function(*args, **kwargs)
            if before is not None:
                before(args)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                hook(tracer.spans[index], args, kwargs, result)
            return result

        return traced


class WrapPoint:
    """Where one entry point is looked up: ``module`` plus a dotted
    ``attribute`` (``"assemble"`` or ``"SessionView.solve"``)."""

    def __init__(self, key, module, attribute, span, hook=None, before=None):
        self.key = key
        self.module = module
        self.attribute = attribute
        self.span = span
        self.hook = hook
        self.before = before

    def owner(self):
        """``(object holding the attribute, attribute name)``."""
        target = importlib.import_module(self.module)
        *path, leaf = self.attribute.split(".")
        for part in path:
            target = getattr(target, part)
        defined = leaf in vars(target) if isinstance(target, type) else hasattr(target, leaf)
        if not defined:
            raise AttributeError(
                "wrap point {} not found: {}.{}".format(
                    self.key, self.module, self.attribute
                )
            )
        return target, leaf


class Installation:
    """Wrappers put in place by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self):
        self._originals = []

    def remove(self):
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)


def install(tracer, points):
    """Wrap every point; raises if one no longer exists."""
    installation = Installation()
    try:
        for point in points:
            owner, leaf = point.owner()
            original = getattr(owner, leaf)
            wrapped = tracer.wrap(
                original, point.key, point.span, point.hook, point.before
            )
            setattr(owner, leaf, wrapped)
            installation._originals.append((owner, leaf, original))
    except BaseException:
        installation.remove()
        raise
    return installation


def covered_length(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the time its
    children cover.  ``parent`` indexes ``spans``; a span that never
    closed gets None and covers nothing."""
    children = defaultdict(list)
    for span in spans:
        if span.end is not None and span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        if span.end is None:
            result.append(None)
            continue
        covered = covered_length(span.start, span.end, children.get(index, ()))
        result.append(span.duration - covered)
    return result


def layer_totals(spans):
    """Per span name: ``{"self_s", "total_s", "calls", "value"}`` summed
    over the spans (``value`` sums the hook counts)."""
    totals = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "value": 0.0})
    for span, own in zip(spans, self_times(spans)):
        if own is None:
            continue
        entry = totals[span.name]
        entry["self_s"] += own
        entry["total_s"] += span.duration
        entry["calls"] += 1
        if span.value is not None:
            entry["value"] += span.value
    return dict(totals)


def chrome_trace(spans, pid=1):
    """Spans as Chrome trace-event JSON (complete ``"X"`` events, in
    microseconds from the first span's start), for ``chrome://tracing``
    or Perfetto."""
    origin = min((span.start for span in spans), default=0.0)
    events = []
    for span in spans:
        if span.end is None:
            continue
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": pid,
            "tid": span.thread,
            "args": {"job": span.job},
        })
    return events


def write_chrome_trace(path, events):
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

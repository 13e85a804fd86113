import asyncio
import types

import pytest

from perfbench import layers, tracing


def make_span(name, start, end, parent=None):
    span = tracing.Span(name, start, parent, None, 1)
    span.end = end
    return span


def test_self_time_subtracts_children():
    spans = [
        make_span("root", 0.0, 10.0),
        make_span("a", 1.0, 4.0, parent=0),
        make_span("b", 5.0, 7.0, parent=0),
        make_span("a.inner", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 2.0, 1.0]
    totals = tracing.layer_totals(spans)
    assert totals["root"]["total_s"] == 10.0
    assert sum(entry["self_s"] for entry in totals.values()) == 10.0


def test_overlapping_children_count_once():
    spans = [
        make_span("root", 0.0, 10.0),
        make_span("x", 1.0, 5.0, parent=0),
        make_span("y", 3.0, 6.0, parent=0),
        make_span("z", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    # Children cover [1, 6] and [9, 10] of the root: 6 s.
    assert tracing.self_times(spans)[0] == 4.0
    assert tracing.covered_length(0.0, 10.0, []) == 0.0


def test_unclosed_span_has_no_self_time():
    spans = [make_span("root", 0.0, 4.0), tracing.Span("open", 1.0, 0, None, 1)]
    assert tracing.self_times(spans) == [4.0, None]
    assert "open" not in tracing.layer_totals(spans)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrappers_nest_and_time_calls():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = tracer.wrap(inner, "inner", "layer.inner")

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0
        return 7

    wrapped_outer = tracer.wrap(outer, "outer", "layer.outer",
                                hook=lambda span, a, k, r: setattr(span, "value", r))
    assert wrapped_outer() == 7
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent is None
    assert tracing.self_times(tracer.spans) == [4.0, 2.0]
    assert outer_span.value == 7
    assert dict(tracer.calls) == {"outer": 1, "inner": 1}


def test_paused_tracer_counts_calls_without_spans():
    tracer = tracing.Tracer()
    tracer.enabled = False
    wrapped = tracer.wrap(lambda: 3, "f", "layer.f")
    assert wrapped() == 3
    assert tracer.spans == [] and tracer.calls["f"] == 1


def test_coroutine_spans_are_roots():
    tracer = tracing.Tracer()

    async def handler(x):
        await asyncio.sleep(0)
        return x + 1

    wrapped = tracer.wrap(handler, "h", "serve.h")

    async def main():
        index = tracer.open("outer")
        try:
            return await wrapped(1)
        finally:
            tracer.close(index)

    assert asyncio.run(main()) == 2
    names = {span.name: span for span in tracer.spans}
    assert names["serve.h"].parent is None


def test_install_wraps_where_looked_up_and_restores():
    module = types.ModuleType("fake_module")
    module.work = lambda: "done"

    class Box:
        def method(self):
            return "method"

    module.Box = Box
    import sys
    sys.modules["fake_module"] = module
    try:
        tracer = tracing.Tracer()
        original = module.work
        installation = tracing.install(tracer, [
            tracing.WrapPoint("work", "fake_module", "work", "layer.work"),
            tracing.WrapPoint("method", "fake_module", "Box.method", "layer.method"),
        ])
        assert module.work() == "done" and Box().method() == "method"
        assert [span.name for span in tracer.spans] == ["layer.work", "layer.method"]
        installation.remove()
        assert module.work is original
        with pytest.raises(AttributeError):
            tracing.install(tracer, [tracing.WrapPoint("gone", "fake_module", "renamed", "x")])
        # A failed install leaves nothing wrapped.
        with pytest.raises(AttributeError):
            tracing.install(tracer, [
                tracing.WrapPoint("work", "fake_module", "work", "layer.work"),
                tracing.WrapPoint("gone", "fake_module", "Box.renamed", "x"),
            ])
        assert module.work is original
    finally:
        del sys.modules["fake_module"]


def test_chrome_trace_events():
    spans = [make_span("root", 1.0, 1.5), make_span("leaf", 1.1, 1.2, parent=0)]
    events = tracing.chrome_trace(spans, pid=7)
    assert [event["name"] for event in events] == ["root", "leaf"]
    assert events[0]["ph"] == "X" and events[0]["ts"] == 0.0
    assert events[1]["dur"] == pytest.approx(1e5)
    assert events[0]["pid"] == 7


def test_zero_calls_on_a_required_wrapper_is_reported():
    calls = dict.fromkeys(layers.REQUIRED["table1"], 1)
    assert layers.missing_calls("table1", calls) == []
    calls["runaway"] = 0
    assert layers.missing_calls("table1", calls) == ["runaway"]


def test_every_wrap_point_exists_in_the_program():
    keys = set()
    for point in layers.wrap_points():
        point.owner()  # raises when the program renamed the entry point
        keys.add(point.key)
    for required in layers.REQUIRED.values():
        assert set(required) <= keys | {"serve.app"}


def test_coverage_leaves_out_spans_that_enclose_the_job():
    spans = [
        make_span("job", 0.0, 10.0),
        make_span("sweep.dispatch", 0.5, 9.5, parent=0),
        make_span("core.deploy", 1.0, 9.0, parent=1),
        make_span("linalg.runaway", 2.0, 6.0, parent=2),
        make_span("thermal.session.solve", 6.0, 8.0, parent=2),
    ]
    totals = tracing.layer_totals(spans)
    # 6 s of the 10 s job are in working layers; the 4 s of enclosing
    # self time is work no layer wrapper reached.
    assert layers.work_coverage(totals) == pytest.approx(0.6)
    assert layers.work_coverage({}) == 0.0


def serve_record(due, sent, done, traced):
    from perfbench.openloop import Record

    return Record(due, sent, done, True, (200, b"{}", "1" if traced else "0"))


def test_serve_metrics_count_only_spans_of_the_timed_phase():
    origin = 100.0
    records = [
        serve_record(100.0, 100.0, 100.010, True),
        serve_record(100.1, 100.1, 100.106, False),
        serve_record(100.2, 100.2, 100.208, True),
    ]
    spans = [
        # Warm pass before the timed phase: a slow cold build.
        make_span("serve.app", 90.0, 91.0),
        make_span("thermal.model.build", 90.1, 90.9),
        # The two traced requests.
        make_span("serve.app", 100.001, 100.009),
        make_span("serve.app", 100.201, 100.207),
        make_span("thermal.model.build", 100.202, 100.204),
        # GET /stats after the last request.
        make_span("serve.app", 100.3, 100.301),
    ]
    pool = {"hits": 3, "misses": 1, "evictions": 0,
            "solver": dict.fromkeys(layers.SolverCounters.FIELDS, 0)}
    metrics, traced = layers.serve_layer_metrics(spans, records, origin, pool)
    assert traced == 2
    assert metrics["serve.app_ms"] == pytest.approx(7.0)
    assert metrics["serve.http_ms"] == pytest.approx(2.0)
    assert metrics["serve.http_ms"] >= 0.0
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["thermal.model.build_ms"] == pytest.approx(1.0)
    assert metrics["serve.pool.hit_ratio"] == pytest.approx(0.75)

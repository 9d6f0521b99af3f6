"""Span self-time arithmetic, coverage and the tracer's nesting."""

import pytest

from perfbench.tracing import (
    NullTracer,
    Tracer,
    coverage,
    layer_self_times,
    self_times,
    union_length,
)


def span(sid, parent, name, start, end, trace="t"):
    return (sid, parent, trace, name, start, end)


def test_union_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        span("r", None, "bench.pass", 0.0, 10.0),
        span("a", "r", "io.decode", 1.0, 3.0),
        # two parallel workers under one dispatch span: overlap counts once
        span("d", "r", "engine.dispatch", 4.0, 9.0),
        span("w1", "d", "algorithms.kernel", 4.5, 8.0),
        span("w2", "d", "algorithms.kernel", 5.0, 8.5),
        # a child that outlives its parent is clipped to the parent
        span("c", "a", "core.build", 2.5, 3.5),
    ]
    selfs = self_times(spans)
    assert selfs["r"] == pytest.approx(10 - 2 - 5)
    assert selfs["d"] == pytest.approx(5 - 4)
    assert selfs["a"] == pytest.approx(2 - 0.5)
    assert selfs["w1"] == pytest.approx(3.5)
    layers = layer_self_times(spans)
    assert layers["algorithms"] == pytest.approx(7.0)
    assert layers["bench"] == pytest.approx(3.0)
    # descendants cover [1, 3.5] and [4, 9]; clipping is to the root only
    assert coverage(spans, "r") == pytest.approx(0.75)


def test_tracer_nests_and_inherits_trace_id():
    tracer = Tracer(prefix="x")
    root = tracer.begin("bench.pass", trace_id="file-1")
    child = tracer.begin("io.decode")
    tracer.end(child)
    tracer.end(root, name="bench.renamed")
    by_name = {s[3]: s for s in tracer.spans}
    assert by_name["io.decode"][1] == by_name["bench.renamed"][0]
    assert by_name["io.decode"][2] == "file-1"
    with pytest.raises(RuntimeError):
        outer = tracer.begin("a")
        tracer.begin("b")
        tracer.end(outer)


def test_worker_tracer_roots_under_a_foreign_span():
    tracer = Tracer(prefix="w", parent="p0.3", trace_id="file-1")
    tracer.end(tracer.begin("core.normalize"))
    assert tracer.spans[0][1:3] == ("p0.3", "file-1")


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    tracer.end(tracer.begin("io.decode"))
    tracer.add("io.decode_ops", 3)
    assert tracer.spans == [] and not tracer.counts

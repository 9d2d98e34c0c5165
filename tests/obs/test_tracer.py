"""Tracer unit tests: parenting, the ring sink, export, and the null."""

import threading

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    Span,
    Tracer,
    build_forest,
    format_forest,
)
from repro.stats.counters import Counters


class FakeClock:
    """Deterministic monotonic clock advancing 1ms per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def make_tracer(capacity: int = 64, counters=None) -> Tracer:
    return Tracer(capacity=capacity, counters=counters, clock=FakeClock())


# ------------------------------------------------------------- parenting


def test_begin_finish_records_span():
    t = make_tracer()
    span = t.begin("wal.flush", records=3)
    assert t.current() is span
    t.finish(span)
    assert t.current() is None
    (got,) = t.spans()
    assert got.name == "wal.flush"
    assert got.attrs == {"records": 3}
    assert got.parent_id is None
    assert got.duration > 0.0


def test_nested_spans_parent_on_thread_stack():
    t = make_tracer()
    with t.span("outer") as outer:
        with t.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    spans = {s.name: s for s in t.spans()}
    assert spans["inner"].parent_id == spans["outer"].span_id
    assert spans["outer"].parent_id is None


def test_explicit_cross_thread_parent():
    t = make_tracer()
    root = t.begin("rebuild.run")
    child_holder = {}

    def worker() -> None:
        # No thread-local context here; the explicit parent wires the
        # worker's span under the driver's root.
        span = t.begin("rebuild.worker", parent=root)
        t.finish(span)
        child_holder["span"] = span

    th = threading.Thread(target=worker)
    th.start()
    th.join(timeout=5)
    assert not th.is_alive()
    t.finish(root)
    assert child_holder["span"].parent_id == root.span_id


def test_parent_accepts_span_id():
    t = make_tracer()
    root = t.begin("root")
    t.finish(root)
    child = t.begin("child", parent=root.span_id)
    t.finish(child)
    assert child.parent_id == root.span_id


def test_exception_unwind_closes_inner_spans():
    t = make_tracer()
    outer = t.begin("outer")
    t.begin("inner")  # never finished explicitly
    t.finish(outer)  # must close the orphan too
    spans = {s.name: s for s in t.spans()}
    assert set(spans) == {"outer", "inner"}
    assert spans["inner"].end == spans["outer"].end
    assert t.current() is None


def test_event_is_zero_duration():
    t = make_tracer()
    with t.span("outer") as outer:
        span = t.event("rebuild.seam_release", {"worker": 1})
    assert span.duration == 0.0 and span.end > 0.0
    assert span.parent_id == outer.span_id
    assert span.attrs == {"worker": 1}
    assert t.spans()[0] is span  # finished before its parent
    assert t.current() is None


def test_finish_adds_closing_attributes():
    t = make_tracer()
    span = t.begin("scrub.pass", epoch=2)
    t.finish(span, checked=7, complete=True)
    assert span.attrs == {"epoch": 2, "checked": 7, "complete": True}
    bare = t.begin("bare")
    t.finish(bare, done=True)
    assert bare.attrs == {"done": True}


def test_span_context_manager_finishes_on_exception():
    t = make_tracer()
    with pytest.raises(RuntimeError):
        with t.span("boom"):
            raise RuntimeError("x")
    (span,) = t.spans()
    assert span.name == "boom" and span.end > 0.0
    assert t.current() is None


# ------------------------------------------------------------------ ring


def test_ring_bounds_memory_and_counts_drops():
    counters = Counters()
    t = make_tracer(capacity=4, counters=counters)
    for i in range(10):
        t.event(f"e{i}")
    spans = t.spans()
    assert len(spans) == 4
    assert [s.name for s in spans] == ["e6", "e7", "e8", "e9"]
    assert counters.obs_spans == 10
    assert counters.obs_spans_dropped == 6


def test_drain_empties_the_ring():
    t = make_tracer()
    t.event("a")
    t.event("b")
    drained = t.drain()
    assert [s.name for s in drained] == ["a", "b"]
    assert t.spans() == []


def test_capacity_validation():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


# ---------------------------------------------------------------- forest


def test_build_forest_orphans_become_roots():
    t = make_tracer(capacity=2)
    root = t.begin("root")
    t.finish(root)
    child = t.begin("child", parent=root.span_id)
    t.finish(child)
    grandchild = t.begin("grandchild", parent=child.span_id)
    t.finish(grandchild)
    # capacity 2: root fell off the ring; child becomes a root.
    roots = t.forest()
    assert [r["span"].name for r in roots] == ["child"]
    assert [c["span"].name for c in roots[0]["children"]] == ["grandchild"]


def test_forest_sorted_by_start():
    spans = [
        Span("b", 2, None, 5.0, "t", None),
        Span("a", 1, None, 1.0, "t", None),
        Span("a.1", 3, 1, 2.0, "t", None),
    ]
    for s in spans:
        s.end = s.start + 1.0
    roots = build_forest(spans)
    assert [r["span"].name for r in roots] == ["a", "b"]
    text = format_forest(roots)
    lines = text.splitlines()
    assert lines[0].startswith("a ")
    assert lines[1].startswith("  a.1 ")  # indented child
    assert "+1000.00ms" in lines[1]  # relative to clock_zero = 1.0


def test_tracer_format_forest_method():
    t = make_tracer()
    with t.span("outer"):
        t.event("inner")
    text = t.format_forest()
    lines = text.splitlines()
    assert lines[0].startswith("outer ")
    assert lines[1].startswith("  inner ")
    assert NULL_TRACER.format_forest() == ""


# ---------------------------------------------------------------- export


def test_jsonl_round_trip(tmp_path):
    t = make_tracer()
    with t.span("outer", epoch=7):
        t.event("inner")
    path = str(tmp_path / "spans.jsonl")
    n = t.export_jsonl(path)
    assert n == 2
    back = Tracer.import_jsonl(path)
    orig = t.spans()
    assert [s.to_dict() for s in back] == [s.to_dict() for s in orig]


def test_jsonl_round_trip_of_bytes_attributes(tmp_path):
    """Keys and resume units are bytes: they export as tagged hex and
    import as the same bytes, nested in lists too."""
    t = make_tracer()
    with t.span("rebuild.run", resume_unit=b"\x00\x07key"):
        t.event("rebuild.nta_end", {"low_unit": b"", "units": [b"\xff", 3]})
    path = str(tmp_path / "spans.jsonl")
    assert t.export_jsonl(path) == 2
    back = Tracer.import_jsonl(path)
    assert [s.attrs for s in back] == [s.attrs for s in t.spans()]
    assert back[1].attrs["resume_unit"] == b"\x00\x07key"


def test_jsonl_export_still_refuses_other_objects(tmp_path):
    t = make_tracer()
    t.event("x", {"obj": object()})
    with pytest.raises(TypeError, match="object attribute"):
        t.export_jsonl(str(tmp_path / "spans.jsonl"))


def test_span_dict_round_trip():
    span = Span("x", 9, 4, 1.5, "T", {"k": 1})
    span.end = 2.5
    clone = Span.from_dict(span.to_dict())
    assert clone.to_dict() == span.to_dict()
    assert clone.duration == 1.0


# ------------------------------------------------------------------ null


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.begin("x") is None
    assert NULL_TRACER.event("x") is None
    assert NULL_TRACER.current() is None
    NULL_TRACER.finish(None)
    with NULL_TRACER.span("x") as got:
        assert got is None
    assert NULL_TRACER.spans() == []


def test_threads_do_not_share_span_stacks():
    t = make_tracer()
    t.begin("main-open")  # left open on the main thread
    seen = {}

    def worker() -> None:
        seen["current"] = t.current()
        span = t.begin("w")
        t.finish(span)
        seen["span"] = span

    th = threading.Thread(target=worker)
    th.start()
    th.join(timeout=5)
    assert not th.is_alive()
    # The worker saw no current span and parented nothing under main's.
    assert seen["current"] is None
    assert seen["span"].parent_id is None

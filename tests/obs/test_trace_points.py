"""The trace's point events are the engine's syncpoints.

A traced engine records every ``SyncPoints.fire`` as a zero-duration
event under the span current on the firing thread.  These tests watch the
fires through a second observer and require the trace to hold exactly
them: same names, same attributes, same per-thread order, same parents.
"""

from __future__ import annotations

import threading

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.core.scrubber import Scrubber
from repro.storage.faults import FaultPlan
from tests.conftest import contents_as_ints, make_half_empty


def watch_fires(engine: Engine) -> list[tuple]:
    """(thread, name, attrs, id of the span current on the thread) of
    every fire from now on, as a second observer sees it; the trace so
    far is dropped."""
    seen: list[tuple] = []
    tracer = engine.tracer
    tracer.drain()

    def observer(name: str, attrs: dict) -> None:
        current = tracer.current()
        seen.append((
            threading.current_thread().name, name, attrs,
            current.span_id if current is not None else None,
        ))

    engine.syncpoints.observe(observer)
    return seen


def assert_trace_holds(engine: Engine, seen: list[tuple]) -> dict:
    """The trace's events are ``seen``, thread by thread; returns the
    traced spans by id."""
    spans = engine.tracer.spans()
    assert engine.counters.obs_spans_dropped == 0
    events = [s for s in spans if s.end == s.start]
    assert {s.thread for s in events} <= {t for t, *_ in seen}
    for thread in {t for t, *_ in seen}:
        want = [(n, a, p) for t, n, a, p in seen if t == thread]
        got = [
            (s.name, s.attrs or {}, s.parent_id)
            for s in events if s.thread == thread
        ]
        assert got == want, f"thread {thread}"
    return {s.span_id: s for s in spans}


def parent_names(by_id: dict, seen: list[tuple], name: str) -> set[str]:
    return {by_id[p].name for _t, n, _a, p in seen if n == name}


def test_single_threaded_rebuild_traces_every_fire(unpipelined):
    engine = Engine(buffer_capacity=2048, trace=True)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 1500)
    seen = watch_fires(engine)
    report = OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    assert report.completed

    by_id = assert_trace_holds(engine, seen)
    names = [n for _t, n, _a, _p in seen]
    assert names.count("rebuild.nta_end") == report.top_actions
    assert names.count("rebuild.txn_committed") == report.transactions
    assert parent_names(by_id, seen, "rebuild.nta_end") == {
        "rebuild.top_action"
    }
    assert parent_names(by_id, seen, "rebuild.txn_committed") == {
        "rebuild.run"
    }


def test_scrub_repair_traces_every_fire():
    """A scrub pass that fences a rotted leaf and repairs it by writing
    its resident frame back: the scrub's points all land in the trace,
    the fence and its lift nested under the repair span."""
    engine = Engine(
        buffer_capacity=2048, lock_timeout=15.0, fault_plan=FaultPlan(),
        trace=True,
    )
    tree = engine.create_index(key_len=4)
    make_half_empty(tree, 3000)
    before = contents_as_ints(tree)
    engine.checkpoint(truncate=True)  # WAL replay ineligible: rung 3
    assert engine.ctx.disk.plant_rot(tree.verify().leaf_page_ids[3], bit=700)
    seen = watch_fires(engine)
    report = Scrubber(tree).run_pass()
    assert report.defects[0].action == "repaired"
    assert contents_as_ints(tree) == before

    by_id = assert_trace_holds(engine, seen)
    assert parent_names(by_id, seen, "scrub.batch") == {"scrub.pass"}
    assert parent_names(by_id, seen, "scrub.quarantine") == {"scrub.repair"}
    assert parent_names(by_id, seen, "scrub.lift") == {"scrub.repair"}
    (lift,) = [a for _t, n, a, _p in seen if n == "scrub.lift"]
    assert isinstance(lift["start"], bytes)
    # The repair span closes with the rung it ended on.
    (repair,) = [s for s in by_id.values() if s.name == "scrub.repair"
                 and s.end > s.start]
    assert repair.attrs["action"] == "repaired"

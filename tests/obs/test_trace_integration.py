"""End-to-end observability acceptance (issue 10).

A rebuild runs under a concurrent mixed workload on a trace-enabled
engine.  The recorded span forest must contain the full rebuild skeleton
— top actions, forces, commits — parented directly under the rebuild
root, all on the one copy thread, and ``Engine.progress()`` polled
throughout must be monotonic in units copied.
"""

from __future__ import annotations

import threading

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.workload.runner import MixedWorkload
from tests.conftest import contents_as_ints, intkey, make_half_empty


def test_trace_tree_completeness_rebuild_under_oltp():
    engine = Engine(buffer_capacity=4096, lock_timeout=15.0, trace=True)
    assert engine.tracer.enabled
    index = engine.create_index(key_len=4)
    key_count = 6000
    make_half_empty(index, key_count)
    expected = contents_as_ints(index)

    # Poll Engine.progress() from a sampler thread for the whole run.
    snapshots = []
    stop = threading.Event()

    def sampler() -> None:
        while not stop.is_set():
            snapshots.append(engine.progress())
            stop.wait(0.005)
        snapshots.append(engine.progress())  # the finished run, at least

    workload = MixedWorkload(
        index, intkey, key_count, threads=2, seed=11, write_fraction=0.5
    )
    poller = threading.Thread(target=sampler)
    workload.start()
    poller.start()
    try:
        report = OnlineRebuild(
            index, RebuildConfig(ntasize=8, xactsize=16)
        ).run()
    finally:
        stop.set()
        poller.join(timeout=10)
        stats = workload.stop()
    assert not poller.is_alive()
    assert report.completed and not report.aborted
    assert stats.errors == []

    # ------------------------------------------------------- span forest
    spans = engine.tracer.spans()
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    (run,) = by_name["rebuild.run"]
    assert run.parent_id is None
    assert run.attrs["completed"] is True

    # One copy thread: the skeleton hangs directly off the root, on the
    # thread that called run(), and nothing of the tiled rebuild is left.
    for name in ("rebuild.top_action", "rebuild.force", "rebuild.commit"):
        assert by_name[name], f"no {name} traced"
        assert all(s.parent_id == run.span_id for s in by_name[name])
        assert {s.thread for s in by_name[name]} == {run.thread}
    assert len(by_name["rebuild.commit"]) == report.transactions
    assert len(by_name["rebuild.top_action"]) >= report.top_actions
    assert not {
        "rebuild.worker", "rebuild.plan", "rebuild.merge",
        "rebuild.seam_wait", "rebuild.seam_release",
    } & set(by_name)

    # OLTP spans interleave with the rebuild on the same clock.
    oltp = [s for s in spans if s.name.startswith("oltp.")]
    assert oltp, "workload ops were not traced"
    assert all(s.parent_id is None for s in oltp)

    # Every span is finished (end stamped) and timestamps are sane.
    for s in spans:
        assert s.end >= s.start

    # -------------------------------------------------- progress samples
    in_epoch = [s for s in snapshots if s.epoch == run.attrs["epoch"]]
    assert in_epoch, "sampler never caught the rebuild epoch"
    units = [s.units_copied for s in in_epoch]
    assert units == sorted(units), "units_copied regressed mid-epoch"
    final = engine.progress()
    assert final.phase == "complete"
    assert final.units_copied == report.leaf_pages_rebuilt

    # --------------------------------------------------- metrics filled
    hists = engine.metrics.to_json()["histograms"]
    assert "wal_flush_seconds" in hists
    assert any(name.startswith("oltp_") for name in hists)

    # The tree survived it all.
    post = set(contents_as_ints(index))
    assert {k for k in expected if k % 2 == 0} <= post
    index.verify()


def test_counters_identical_with_tracing_modulo_obs(monkeypatch):
    """Tracing must not change engine *behavior*: a deterministic
    single-threaded run yields byte-identical counters with tracing on
    and off, modulo the obs_* counters themselves."""

    def run(trace: bool) -> dict:
        engine = Engine(buffer_capacity=2048, trace=trace)
        index = engine.create_index(key_len=4)
        make_half_empty(index, 1500)
        OnlineRebuild(index, RebuildConfig(ntasize=8, xactsize=16)).run()
        return engine.counters.snapshot()

    base = run(False)
    traced = run(True)
    for snap in (base, traced):
        for key in list(snap):
            if key.startswith("obs_"):
                del snap[key]
    assert base == traced


def test_repro_trace_env_enables_tracing(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    engine = Engine(buffer_capacity=256)
    assert engine.tracer.enabled
    monkeypatch.setenv("REPRO_TRACE", "0")
    engine = Engine(buffer_capacity=256)
    assert not engine.tracer.enabled
    monkeypatch.delenv("REPRO_TRACE")
    engine = Engine(buffer_capacity=256)
    assert not engine.tracer.enabled
    # An explicit argument beats the environment.
    monkeypatch.setenv("REPRO_TRACE", "1")
    engine = Engine(buffer_capacity=256, trace=False)
    assert not engine.tracer.enabled


def test_recovery_phases_are_spans_and_counters():
    """A restart explains itself: one span per phase under the engine's
    tracer, and the registered counters say how much of the log was read
    by header only."""
    engine = Engine(buffer_capacity=2048, trace=True)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 600)
    loser = engine.ctx.txns.begin()
    index.insert((9000).to_bytes(4, "big"), 9000, txn=loser)
    engine.ctx.log.flush_all()
    engine.crash()
    before = engine.counters.snapshot()
    report = engine.recover()
    delta = engine.counters.diff(before)

    spans = {span.name: span for span in engine.tracer.spans()}
    phases = [
        "recovery.analysis", "recovery.redo", "recovery.bit_sweep",
        "recovery.undo", "recovery.free",
    ]
    assert set(phases) <= set(spans)
    starts = [spans[name].start for name in phases]
    assert starts == sorted(starts)
    assert all(spans[name].end >= spans[name].start for name in phases)
    assert spans["recovery.undo"].attrs == {"losers": 1}

    assert report.records_undone == 1
    assert delta["recovery_records_scanned"] >= report.records_redone > 0
    # Commits and top-action brackets are most of the log: never decoded.
    assert 0 < delta["recovery_payloads_decoded"] < report.records_redone
    assert 0 < delta["recovery_page_visits"] <= delta["page_reads"]


def test_readahead_explains_itself_in_spans(pipelined):
    """A pipelined rebuild's reads can be accounted for from the engine's
    own trace: each stretch of reader work is a span saying how many runs
    it requested or found cached, and against which window and room."""
    from repro.workload.builder import bulk_load

    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=4096, trace=True
    )
    index = bulk_load(
        engine, [intkey(2 * i) for i in range(20_000)], 4, fill=0.5
    )
    engine.checkpoint()
    engine.buffer.evict_all()
    rebuild = OnlineRebuild(index)
    # Let the readers fill the window between top actions, so who read
    # what does not depend on thread timing.
    engine.syncpoints.on(
        "rebuild.nta_end",
        lambda _ctx: rebuild._scheduler.wait_readahead(30.0),
    )
    report = rebuild.run()
    engine.syncpoints.clear()

    spans = [s for s in engine.tracer.spans() if s.name == "iosched.readahead"]
    assert spans
    assert {s.thread for s in spans} <= {"io-reader-0", "io-reader-1"}
    for s in spans:
        assert s.attrs["window"] == 4 * 32
        assert s.attrs["room"] == engine.buffer.readahead_room()
        assert s.end >= s.start
        assert s.attrs["skipped"] >= 0
    requested = sum(s.attrs["requested"] for s in spans)
    runs = report.leaf_pages_rebuilt // engine.ctx.disk.pages_per_io
    # The spans and the counter account for the whole read pass: a source
    # run was read by a reader or, failing that, by the copy loop.
    demand = report.counter_deltas["rebuild_demand_reads"]
    assert requested + demand >= runs
    assert demand <= 32 // engine.ctx.disk.pages_per_io + 1 < requested
    index.verify()

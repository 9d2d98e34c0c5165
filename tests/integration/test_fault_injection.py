"""End-to-end fault injection against the online rebuild.

The ISSUE 4 acceptance criteria, as tests:

* a torn ``write_many`` mid-rebuild + crash + recovery preserves every
  *completed* top action (the paper's incremental-progress property);
* a 30% transient-error storm never aborts the rebuild — it completes
  through the retry layer;
* a ``PermanentIOError`` aborts the rebuild cleanly: the tree verifies,
  completed transactions keep their progress, and a re-run finishes the
  job;
* ``MixedWorkload`` workers survive injected faults and record the
  failing op instead of dying silently.
"""

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.errors import RebuildAbortedError
from repro.storage.faults import FaultKind, FaultPlan, FaultSpec
from repro.workload.runner import MixedWorkload
from tests.conftest import contents_as_ints, intkey, make_half_empty

# No I/O threads: write_many call ordering stays deterministic, so the
# n-th-call fault sites below land where the comments say they land.
pytestmark = pytest.mark.usefixtures("unpipelined")
CONFIG = RebuildConfig(ntasize=4, xactsize=8)


def build_fragmented(plan=None, count=4000, **engine_kwargs):
    # The retry budget is the engine's (the pool's): the rebuild has none
    # of its own.
    engine = Engine(
        buffer_capacity=2048, fault_plan=plan, io_retry_limit=20,
        **engine_kwargs,
    )
    index = engine.create_index(key_len=4)
    make_half_empty(index, count)
    return engine, index, contents_as_ints(index)


def arm_after_build(engine, **spec_kwargs):
    """Arm a write_many fault at the n-th rebuild-phase call."""
    nth_in_rebuild = spec_kwargs.pop("nth_in_rebuild", 1)
    faulty = engine.ctx.disk
    spec = FaultSpec(
        op="write_many",
        nth=faulty.calls["write_many"] + nth_in_rebuild,
        **spec_kwargs,
    )
    faulty.plan.at(spec)
    return spec


def test_torn_write_crash_preserves_completed_top_actions():
    """Tear the *second* transaction-boundary force mid-batch and crash.
    Transaction 1's top actions are committed; after recovery their new
    pages must still hold the tree's left half — and the overall key set
    must be exactly what it was before the rebuild."""
    engine, index, expected = build_fragmented(plan=FaultPlan(seed=5))

    # txn_flushed carries the new page ids; txn_committed (fired after the
    # commit) tells us that flushed set is now a completed transaction.
    flushed: dict = {"pages": []}
    committed_pages: list[list[int]] = []
    engine.syncpoints.on(
        "rebuild.txn_flushed",
        lambda ctx: flushed.__setitem__("pages", ctx["new_pages"]),
    )
    engine.syncpoints.on(
        "rebuild.txn_committed",
        lambda ctx: committed_pages.append(list(flushed["pages"])),
    )

    arm_after_build(
        engine,
        nth_in_rebuild=2,  # txn 2's boundary force
        kind=FaultKind.TORN,
        pages_persisted=1,
        torn_byte=512,
        crash=True,
    )
    with pytest.raises(CrashPoint):
        OnlineRebuild(index, CONFIG).run()
    assert committed_pages, "txn 1 should have committed before the tear"

    engine.crash()
    engine.ctx.disk.disarm()
    engine.recover()
    index = engine.index(1)
    index.verify()
    assert contents_as_ints(index) == expected
    # Completed top actions survive: every new page of the committed
    # transaction is still an allocated page of the recovered tree.
    alloc = engine.ctx.page_manager
    for pages in committed_pages:
        for page in pages:
            assert alloc.is_allocated(page), f"committed page {page} vanished"


def test_transient_storm_never_aborts_rebuild():
    """30% failure on every read and write: the retry layer absorbs all of
    it and the rebuild completes with the right contents."""
    plan = FaultPlan(
        seed=9, transient_read_rate=0.3, transient_write_rate=0.3
    )
    engine = Engine(buffer_capacity=2048, io_retry_limit=20)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 3000)
    expected = contents_as_ints(index)
    # Inject the storm only for the rebuild phase: swap the plan in after
    # the (clean) build so the storm's scope is the thing under test.  A
    # cold buffer makes the rebuild actually read from the faulty disk.
    from repro.storage.faults import FaultyDisk

    engine.ctx.buffer.evict_all()
    engine.ctx.buffer.disk = FaultyDisk(
        engine.ctx.disk, plan, counters=engine.counters
    )
    try:
        report = OnlineRebuild(index, CONFIG).run()
    finally:
        engine.ctx.buffer.disk = engine.ctx.disk
    assert not report.aborted
    assert engine.counters.faults_injected > 0, "the storm never fired"
    assert engine.counters.io_retries > 0
    index.verify()
    assert contents_as_ints(index) == expected


def test_permanent_error_aborts_cleanly_and_rebuild_is_rerunnable():
    engine, index, expected = build_fragmented(plan=FaultPlan(seed=2))
    arm_after_build(engine, nth_in_rebuild=2, kind=FaultKind.PERMANENT)
    with pytest.raises(RebuildAbortedError):
        OnlineRebuild(index, CONFIG).run()
    # Clean abort: consistent tree, nothing lost, no stuck latches.
    index.verify()
    assert contents_as_ints(index) == expected
    # The fault has cleared (specs fire once): a re-run completes.
    report = OnlineRebuild(index, CONFIG).run()
    assert not report.aborted
    index.verify()
    assert contents_as_ints(index) == expected


def test_permanent_error_keeps_old_pages_when_abort_flush_also_fails():
    """If the disk is so broken that even the abort's flush fails, the §3
    ordering must still hold: deallocated old pages are NOT freed (freeing
    before the new pages are durable is what the paper forbids)."""
    engine, index, expected = build_fragmented(plan=FaultPlan(seed=3))
    faulty = engine.ctx.disk
    base = faulty.calls["write_many"]
    faulty.plan.at(
        FaultSpec(op="write_many", nth=base + 2, kind=FaultKind.PERMANENT)
    )
    faulty.plan.at(
        FaultSpec(op="write_many", nth=base + 3, kind=FaultKind.PERMANENT)
    )
    with pytest.raises(RebuildAbortedError):
        OnlineRebuild(index, CONFIG).run()
    index.verify()
    assert contents_as_ints(index) == expected
    # Recovery (fault now cleared) flushes, frees, and leaves no debris.
    engine.crash()
    engine.recover()
    index = engine.index(1)
    index.verify()
    assert contents_as_ints(index) == expected
    assert engine.ctx.page_manager.deallocated_pages() == []


def test_mixed_workload_records_faulted_ops():
    plan = FaultPlan(
        seed=13,
        transient_read_rate=0.2,
        transient_write_rate=0.2,
        max_rate_faults=6,
    )
    engine = Engine(
        buffer_capacity=2048,
        lock_timeout=10.0,
        io_retry_limit=0,  # no retries: every injected fault reaches the op
    )
    index = engine.create_index(key_len=4)
    make_half_empty(index, 2000)
    from repro.storage.faults import FaultyDisk

    # Cold buffer: worker scans and inserts must fetch from the faulty disk.
    engine.ctx.buffer.evict_all()
    engine.ctx.buffer.disk = FaultyDisk(
        engine.ctx.disk, plan, counters=engine.counters
    )
    try:
        workload = MixedWorkload(
            index, intkey, key_count=2000, threads=2, seed=1
        )
        stats = workload.run_for(0.5)
    finally:
        engine.ctx.buffer.disk = engine.ctx.disk
    assert stats.faults > 0, "no fault ever reached a worker op"
    fault_errors = [
        e
        for e in stats.errors
        if e.split(" ")[0] in ("insert", "delete", "scan")
    ]
    assert fault_errors, stats.errors
    # Workers survived the faults and kept operating.
    assert not any(e.startswith("stuck:") for e in stats.errors)
    assert stats.operations > stats.faults

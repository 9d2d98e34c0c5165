"""Engine-level crash recovery tests (committed vs loser transactions,
nested top actions, deallocated-page freeing)."""

import pytest

from repro import Engine
from repro.concurrency.syncpoints import CrashPoint
from repro.storage.page import Page, PageFlag
from repro.storage.page_manager import PageState
from repro.wal.recovery import RecoveryManager
from tests.conftest import contents_as_ints, fill_index, intkey


def crash_recover(engine: Engine):
    engine.crash()
    return engine.recover()


def test_committed_inserts_survive(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 300)
    report = crash_recover(engine)
    index = engine.index(1)
    assert contents_as_ints(index) == list(range(300))
    index.verify()
    assert report.loser_txns == []


def test_unflushed_log_tail_vanishes(engine):
    index = engine.create_index(key_len=4)
    index.insert(intkey(1), 1)
    engine.ctx.log.flush_all()
    index.insert(intkey(2), 2)  # commit record flushed: durable
    # Append a begin without ever flushing it.
    txn = engine.ctx.txns.begin()
    crash_recover(engine)
    index = engine.index(1)
    assert contents_as_ints(index) == [1, 2]


def test_loser_transaction_rolled_back(engine):
    index = engine.create_index(key_len=4)
    index.insert(intkey(1), 1)
    txn = engine.ctx.txns.begin()
    index.insert(intkey(2), 2, txn=txn)
    engine.ctx.log.flush_all()  # durable but uncommitted
    report = crash_recover(engine)
    index = engine.index(1)
    assert contents_as_ints(index) == [1]
    assert report.loser_txns == [txn.txn_id]
    assert report.records_undone >= 1
    index.verify()


def test_completed_nta_survives_loser_txn(engine):
    """A split inside a loser transaction is kept (nested top action)."""
    index = engine.create_index(key_len=4)
    fill_index(index, 150, seed=None)  # ascending, leaves nearly full
    height_before = index.height()
    txn = engine.ctx.txns.begin()
    # Force more splits inside an uncommitted transaction.
    for k in range(1000, 1400):
        index.insert(intkey(k), k, txn=txn)
    engine.ctx.log.flush_all()
    crash_recover(engine)
    index = engine.index(1)
    # The inserted rows are gone but the structure is valid and the splits'
    # page allocations were preserved-or-released consistently.
    assert contents_as_ints(index) == list(range(150))
    stats = index.verify()
    assert stats.height >= height_before


def test_recovery_frees_deallocated_pages(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 400)
    # Shrink some pages by deleting a whole key range, then crash after
    # flushing the log but before any checkpoint.
    for k in range(0, 200):
        index.delete(intkey(k), k)
    engine.ctx.log.flush_all()
    crash_recover(engine)
    index = engine.index(1)
    assert contents_as_ints(index) == list(range(200, 400))
    # No page may be left in the deallocated limbo state (§4.1.3).
    assert engine.ctx.page_manager.deallocated_pages() == []


def test_recovery_is_idempotent(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 250)
    crash_recover(engine)
    first = contents_as_ints(engine.index(1))
    crash_recover(engine)
    assert contents_as_ints(engine.index(1)) == first
    engine.index(1).verify()


def test_recovery_restores_catalog_from_checkpoint(engine):
    index = engine.create_index(key_len=8)
    index.insert(b"k" * 8, 5)
    engine.checkpoint()
    crash_recover(engine)
    index = engine.index(1)
    assert index.key_len == 8
    assert index.lookup(b"k" * 8) == [5]


def test_crash_during_split_rolls_back_cleanly(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 160, seed=None)
    expected = contents_as_ints(index)
    engine.ctx.log.flush_all()

    def boom(ctx):
        raise CrashPoint("split.leaf_done")

    engine.syncpoints.once("split.leaf_done", boom)
    with pytest.raises(CrashPoint):
        for k in range(5000, 6000):
            index.insert(intkey(k), k)
    inserted = [k for k in range(5000, 6000) if index.contains(intkey(k), k)]
    crash_recover(engine)
    index = engine.index(1)
    got = contents_as_ints(index)
    # Everything durable before the crash survives; the in-flight split's
    # transaction is gone or rolled back; the tree is structurally sound.
    assert [k for k in got if k < 5000] == expected
    index.verify()


def test_clear_protocol_bits_after_crash(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 160, seed=None)
    engine.ctx.log.flush_all()
    engine.syncpoints.once(
        "split.leaf_done", lambda ctx: (_ for _ in ()).throw(CrashPoint("x"))
    )
    with pytest.raises(CrashPoint):
        for k in range(5000, 6000):
            index.insert(intkey(k), k)
    crash_recover(engine)
    # verify() rejects any page still carrying SPLIT/SHRINK bits.
    engine.index(1).verify()


def test_restart_clears_the_bit_of_a_leaf_its_undo_puts_back(
    engine, monkeypatch
):
    """A loser's shrink froze leaf L with its SHRINK bit, L's image with
    the bit reached disk, L's DEALLOC is durable, and the machine stopped
    before the shrink's NTA_END.  The sweep before undo passes L by: it
    is deallocated then.  Undo allocates L again and puts it back under
    its parent; its bit must not come back with it, or every descent
    that reaches L waits, again and again, for a top action that no
    longer exists — restart's own descent for the loser's row first."""
    from repro.concurrency.locks import LockManager
    from repro.testing import NOTHING_LEFT, left_behind

    index = engine.create_index(key_len=4)
    fill_index(index, 2000, seed=None)
    leaves = index.verify().leaf_page_ids
    victim = leaves[len(leaves) // 2]
    page = engine.buffer.fetch(victim)
    keys = [int.from_bytes(row[:4], "big") for row in page.rows]
    engine.buffer.unpin(victim)
    engine.checkpoint()

    def stop(_ctx):
        engine.log.flush_all()
        raise CrashPoint("shrink.propagated")

    engine.syncpoints.once(
        "shrink.leaf_frozen", lambda ctx: engine.buffer.flush_page(ctx["page"])
    )
    engine.syncpoints.once("shrink.propagated", stop)
    txn = engine.ctx.txns.begin()
    with pytest.raises(CrashPoint):
        for k in keys:
            index.delete(intkey(k), k, txn=txn)
    engine.crash()
    disk = engine.ctx.disk
    image = Page.from_bytes(disk.read(victim), disk.page_size)
    assert image.flags & PageFlag.SHRINK

    # One thread runs: a bit it waits for is one that nobody holds.
    waits = []
    wait_instant = LockManager.wait_instant

    def bounded(self, *args, **kwargs):
        waits.append(args)
        assert len(waits) < 50, f"descents spin on a stale bit: {args}"
        return wait_instant(self, *args, **kwargs)

    monkeypatch.setattr(LockManager, "wait_instant", bounded)
    report = engine.recover()
    assert report.loser_txns == [txn.txn_id]
    assert left_behind(engine) == NOTHING_LEFT
    index = engine.index(1)
    index.verify()
    assert contents_as_ints(index) == list(range(2000))
    assert all(index.contains(intkey(k), k) for k in keys)
    index.delete(intkey(keys[0]), keys[0])
    index.insert(intkey(keys[0]), keys[0])
    assert index.contains(intkey(keys[0]), keys[0])


def test_multiple_crash_cycles(engine):
    index = engine.create_index(key_len=4)
    keys = list(range(0, 900, 3))
    for k in keys:
        index.insert(intkey(k), k)
    for round_no in range(3):
        crash_recover(engine)
        index = engine.index(1)
        assert contents_as_ints(index) == keys
        index.insert(intkey(1000 + round_no), 1000 + round_no)
        keys = sorted(keys + [1000 + round_no])
    index.verify()


def test_crash_rewires_latches_locks_and_txns_as_create_did():
    """``crash()`` used to re-create the volatile managers by hand and
    drop ``lock_timeout``: every latch and lock waited the 30 s default
    after the first crash."""
    engine = Engine(lock_timeout=0.2, trace=True)
    index = engine.create_index(key_len=4)
    index.insert(intkey(1), 1)
    before = (engine.ctx.latches, engine.ctx.locks, engine.ctx.txns)
    engine.crash()
    engine.recover()
    ctx = engine.ctx
    assert ctx.latches.timeout == ctx.locks.timeout == 0.2
    assert ctx.latches.metrics is ctx.metrics  # the tracing hook
    assert ctx.txns.lock_manager is ctx.locks
    assert all(new is not old for new, old in zip(
        (ctx.latches, ctx.locks, ctx.txns), before
    ))
    assert contents_as_ints(engine.index(1)) == [1]


def test_bit_sweep_reads_by_run_and_skips_a_rotted_page():
    """The post-recovery bit sweep reads what redo left on disk a run at a
    time; a rotted page — met as the fetched page or as a run neighbour —
    is left for the scrubber, and the pages around it are still swept."""
    from repro.errors import ChecksumError
    from repro.storage.faults import FaultPlan
    from repro.storage.page import PageFlag

    engine = Engine(
        io_size=16384, buffer_capacity=2048, lock_timeout=15.0,
        fault_plan=FaultPlan(),
    )
    index = engine.create_index(key_len=4)
    fill_index(index, 3000)
    ppio = engine.ctx.disk.pages_per_io
    allocated = engine.ctx.page_manager.allocated_pages()
    leaves = set(index.verify().leaf_page_ids)
    # A leaf in the middle of an aligned run whose two neighbours are
    # allocated too: one gets rot, the other a stale SPLIT bit.
    victim = next(
        pid for pid in allocated
        if pid in leaves and (pid - 1) % ppio == 3
        and {pid - 1, pid + 1} <= set(allocated)
    )
    flagged = victim + 1
    page = engine.buffer.fetch(flagged)
    page.set_flag(PageFlag.SPLIT)
    engine.buffer.unpin(flagged, dirty=True)
    engine.checkpoint()  # everything on disk, nothing left to redo
    assert engine.ctx.disk.plant_rot(victim, bit=321)
    engine.crash()

    sweep = {}
    original = RecoveryManager._clear_protocol_bits

    def measured(self):
        before = self.counters.snapshot()
        original(self)
        self.buffer.flush_all()  # what the checkpoint after undo writes
        sweep.update(self.counters.diff(before))

    RecoveryManager._clear_protocol_bits = measured
    try:
        engine.recover()
    finally:
        RecoveryManager._clear_protocol_bits = original

    runs = len({(pid - 1) // ppio for pid in allocated})
    # One read per aligned run; the victim, absent from its run's
    # admission, costs its own attempt (the run again, then the direct
    # re-read that names the defect).  The one write is ``flagged``.
    assert sweep["disk_pages_written"] == 1
    assert sweep["disk_io_calls"] - 1 == runs + 2
    assert sweep["page_reads"] == len(allocated)
    page = engine.buffer.fetch(flagged)
    engine.buffer.unpin(flagged)
    assert page.flags == PageFlag.NONE
    assert engine.page_manager.state(victim) is PageState.ALLOCATED
    with pytest.raises(ChecksumError):
        engine.buffer.fetch(victim)
    # The rest of the index serves: a key of the swept neighbour reads.
    neighbour_key = page.rows[0][:4]
    assert engine.index(1).lookup(neighbour_key) != []


def test_clr_redo_leaves_a_later_incarnation_of_its_leaf_alone():
    """A rolled-back delete is redone by key.  The leaf the key lived on
    is freed by one rebuild pass and reallocated, forced, by the next for
    another key range; the CLR's redo reaches that image and must see from
    its timestamp that it is not the page the CLR changed."""
    from repro import OnlineRebuild, RebuildConfig

    engine = Engine(page_size=2048, io_size=16384, buffer_capacity=512)
    index = engine.create_index(key_len=4)
    for k in range(0, 306, 2):
        index.insert(intkey(k), k, payload=bytes([k % 251]) * 40)
    engine.checkpoint()
    for k in range(40, 306, 2):
        if k % 5:
            index.delete(intkey(k), k)
    txn = engine.ctx.txns.begin()
    index.delete(intkey(38), 38, txn=txn)
    engine.ctx.txns.abort(txn)
    expected = contents_as_ints(index)
    config = RebuildConfig(ntasize=1, xactsize=2)
    OnlineRebuild(index, config).run()
    OnlineRebuild(index, config).run()
    crash_recover(engine)
    engine.index(1).verify()
    assert contents_as_ints(engine.index(1)) == expected

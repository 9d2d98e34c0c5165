"""Redo parks the records of pages a committed rebuild freed.

Each test loads an index, checkpoints it, inserts into every leaf after
the checkpoint, runs a pass and crashes with every frame dropped.  A
single-page record on a page that a committed transaction deallocates
later in the log is parked: never fetched, decoded, applied or written,
unless a barrier reads the page before that DEALLOC.  A pass whose
transaction is a loser parks nothing; a committed one parks every record
on its old leaves; and when the device lost a forced write of the pass's
new pages, KEYCOPY redo finds its targets stale and catches their
sources up before it copies from them.
"""

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.storage.buffer import BufferPool
from repro.storage.faults import FaultKind, FaultPlan, FaultSpec
from repro.wal.apply import SINGLE_PAGE_REDO
from repro.wal.records import RecordType
from repro.workload.builder import bulk_load
from tests.conftest import committed_deallocs, intkey

KEYS = 4000
CONFIG = RebuildConfig(ntasize=4, xactsize=8)


def loaded_engine():
    """An index of even keys, checkpointed, then an odd key inserted into
    every leaf and committed.  Returns the engine, the index and its
    contents."""
    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=4096,
        fault_plan=FaultPlan(), trace=True,
    )
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(KEYS)], 4, fill=0.7
    )
    engine.checkpoint()
    for i in range(0, KEYS, 20):
        tree.insert(intkey(2 * i + 1), KEYS + i)
    return engine, tree, tree.contents()


def pass_records(engine):
    """The durable log past the last checkpoint: the pass's DEALLOCed
    pages, whether their transaction committed, and the single-page
    records on each of them before its DEALLOC."""
    durable = list(engine.log.scan(durable_only=True))
    checkpoint_lsn = max(
        r.lsn for r in durable if r.type is RecordType.CHECKPOINT
    )
    past = [r for r in durable if r.lsn > checkpoint_lsn]
    committed = {r.lsn for r in committed_deallocs(durable)}
    freed: dict[int, tuple[int, bool]] = {}
    for rec in past:
        if rec.type is RecordType.DEALLOC:
            for pid in rec.page_ids:
                freed[pid] = (rec.lsn, rec.lsn in committed)
    on_freed = [
        r for r in past
        if r.type in SINGLE_PAGE_REDO
        and r.page_id in freed and r.lsn < freed[r.page_id][0]
    ]
    return freed, on_freed


def recover_watching_fetches(engine, monkeypatch):
    """Recover; returns the counter deltas and every page id fetched."""
    fetched = []
    fetch = BufferPool.fetch

    def watching(pool, page_id, *args, **kwargs):
        fetched.append(page_id)
        return fetch(pool, page_id, *args, **kwargs)

    monkeypatch.setattr(BufferPool, "fetch", watching)
    before = engine.counters.snapshot()
    engine.recover()
    monkeypatch.undo()
    return engine.counters.diff(before), fetched


def restarted_engine():
    """:func:`loaded_engine` after a committed pass, a crash and a
    recovery, with an odd key inserted again into every leaf: the txn
    ids of this run start again at 1, under the ids the first run
    committed."""
    engine, tree, _expected = loaded_engine()
    OnlineRebuild(tree, CONFIG).run()
    engine.crash()
    engine.recover()
    tree = engine.index(1)
    for i in range(10, KEYS, 20):
        tree.insert(intkey(2 * i + 1), KEYS + i)
    return engine, tree, tree.contents()


@pytest.mark.parametrize("setup", [loaded_engine, restarted_engine])
def test_nothing_is_parked_for_a_loser_transaction(monkeypatch, setup):
    engine, tree, expected = setup()

    def crash(_ctx):
        raise CrashPoint("rebuild.nta_end")

    engine.syncpoints.once("rebuild.nta_end", crash)
    with pytest.raises(CrashPoint):
        OnlineRebuild(tree, RebuildConfig(ntasize=4, xactsize=64)).run()
    engine.log.flush_all()  # the top action's DEALLOC is durable, no commit
    engine.crash()
    freed, on_freed = pass_records(engine)
    assert freed and not any(done for _lsn, done in freed.values())
    assert on_freed
    if setup is restarted_engine:
        # The loser's id committed in the first run, before the
        # recovery's checkpoint.
        durable = list(engine.log.scan(durable_only=True))
        (loser,) = {r.txn_id for r in durable if r.lsn > on_freed[0].lsn
                    and r.type is RecordType.DEALLOC}
        assert any(
            r.type is RecordType.TXN_COMMIT and r.txn_id == loser
            and r.lsn < on_freed[0].lsn
            for r in durable
        )

    delta, fetched = recover_watching_fetches(engine, monkeypatch)
    assert delta["recovery_records_parked"] == 0
    assert delta["recovery_pages_caught_up"] == 0
    assert set(freed) <= set(fetched)
    engine.index(1).verify()
    assert engine.index(1).contents() == expected


def test_a_committed_pass_leaves_its_old_leaves_unread(monkeypatch):
    engine, tree, expected = loaded_engine()
    OnlineRebuild(tree, CONFIG).run()
    engine.crash()
    freed, on_freed = pass_records(engine)
    assert len(freed) > 20 and all(done for _lsn, done in freed.values())
    assert {r.page_id for r in on_freed} == set(freed)

    delta, fetched = recover_watching_fetches(engine, monkeypatch)
    assert delta["recovery_records_parked"] == len(on_freed)
    assert delta["recovery_pages_caught_up"] == 0
    assert not set(freed) & set(fetched)
    engine.index(1).verify()
    assert engine.index(1).contents() == expected


def test_a_lost_forced_write_catches_the_sources_up(monkeypatch):
    """The device acknowledges the first force of the pass's new pages
    and stores none of them, then the machine stops.  The transaction
    committed, so its old leaves are dead and their records parked; the
    KEYCOPYs find their targets stale and read those leaves, which must
    carry the inserts logged after the checkpoint."""
    engine, tree, expected = loaded_engine()
    disk = engine.ctx.disk
    disk.plan.at(
        FaultSpec(
            op="write_many", nth=disk.calls["write_many"] + 1,
            kind=FaultKind.LOST, crash=True,
        )
    )
    with pytest.raises(CrashPoint):
        OnlineRebuild(tree, CONFIG).run()
    assert disk.plan.injected == ["lost:write_many#%d@0+crash"
                                  % disk.calls["write_many"]]
    engine.crash()
    disk.disarm()
    freed, on_freed = pass_records(engine)
    assert any(done for _lsn, done in freed.values())

    delta, _fetched = recover_watching_fetches(engine, monkeypatch)
    assert 0 < delta["recovery_pages_caught_up"]
    assert 0 < delta["recovery_records_parked"] <= len(on_freed)
    (redo,) = [s for s in engine.tracer.spans() if s.name == "recovery.redo"]
    assert redo.attrs["parked"] == delta["recovery_records_parked"]
    assert redo.attrs["caught_up"] == delta["recovery_pages_caught_up"]
    engine.index(1).verify()
    assert engine.index(1).contents() == expected

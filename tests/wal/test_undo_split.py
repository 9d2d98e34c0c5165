"""Undo of a leaf row that no longer fits: the undo splits the leaf.

A user row is undone by key (ARIES-IM): a completed split or rebuild top
action may have moved it.  A committed insert may also have filled the
leaf it goes back to, so a rollback, at run time or at restart, runs a
split top action of its own before it puts the row back.  Two rows of
200 bytes fill a 512-byte page."""

import pytest

from repro import Engine
from repro.concurrency.syncpoints import CrashPoint
from repro.testing import NOTHING_LEFT, left_behind
from repro.wal.records import CLR_FLAG, RecordType
from tests.conftest import intkey

PAYLOAD = b"x" * 200


def full_leaf_behind_a_delete():
    """An index of one full leaf: T has deleted key 1, then a committed
    insert took its room.  Returns the engine and T."""
    engine = Engine(page_size=512, buffer_capacity=64, lock_timeout=5.0)
    index = engine.create_index(key_len=4)
    index.insert(intkey(1), 1, payload=PAYLOAD)
    index.insert(intkey(2), 2, payload=PAYLOAD)
    txn = engine.ctx.txns.begin()
    index.delete(intkey(1), 1, txn=txn)
    index.insert(intkey(3), 3, payload=PAYLOAD)
    return engine, txn


def rows_back(engine):
    index = engine.index(1)
    index.verify()
    assert index.contents_with_payloads() == [
        (intkey(k), k, PAYLOAD) for k in (1, 2, 3)
    ]
    assert left_behind(engine) == NOTHING_LEFT


def compensations_of_the_delete(engine):
    """The CLR-flagged INSERTs in the durable log: one per row put back."""
    return [
        rec for rec in engine.log.scan(durable_only=True)
        if rec.type is RecordType.INSERT and rec.flags & CLR_FLAG
    ]


def test_runtime_abort_into_a_full_leaf_splits_it():
    engine, txn = full_leaf_behind_a_delete()
    engine.ctx.txns.abort(txn)
    assert engine.index(1).height() == 2  # the root leaf grew and split
    rows_back(engine)
    assert len(compensations_of_the_delete(engine)) == 1


def test_restart_undo_into_a_full_leaf_splits_it():
    engine, _txn = full_leaf_behind_a_delete()  # T's delete is durable
    engine.crash()
    report = engine.recover()
    assert len(report.loser_txns) == 1
    rows_back(engine)
    assert len(compensations_of_the_delete(engine)) == 1


def test_a_crash_between_the_undo_split_and_its_row_hops_the_split():
    """The first restart's split completes (its NTA_END is durable) and
    the machine stops before the row goes back.  The second restart hops
    the completed split and puts the row back once."""
    engine, _txn = full_leaf_behind_a_delete()
    engine.crash()

    def stop(_ctx):
        engine.log.flush_all()
        raise CrashPoint("split.nta_end")

    engine.syncpoints.once("split.nta_end", stop)
    with pytest.raises(CrashPoint):
        engine.recover()
    durable = list(engine.log.scan(durable_only=True))
    assert durable[-1].type is RecordType.NTA_END
    assert compensations_of_the_delete(engine) == []
    engine.crash()
    engine.recover()
    rows_back(engine)
    assert len(compensations_of_the_delete(engine)) == 1
    # The split was not done again: one NTA in the whole log.
    assert [r.type for r in engine.log.scan(durable_only=True)].count(
        RecordType.NTA_END
    ) == 1


def test_a_row_under_another_losers_nonleaf_split_is_undone():
    """T's row went in under the new half of a level-1 page whose split
    was still in flight in U's insert: T reached it through the page's
    side entry, and the machine stopped before U's split reached the
    root.  Both are losers.  Restart undoes U's incomplete split before
    T's row, so the descent that finds T's row meets the level-1 page
    whole again, not one missing its upper half."""
    from repro.btree import node

    engine = Engine(page_size=512, buffer_capacity=256, lock_timeout=5.0)
    index = engine.create_index(key_len=4)
    k = 0
    while index.height() < 3:
        index.insert(intkey(2 * k), 2 * k)
        k += 1
    txn = engine.ctx.txns.begin()
    placed = []

    def insert_under_the_new_half(ctx):
        sibling = engine.buffer.fetch(ctx["new_page"])
        first_leaf = node.entry_child(sibling.rows[0])
        engine.buffer.unpin(ctx["new_page"])
        leaf = engine.buffer.fetch(first_leaf)
        key = int.from_bytes(leaf.rows[0][:4], "big") + 1
        engine.buffer.unpin(first_leaf)
        index.insert(intkey(key), key, txn=txn)
        placed.append(key)
        engine.log.flush_all()
        raise CrashPoint("split.nonleaf_done")

    engine.syncpoints.once("split.nonleaf_done", insert_under_the_new_half)
    with pytest.raises(CrashPoint):
        while True:
            index.insert(intkey(2 * k), 2 * k)
            k += 1
    assert index.contains(intkey(placed[0]), placed[0], txn=txn)
    engine.crash()
    report = engine.recover()
    assert len(report.loser_txns) == 2
    index = engine.index(1)
    index.verify()
    assert index.contents() == [(intkey(2 * i), 2 * i) for i in range(k)]
    assert left_behind(engine) == NOTHING_LEFT

"""Deterministic interleaving tests for the paper's protocol claims (§2, §6.2).

Each test parks an engine thread at a syncpoint mid-top-action and probes
the tree from the main thread, asserting exactly who is blocked and who is
allowed through:

* SPLIT bits block writers but not readers (§2.2);
* a traversal arriving at the old page of an in-flight split follows the
  side entry to the new page (§2.3);
* SHRINK bits (rebuild copy phase) block readers too (§2.4, §4.1.1);
* blocked operations resume and succeed once the top action completes.
"""

import threading
import time

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.btree.top_action import TopAction
from repro.concurrency.latch import LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.concurrency.syncpoints import Rendezvous
from repro.core.copy_phase import _acquire_page
from repro.storage.page import PageFlag
from tests.conftest import fill_index, intkey


@pytest.fixture
def engine() -> Engine:
    return Engine(buffer_capacity=2048, lock_timeout=10.0)


def run_thread(fn) -> threading.Thread:
    t = threading.Thread(target=fn, daemon=True)
    t.start()
    return t


def make_full_tree(engine: Engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 600, seed=None)  # ascending: many near-full leaves
    return index


def test_split_bit_blocks_concurrent_writer_until_nta_end(engine):
    index = make_full_tree(engine)
    rv = Rendezvous(timeout=10.0)
    engine.syncpoints.once("split.leaf_done", rv.engine_arrived)

    split_ctx = {}
    engine.syncpoints.once(
        "split.bits_set", lambda ctx: split_ctx.update(ctx)
    )

    def splitter():
        # Appending keys forces a split of the rightmost leaf.
        for k in range(10_000, 10_200):
            index.insert(intkey(k), k)

    t = run_thread(splitter)
    rv.wait_engine()
    # The split is parked with SPLIT bits set and latches released.
    old_page = split_ctx["page"]
    writer_done = threading.Event()

    def blocked_writer():
        # This delete targets the split page's key range: must wait.
        index.delete(intkey(599), 599)
        writer_done.set()

    w = run_thread(blocked_writer)
    assert not writer_done.wait(0.3), "writer ran through a SPLIT bit"
    rv.release()
    assert writer_done.wait(10), "writer never unblocked after NTA end"
    t.join(10)
    w.join(10)
    index.verify()


def test_split_bit_allows_concurrent_reader(engine):
    index = make_full_tree(engine)
    rv = Rendezvous(timeout=10.0)
    engine.syncpoints.once("split.leaf_done", rv.engine_arrived)

    def splitter():
        for k in range(10_000, 10_200):
            index.insert(intkey(k), k)

    t = run_thread(splitter)
    rv.wait_engine()
    # Readers pass SPLIT bits (§2.2): point reads in the split range work
    # while the split is still parked.
    assert index.contains(intkey(599), 599)
    assert index.contains(intkey(0), 0)
    rv.release()
    t.join(10)
    index.verify()


def test_side_entry_routes_reader_to_new_page(engine):
    index = make_full_tree(engine)
    rv = Rendezvous(timeout=10.0)
    split_info = {}

    def capture_and_park(ctx):
        split_info.update(ctx)
        rv.engine_arrived(ctx)

    engine.syncpoints.once("split.leaf_done", capture_and_park)

    def splitter():
        for k in range(10_000, 10_200):
            index.insert(intkey(k), k)

    t = run_thread(splitter)
    rv.wait_engine()
    # Keys >= the side key moved to the new page; the parent has no entry
    # for it yet, so a lookup can only succeed through the side entry.
    side_key = split_info["side_key"]
    moved = int.from_bytes(side_key[:4].ljust(4, b"\x00"), "big")
    # Find an existing key at/above the side key.
    probe = next(
        k for k in range(599, -1, -1)
        if intkey(k) + k.to_bytes(6, "big") >= side_key
    )
    assert index.contains(intkey(probe), probe)
    rv.release()
    t.join(10)
    index.verify()


def test_rebuild_shrink_bits_block_readers_then_release(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 800, seed=None)
    for k in range(0, 800, 2):
        index.delete(intkey(k), k)
    rv = Rendezvous(timeout=10.0)
    locked = {}

    def park(ctx):
        locked.update(ctx)
        rv.engine_arrived(ctx)

    engine.syncpoints.once("rebuild.copy_locked", park)

    def rebuilder():
        OnlineRebuild(index, RebuildConfig(ntasize=8, xactsize=32)).run()

    t = run_thread(rebuilder)
    rv.wait_engine()
    reader_done = threading.Event()

    def blocked_reader():
        index.contains(intkey(1), 1)  # key on a SHRINK-bitted source page
        reader_done.set()

    r = run_thread(blocked_reader)
    assert not reader_done.wait(0.3), "reader ran through a SHRINK bit"
    rv.release()
    assert reader_done.wait(15), "reader never unblocked"
    t.join(30)
    r.join(10)
    index.verify()


def test_rollback_waits_out_the_rebuild_top_action(engine):
    """A runtime rollback puts a row back through the index's writer
    descent.  T's delete is undone while a rebuild top action has frozen
    and copied T's leaf: the undo waits for the top action's end (§2.6)
    and puts the row into the leaf that holds its range then.  A bare
    descent put it into the frozen source leaf, which the top action
    deallocated — the row was gone and ``verify()`` still passed.  The
    fillfactor leaves the new leaves room for the row: undo into a full
    leaf is a separate hole (ROADMAP item 1(c))."""
    index = engine.create_index(key_len=4)
    fill_index(index, 800, seed=None)
    for k in range(0, 800, 2):
        if k != 2:
            index.delete(intkey(k), k)
    txn = engine.ctx.txns.begin()
    index.delete(intkey(2), 2, txn=txn)
    rv = Rendezvous(timeout=10.0)
    engine.syncpoints.once("rebuild.copy_locked", rv.engine_arrived)

    def rebuilder():
        OnlineRebuild(
            index, RebuildConfig(ntasize=8, xactsize=32, fillfactor=0.9)
        ).run()

    t = run_thread(rebuilder)
    rv.wait_engine()
    aborted = threading.Event()

    def abort():
        engine.ctx.txns.abort(txn)
        aborted.set()

    a = run_thread(abort)
    assert not aborted.wait(0.3), "the undo ran through a SHRINK bit"
    rv.release()
    assert aborted.wait(15), "the undo never unblocked"
    t.join(30)
    a.join(10)
    assert not t.is_alive() and not a.is_alive()
    assert index.contains(intkey(2), 2)
    index.verify()


def test_split_then_shrink_mode_allows_readers_during_copy(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 800, seed=None)
    for k in range(0, 800, 2):
        index.delete(intkey(k), k)
    rv = Rendezvous(timeout=10.0)
    engine.syncpoints.once("rebuild.copy_locked", rv.engine_arrived)

    def rebuilder():
        OnlineRebuild(
            index,
            RebuildConfig(ntasize=8, xactsize=32, split_then_shrink=True),
        ).run()

    t = run_thread(rebuilder)
    rv.wait_engine()
    # §6.2 enhancement: with SPLIT bits staged on the old leaves, readers
    # get through during the copy.
    assert index.contains(intkey(1), 1)
    rv.release()
    t.join(30)
    index.verify()


def test_scan_survives_full_rebuild(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 2000)
    for k in range(0, 2000, 2):
        index.delete(intkey(k), k)
    expected = [k for k in range(2000) if k % 2 == 1]

    scanner = index.scan()
    seen = [int.from_bytes(k, "big") for k, _ in (next(scanner),)]
    OnlineRebuild(index, RebuildConfig(ntasize=16, xactsize=64)).run()
    seen += [int.from_bytes(k, "big") for k, _ in scanner]
    assert seen == expected


def test_writer_during_rebuild_lands_correctly(engine):
    index = engine.create_index(key_len=4)
    fill_index(index, 1500)
    for k in range(0, 1500, 2):
        index.delete(intkey(k), k)
    rv = Rendezvous(timeout=10.0)
    engine.syncpoints.once("rebuild.nta_end", rv.engine_arrived)

    def rebuilder():
        OnlineRebuild(index, RebuildConfig(ntasize=8, xactsize=32)).run()

    t = run_thread(rebuilder)
    rv.wait_engine()
    inserted = threading.Event()

    def writer():
        index.insert(intkey(100_000), 100_000)
        inserted.set()

    w = run_thread(writer)
    time.sleep(0.1)
    rv.release()
    t.join(30)
    w.join(10)
    assert inserted.is_set()
    assert index.contains(intkey(100_000), 100_000)
    index.verify()


def test_address_lock_goes_with_its_bit_when_a_top_action_ends(engine):
    """Locked iff bitted (§6.5), also while the bits are being cleared: a
    writer that finds a page bit-free requests its address lock with the
    page's latch held, so a lock kept after its bit — while the clearing
    thread waits for the *next* page's latch — could never be granted.
    No sleeps: the clearing thread says when it asks for the second latch,
    which this thread holds.  Both kinds of page the one give-back hands
    back: the rebuild's, kept pinned, and split / shrink's, not pinned."""
    index = make_full_tree(engine)
    leaves = index.verify().leaf_page_ids
    _lock_goes_with_bit(engine, leaves[:2], pinned=True)
    _lock_goes_with_bit(engine, leaves[2:4], pinned=False)


def _lock_goes_with_bit(engine, pages, pinned):
    ctx = engine.ctx
    first, second = pages
    owner = ctx.txns.begin()
    top = TopAction(ctx, owner, scan=pinned)
    for pid in pages:
        if pinned:
            assert _acquire_page(top, pid, PageFlag.SHRINK)
        else:  # split / shrink hold no pin between their visits
            page = ctx.get_latched(pid, LatchMode.X)
            top.lock(page, PageFlag.SHRINK)
            ctx.release_page(pid)
    clear = top.end

    ctx.latches.acquire(second, LatchMode.S)  # a reader standing on it
    asked_for_second = threading.Event()
    acquire = ctx.latches.acquire

    def noting(page_id, mode, *shard):
        if page_id == second:
            asked_for_second.set()
        acquire(page_id, mode, *shard)

    ctx.latches.acquire = noting
    t = run_thread(clear)
    assert asked_for_second.wait(10), "the first page was never finished"

    writer = ctx.txns.begin()
    first_page = ctx.buffer.fetch(first)
    ctx.buffer.unpin(first)
    assert not first_page.has_flag(PageFlag.SHRINK)
    assert ctx.locks.try_acquire(
        writer.txn_id, LockSpace.ADDRESS, first, LockMode.X
    ), "bit cleared but address lock still held"
    assert not ctx.locks.try_acquire(
        writer.txn_id, LockSpace.ADDRESS, second, LockMode.X
    )
    ctx.locks.release(writer.txn_id, LockSpace.ADDRESS, first)

    ctx.latches.release(second)
    t.join(10)
    assert not t.is_alive()
    ctx.latches.acquire = acquire
    assert not any(ctx.buffer.pin_count(pid) for pid in pages)
    assert not ctx.locks.held_resources(owner.txn_id)

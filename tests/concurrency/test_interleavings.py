"""Deterministic interleaving tests for the paper's protocol claims (§2, §6.2).

Each test parks an engine thread at a syncpoint mid-top-action and probes
the tree from the main thread, asserting exactly who is blocked and who is
allowed through:

* SPLIT bits block writers but not readers (§2.2);
* a traversal arriving at the old page of an in-flight split follows the
  side entry to the new page (§2.3);
* SHRINK bits (rebuild copy phase) block readers too (§2.4, §4.1.1);
* blocked operations resume and succeed once the top action completes;
* a descent that read root and level 1 unlatched and is parked before it
  latches its leaf lands on the right leaf whatever changed above it
  meanwhile: a split propagated into the level-1 page, a root grow, the
  rebuild's propagation, a shrink, an eviction, a root collapse.
"""

import threading
import time

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.btree import keys as K
from repro.btree import node
from repro.btree.top_action import TopAction
from repro.btree.traversal import Traversal
from repro.concurrency.latch import LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.concurrency.syncpoints import Rendezvous
from repro.core.copy_phase import _acquire_page
from repro.storage.page import PageFlag
from repro.workload.builder import bulk_load
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


# ----------------------------------------------- unlatched upper levels


class Descent(threading.Thread):
    """One operation on its own thread, named so that
    :func:`park_before_latching` parks it and nothing else."""

    def __init__(self, fn) -> None:
        super().__init__(name="descent", daemon=True)
        self.fn = fn
        self.result = self.error = None

    def run(self) -> None:
        try:
            self.result = self.fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised by finish
            self.error = exc

    def finish(self):
        self.join(15)
        assert not self.is_alive()
        if self.error is not None:
            raise self.error
        return self.result


def park_before_latching(engine, monkeypatch, page_id) -> Rendezvous:
    """Park the descent thread the first time it asks for ``page_id``'s
    latch: it has read the pages above unlatched, holds nothing, and has
    not yet checked that they are unchanged."""
    rv = Rendezvous(timeout=10.0)
    get_latched = engine.ctx.get_latched
    parked = []

    def parking(pid, mode, *args, **kwargs):
        if (
            pid == page_id
            and not parked
            and threading.current_thread().name == "descent"
        ):
            parked.append(pid)
            assert engine.ctx.latches.held_by_me() == {}
            rv.engine_arrived()
        return get_latched(pid, mode, *args, **kwargs)

    monkeypatch.setattr(engine.ctx, "get_latched", parking)
    return rv


def route(engine, tree, key: bytes, rowid: int) -> list[int]:
    """The page ids from the root to the leaf ``(key, rowid)`` routes to."""
    unit = K.leaf_unit(key, rowid, tree.key_len)
    path = [tree.root_page_id]
    while True:
        page = engine.buffer.fetch(path[-1])
        engine.buffer.unpin(path[-1])
        if page.level == 0:
            return path
        path.append(node.child_search(page, unit, engine.counters)[1])


def leaf_keys(engine, page_id) -> list[int]:
    page = engine.buffer.fetch(page_id)
    engine.buffer.unpin(page_id)
    return [int.from_bytes(row[:4], "big") for row in page.rows]


def small_pages() -> Engine:
    """512-byte pages: a 2 000-key load is three levels high."""
    return Engine(page_size=512, buffer_capacity=4096, lock_timeout=10.0)


def loaded():
    """An engine with 2 000 even keys loaded, rowid = key // 2, and every
    image stored; the id of a leaf in the middle and its keys."""
    engine = small_pages()
    tree = bulk_load(engine, [intkey(2 * i) for i in range(2000)], 4)
    assert tree.height() == 3
    engine.checkpoint()
    leaf = tree.verify().leaf_page_ids[50]
    return engine, tree, leaf, leaf_keys(engine, leaf)


def retraversals(engine, before) -> int:
    return engine.counters.diff(before)["retraversals"]


def test_a_parked_writer_lands_on_the_new_leaf_of_a_split(monkeypatch):
    """(a) A split of the writer's leaf propagates into the level-1 page
    the writer read: the separator moved, so the leaf it was routed to no
    longer covers its key."""
    engine, tree, leaf, keys = loaded()
    key = keys[-1] - 1  # odd: the leaf's last unit
    assert route(engine, tree, intkey(key), 7)[-1] == leaf
    rv = park_before_latching(engine, monkeypatch, leaf)
    before = engine.counters.snapshot()
    writer = Descent(lambda: tree.insert(intkey(key), 7))
    writer.start()
    rv.wait_engine()
    added = []  # one key below it, many rowids, until the leaf splits
    while route(engine, tree, intkey(key), 7)[-1] == leaf:
        added.append((keys[0] + 1, 100 + len(added)))
        tree.insert(intkey(keys[0] + 1), added[-1][1])
    rv.release()
    writer.finish()
    assert retraversals(engine, before) >= 1
    assert tree.contains(intkey(key), 7)
    tree.verify()
    expected = sorted([(2 * i, i) for i in range(2000)] + added + [(key, 7)])
    assert [
        (int.from_bytes(k, "big"), r) for k, r in tree.contents()
    ] == expected


def test_a_parked_reader_lands_on_its_leaf_after_a_root_grow(monkeypatch):
    """(b) The root the reader read unlatched grows a level."""
    engine = small_pages()
    tree = engine.create_index(key_len=4)
    n = 0
    while tree.height() < 2:
        tree.insert(intkey(n), n)
        n += 1
    path = route(engine, tree, intkey(0), 0)
    assert len(path) == 2
    rv = park_before_latching(engine, monkeypatch, path[-1])
    before = engine.counters.snapshot()
    reader = Descent(lambda: tree.contains(intkey(0), 0))
    reader.start()
    rv.wait_engine()
    while tree.height() < 3:
        tree.insert(intkey(n), n)
        n += 1
    rv.release()
    assert reader.finish() is True
    assert retraversals(engine, before) >= 1
    tree.verify()
    assert len(list(tree.contents())) == n


def test_a_parked_reader_lands_on_the_rebuilt_leaf(monkeypatch):
    """(c) The rebuild copies the reader's leaf, rewrites the level-1
    page the reader read and frees the leaf.  The freed leaf still holds
    the key on disk: only the descent rule
    (:mod:`repro.testing.invariants`) tells a reader that lands on it
    from one that lands on the rebuilt leaf."""
    engine, tree, leaf, keys = loaded()
    key = keys[0]
    rv = park_before_latching(engine, monkeypatch, leaf)
    reader = Descent(lambda: tree.contains(intkey(key), key // 2))
    reader.start()
    rv.wait_engine()
    # One transaction: the freed pages are not handed out again.
    OnlineRebuild(tree, RebuildConfig(xactsize=10_000)).run()
    assert not engine.page_manager.is_allocated(leaf)
    rv.release()
    assert reader.finish() is True
    tree.verify()


def test_a_parked_writer_lands_beside_a_shrunk_leaf(monkeypatch):
    """(d) Every row of the writer's leaf is deleted meanwhile: the leaf
    is shrunk — unlinked, deallocated and freed — and its entry leaves
    the level-1 page.  The insert lands in the leaf left of it."""
    engine, tree, leaf, keys = loaded()
    key = keys[0] + 1
    rv = park_before_latching(engine, monkeypatch, leaf)
    before = engine.counters.snapshot()
    writer = Descent(lambda: tree.insert(intkey(key), 7))
    writer.start()
    rv.wait_engine()
    for k in keys:
        tree.delete(intkey(k), k // 2)
    assert not engine.page_manager.is_allocated(leaf)
    rv.release()
    writer.finish()
    assert retraversals(engine, before) >= 1
    assert tree.contains(intkey(key), 7)
    tree.verify()
    expected = sorted(
        [(2 * i, i) for i in range(2000) if 2 * i not in keys] + [(key, 7)]
    )
    assert [
        (int.from_bytes(k, "big"), r) for k, r in tree.contents()
    ] == expected


def test_a_parked_reader_revalidates_an_evicted_level1_page(monkeypatch):
    """(e) The level-1 page the reader read is evicted and read back:
    the same rows in a new frame, which the reader's check tells from
    the one it read."""
    engine, tree, leaf, keys = loaded()
    key = keys[0]
    level1 = route(engine, tree, intkey(key), key // 2)[1]
    rv = park_before_latching(engine, monkeypatch, leaf)
    before = engine.counters.snapshot()
    reader = Descent(lambda: tree.contains(intkey(key), key // 2))
    reader.start()
    rv.wait_engine()
    engine.buffer.evict_all()
    assert not engine.buffer.is_resident(level1)
    assert tree.contains(intkey(keys[-1]), keys[-1] // 2)  # reads it back
    assert engine.buffer.is_resident(level1)
    rv.release()
    assert reader.finish() is True
    assert retraversals(engine, before) >= 1
    tree.verify()


def test_a_parked_reader_is_not_handed_a_collapsed_root(monkeypatch):
    """The reader is parked just after its unlatched read of a level-1
    root, and every key is deleted meanwhile: the last leaf shrinks away
    and the root is reformatted, in place, as an empty leaf.  The root
    now reads as a page at the reader's target level, but the reader
    holds no latch on it; the descent goes on with the level it read
    inside its bracket, latches the child that read routed to, finds the
    root changed and restarts, and returns the root latched."""
    engine = small_pages()
    tree = engine.create_index(key_len=4)
    n = 0
    while tree.height() < 2:
        tree.insert(intkey(n), n)
        n += 1
    root = tree.root_page_id
    rv = Rendezvous(timeout=10.0)
    read_unlatched, traverse = Traversal._read_unlatched, Traversal.traverse
    parked, returned = [], []

    def parking(self, page_id, unit, target_level):
        read = read_unlatched(self, page_id, unit, target_level)
        if (
            page_id == root
            and read is not None
            and not parked
            and threading.current_thread().name == "descent"
        ):
            parked.append(page_id)
            rv.engine_arrived()
        return read

    def recording(self, unit, mode, target_level, txn):
        page = traverse(self, unit, mode, target_level, txn)
        if threading.current_thread().name == "descent":
            returned.append(
                (page.page_id, page.level, engine.ctx.latches.holds(page.page_id))
            )
        return page

    monkeypatch.setattr(Traversal, "_read_unlatched", parking)
    monkeypatch.setattr(Traversal, "traverse", recording)
    before = engine.counters.snapshot()
    reader = Descent(lambda: tree.contains(intkey(0), 0))
    reader.start()
    rv.wait_engine()
    for k in range(n):
        tree.delete(intkey(k), k)
    assert tree.root_page_id == root and tree.height() == 1
    rv.release()
    assert reader.finish() is False
    assert returned == [(root, 0, True)]
    assert retraversals(engine, before) >= 1
    tree.verify()
    assert list(tree.contents()) == []

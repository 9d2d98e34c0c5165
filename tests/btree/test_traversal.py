"""Unit tests for traversal: crabbing, modes, side entries, and the
§2.6.1 retraverse-from-safe-page optimization."""

import pytest

from repro.btree import keys as K
from repro.btree import node
from repro.btree.traversal import AccessMode, Traversal
from repro.concurrency.latch import LatchMode
from repro.errors import TreeStructureError
from repro.storage.page import PageFlag, PageType
from repro.storage.page_manager import PageState
from tests.conftest import fill_index, intkey


def unit(i: int) -> bytes:
    return K.leaf_unit(intkey(i), i, 4)


@pytest.fixture(scope="module")
def tall_engine():
    from repro import Engine

    engine = Engine(buffer_capacity=4096, lock_timeout=15.0)
    index = engine.create_index(key_len=4)
    fill_index(index, 20000, seed=None)
    assert index.height() >= 3
    return engine


@pytest.fixture
def engine(tall_engine):
    return tall_engine


@pytest.fixture
def tall_index(tall_engine):
    return tall_engine.index(1)


def release(engine, page):
    engine.ctx.release_page(page.page_id)


def test_reader_reaches_correct_leaf(engine, tall_index):
    txn = engine.ctx.txns.begin()
    trav = Traversal(engine.ctx, tall_index)
    for probe in (0, 1234, 5999):
        leaf = trav.traverse(unit(probe), AccessMode.READER, 0, txn)
        assert leaf.page_type is PageType.LEAF
        _pos, found = node.leaf_search(leaf, unit(probe), engine.counters)
        assert found
        assert engine.ctx.latches.holds(leaf.page_id, LatchMode.S)
        release(engine, leaf)
    engine.ctx.txns.commit(txn)


def test_writer_gets_x_latch_at_target(engine, tall_index):
    txn = engine.ctx.txns.begin()
    trav = Traversal(engine.ctx, tall_index)
    leaf = trav.traverse(unit(10), AccessMode.WRITER, 0, txn)
    assert engine.ctx.latches.holds(leaf.page_id, LatchMode.X)
    release(engine, leaf)
    engine.ctx.txns.commit(txn)


def test_traverse_to_intermediate_level(engine, tall_index):
    txn = engine.ctx.txns.begin()
    trav = Traversal(engine.ctx, tall_index)
    page = trav.traverse(unit(3000), AccessMode.WRITER, 1, txn)
    assert page.level == 1
    assert page.page_type is PageType.NONLEAF
    release(engine, page)
    engine.ctx.txns.commit(txn)


def test_traverse_above_root_raises(engine, index):
    index.insert(intkey(1), 1)
    txn = engine.ctx.txns.begin()
    trav = Traversal(engine.ctx, index)
    with pytest.raises(TreeStructureError):
        trav.traverse(unit(1), AccessMode.READER, 5, txn)
    engine.ctx.txns.commit(txn)


def test_no_latches_leak_after_traverse(engine, tall_index):
    txn = engine.ctx.txns.begin()
    trav = Traversal(engine.ctx, tall_index)
    leaf = trav.traverse(unit(42), AccessMode.READER, 0, txn)
    release(engine, leaf)
    assert engine.ctx.latches.held_by_me() == {}
    engine.ctx.txns.commit(txn)


def test_side_entry_redirect(engine, tall_index):
    """A page with OLDPGOFSPLIT redirects matching keys to its sibling."""
    ctx = engine.ctx
    txn = ctx.txns.begin()
    trav = Traversal(ctx, tall_index)
    leaf = trav.traverse(unit(100), AccessMode.READER, 0, txn)
    left_id = leaf.page_id
    right_id = leaf.next_page
    split_at = leaf.rows[len(leaf.rows) // 2]
    ctx.release_page(left_id)

    # Manufacture an in-flight-split state by hand.
    page = ctx.buffer.fetch(left_id)
    page.set_side_entry(split_at, right_id)
    page.set_flag(PageFlag.OLDPGOFSPLIT)
    page.set_flag(PageFlag.SPLIT)
    ctx.buffer.unpin(left_id, dirty=True)

    try:
        # A reader looking for a key >= the side key lands on the sibling.
        found = trav.traverse(split_at, AccessMode.READER, 0, txn)
        assert found.page_id == right_id
        ctx.release_page(right_id)
        # A key below the side key stays on the old page (readers pass
        # the SPLIT bit).
        low = trav.traverse(page.rows[0], AccessMode.READER, 0, txn)
        assert low.page_id == left_id
        ctx.release_page(left_id)
    finally:
        page = ctx.buffer.fetch(left_id)
        page.clear_side_entry()
        page.clear_flag(PageFlag.SPLIT)
        ctx.buffer.unpin(left_id, dirty=True)
        ctx.txns.commit(txn)


def test_remembered_path_reused(engine, tall_index):
    """§2.6.1: a reused Traversal restarts from a safe remembered page, so
    repeated nearby traversals touch far fewer pages than root-to-leaf."""
    ctx = engine.ctx
    txn = ctx.txns.begin()
    trav = Traversal(ctx, tall_index)
    leaf = trav.traverse(unit(3000), AccessMode.READER, 0, txn)
    ctx.release_page(leaf.page_id)
    before = ctx.counters.snapshot()
    for i in range(3001, 3021):
        leaf = trav.traverse(unit(i), AccessMode.READER, 0, txn)
        ctx.release_page(leaf.page_id)
    warm = ctx.counters.diff(before)["pages_visited"]

    fresh_total = 0
    before = ctx.counters.snapshot()
    for i in range(3001, 3021):
        fresh = Traversal(ctx, tall_index)
        leaf = fresh.traverse(unit(i), AccessMode.READER, 0, txn)
        ctx.release_page(leaf.page_id)
    fresh_total = ctx.counters.diff(before)["pages_visited"]
    # Safe-page restarts skip the root for all 20 nearby traversals.
    assert warm < fresh_total
    engine.ctx.txns.commit(txn)


def test_safe_page_rejected_after_shrink_bit(engine, tall_index):
    """A remembered page carrying a SHRINK bit is not safe to restart from."""
    ctx = engine.ctx
    txn = ctx.txns.begin()
    trav = Traversal(ctx, tall_index)
    leaf = trav.traverse(unit(3000), AccessMode.READER, 0, txn)
    ctx.release_page(leaf.page_id)
    # Poison every remembered page with a SHRINK bit.
    poisoned = []
    for pid, _level in trav._path:
        page = ctx.buffer.fetch(pid)
        page.set_flag(PageFlag.SHRINK)
        ctx.buffer.unpin(pid, dirty=True)
        poisoned.append(pid)
    try:
        # The traversal must fall back to the root (which, being the top
        # of the remembered path... is also poisoned — so expect a block
        # would occur; instead verify _try_safe rejects them).
        for pid, level in trav._path:
            assert trav._try_safe(pid, level, unit(3000)) is None
    finally:
        for pid in poisoned:
            page = ctx.buffer.fetch(pid)
            page.clear_flag(PageFlag.SHRINK)
            ctx.buffer.unpin(pid, dirty=True)
        ctx.txns.commit(txn)


def test_safe_page_rejected_on_key_out_of_range(engine, tall_index):
    ctx = engine.ctx
    txn = ctx.txns.begin()
    trav = Traversal(ctx, tall_index)
    leaf = trav.traverse(unit(3000), AccessMode.READER, 0, txn)
    ctx.release_page(leaf.page_id)
    # The deepest remembered page covers keys near 3000, not near 0.
    deepest, level = trav._path[-1]
    assert trav._try_safe(deepest, level, unit(0)) is None
    assert trav._try_safe(deepest, level, unit(3000)) is not None
    ctx.latches.release_all()
    ctx.txns.commit(txn)


def test_safe_page_rejected_after_deallocation(engine, tall_index):
    ctx = engine.ctx
    txn = ctx.txns.begin()
    trav = Traversal(ctx, tall_index)
    leaf = trav.traverse(unit(3000), AccessMode.READER, 0, txn)
    ctx.release_page(leaf.page_id)
    deepest, level = trav._path[-1]
    ctx.page_manager.deallocate(deepest)
    try:
        assert trav._try_safe(deepest, level, unit(3000)) is None
    finally:
        ctx.page_manager.force_state(deepest, PageState.ALLOCATED)
        ctx.txns.commit(txn)


def test_a_point_lookup_on_a_quiescent_tree_holds_one_latch_at_a_time(
    monkeypatch,
):
    """Root and level 1 are read unlatched: a lookup, a ``get`` and a
    one-key scan each latch only leaves, one at a time."""
    from repro import Engine
    from repro.workload.builder import bulk_load

    engine = Engine(page_size=512, buffer_capacity=4096)
    tree = bulk_load(engine, [intkey(2 * i) for i in range(2000)], 4)
    assert tree.height() == 3
    latches = engine.ctx.latches
    acquire, held = latches.acquire, []

    def counting(page_id, mode, *shard):
        acquire(page_id, mode, *shard)
        held.append(len(latches.held_by_me()))

    monkeypatch.setattr(latches, "acquire", counting)
    for i in range(0, 2000, 97):
        assert tree.contains(intkey(2 * i), i)
        assert tree.get(intkey(2 * i), i) == b""
        assert tree.lookup(intkey(2 * i)) == [i]
    assert held and max(held) == 1

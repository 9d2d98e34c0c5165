"""§6.2 first enhancement: delete-range side entries on SHRINK-bitted
propagation pages — traversals outside the deleted key range pass."""

import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import Rendezvous
from repro.storage.page import Page, PageFlag
from repro.workload.builder import bulk_load
from tests.conftest import contents_as_ints, intkey, make_half_empty


def test_blocks_unit_semantics():
    page = Page(1)
    # Plain SHRINK blocks everything.
    page.set_flag(PageFlag.SHRINK)
    assert page.blocks_unit(b"anything")
    # With a published range only the range blocks.
    page.set_blocked_range(b"m", b"t")
    page.set_flag(PageFlag.SHRINKRANGE)
    assert not page.blocks_unit(b"a")
    assert page.blocks_unit(b"m")
    assert page.blocks_unit(b"s")
    assert not page.blocks_unit(b"t")
    assert not page.blocks_unit(b"z")
    # Empty bounds are infinities.
    page.set_blocked_range(b"", b"t")
    assert page.blocks_unit(b"a")
    page.set_blocked_range(b"m", b"")
    assert page.blocks_unit(b"z")
    assert not page.blocks_unit(b"a")
    # Clearing restores full blocking.
    page.clear_blocked_range()
    assert page.blocks_unit(b"a")
    # And without SHRINK nothing blocks.
    page.clear_flag(PageFlag.SHRINK)
    assert not page.blocks_unit(b"a")


def test_blocked_range_serializes():
    page = Page(5)
    page.set_blocked_range(b"lo-key", b"hi-key")
    page.set_flag(PageFlag.SHRINK)
    page.set_flag(PageFlag.SHRINKRANGE)
    back = Page.from_bytes(page.to_bytes())
    assert back.blocked_lo == b"lo-key"
    assert back.blocked_hi == b"hi-key"
    assert back.has_flag(PageFlag.SHRINKRANGE)
    assert back.used_bytes == page.used_bytes


def test_rebuild_with_range_side_entries_correct():
    engine = Engine(buffer_capacity=4096)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    before = index.contents()
    OnlineRebuild(index, RebuildConfig(ntasize=8, xactsize=32)).run()
    assert index.contents() == before
    index.verify()  # also asserts every bit and range was cleared


def _build_tall(engine):
    """Height-3 tree (level-1 pages below the root, so child-bit checks
    apply to them) at ~half utilization, holding the keys k % 4 == 2
    with rowid k // 4.  Bulk-loaded: building it through 75k single
    inserts and deletes was 5 s of each test that uses it."""
    index = bulk_load(
        engine, [intkey(k) for k in range(2, 100_000, 4)], 4, fill=0.5
    )
    assert index.height() >= 3
    return index


def _park_rebuild(engine, index):
    """Start a rebuild and park it right after its first leaf->level-1
    propagation pass (level-1 bits live, propagation still above)."""
    rv = Rendezvous(timeout=20.0)
    seen = {}

    def park(ctx):
        if ctx.get("level") == 2 and not seen:
            seen["parked"] = True
            rv.engine_arrived(ctx)

    engine.syncpoints.on("rebuild.level_propagated", park)

    def rebuilder():
        OnlineRebuild(index, RebuildConfig(ntasize=16, xactsize=64)).run()

    t = threading.Thread(target=rebuilder, daemon=True)
    t.start()
    rv.wait_engine()
    return rv, t


def _find_bitted_level1(engine, index):
    """The non-root level-1 page the parked rebuild has SHRINK-marked."""
    from repro.btree import node

    for pid in engine.ctx.page_manager.allocated_pages():
        if pid == index.root_page_id:
            continue
        page = engine.ctx.buffer.fetch(pid)
        try:
            if page.level == 1 and page.has_flag(PageFlag.SHRINK):
                return pid, page
        finally:
            engine.ctx.buffer.unpin(pid)
    raise AssertionError("no SHRINK-marked level-1 page found while parked")


def _present_key_at_or_above(raw: bytes) -> int:
    """A key value >= raw[:4] that the workload left present (k % 4 == 2)."""
    base = int.from_bytes(raw[:4].ljust(4, b"\x00"), "big") + 8
    return base - (base % 4) + 2


def test_out_of_range_reader_passes_in_range_blocks():
    """§6.2: with the range side entry, a reader whose key routes through
    the SAME SHRINK-marked level-1 page but outside the deleted range
    proceeds; a key inside the range blocks."""
    from repro.btree import node

    engine = Engine(buffer_capacity=16384, lock_timeout=10.0)
    index = _build_tall(engine)
    rv, t = _park_rebuild(engine, index)
    try:
        pid, page = _find_bitted_level1(engine, index)
        assert page.has_flag(PageFlag.SHRINKRANGE)
        assert page.blocked_hi, "expected a finite high bound"
        # A present key above the blocked range but still under this page
        # (below its last separator).
        probe = _present_key_at_or_above(page.blocked_hi)
        last_sep = node.entry_key(page.rows[-1])
        assert intkey(probe) < last_sep[:4], "probe escaped the page"

        passed = threading.Event()

        def out_of_range_reader():
            index.contains(intkey(probe), probe // 4)
            passed.set()

        r = threading.Thread(target=out_of_range_reader, daemon=True)
        r.start()
        assert passed.wait(5), (
            "out-of-range reader blocked despite the range side entry"
        )

        blocked = threading.Event()

        def in_range_reader():
            index.contains(intkey(2), 0)  # first key: inside the range
            blocked.set()

        b = threading.Thread(target=in_range_reader, daemon=True)
        b.start()
        in_range_was_blocked = not blocked.wait(0.3)
    finally:
        rv.release()
    t.join(120)
    assert blocked.wait(20)
    assert in_range_was_blocked, "in-range reader was not blocked"
    index.verify()

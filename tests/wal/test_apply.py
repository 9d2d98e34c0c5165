"""Unit tests for redo and undo of individual record types."""

import pytest

from repro.errors import RecoveryError
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page, PageType
from repro.storage.page_manager import PageManager, PageState
from repro.wal.apply import (
    ApplyContext,
    compensate,
    compensation,
    redo_page_queue,
    redo_record,
    row_compensation,
    undo_record,
)
from repro.wal.records import (
    CLR_FLAG,
    LEAF_ROW_FLAG,
    KeyCopyEntry,
    LogRecord,
    RecordType,
)


@pytest.fixture
def ctx() -> ApplyContext:
    counters = Counters()
    disk = Disk(counters=counters)
    return ApplyContext(
        BufferPool(disk, capacity=64, counters=counters),
        PageManager(disk, counters=counters),
    )


def put_page(ctx: ApplyContext, pid: int, rows=(), ts: int = 0) -> None:
    ctx.page_manager.force_state(pid, PageState.ALLOCATED)
    page = Page(pid)
    page.page_type = PageType.LEAF
    page.page_lsn = ts
    for r in rows:
        page.append_row(r)
    ctx.buffer.disk.write(pid, page.to_bytes())


def get_rows(ctx: ApplyContext, pid: int) -> list[bytes]:
    page = ctx.buffer.fetch(pid)
    rows = list(page.rows)
    ctx.buffer.unpin(pid)
    return rows


def get_ts(ctx: ApplyContext, pid: int) -> int:
    page = ctx.buffer.fetch(pid)
    ts = page.page_lsn
    ctx.buffer.unpin(pid)
    return ts


def undo(rec: LogRecord, ctx: ApplyContext, lsn: int) -> list[LogRecord]:
    """Undo ``rec``, logging from ``lsn`` on; returns what the undo logged."""
    logged: list[LogRecord] = []

    def log(comp: LogRecord) -> int:
        comp.lsn = lsn + len(logged)
        logged.append(comp)
        return comp.lsn

    undo_record(rec, ctx, log)
    return logged


def redo(rec: LogRecord, ctx: ApplyContext) -> None:
    """Redo a single-page record as recovery does: encoded, through the
    page-queue kernel."""
    redo_page_queue(rec.page_id, [(rec.lsn, rec.type, rec.encode())], ctx)


def test_redo_insert_applies_when_stale(ctx):
    put_page(ctx, 1, [b"a", b"c"], ts=10)
    rec = LogRecord(type=RecordType.INSERT, page_id=1, pos=1, rows=[b"b"], lsn=20)
    redo(rec, ctx)
    assert get_rows(ctx, 1) == [b"a", b"b", b"c"]
    assert get_ts(ctx, 1) == 20


def test_redo_insert_skips_when_current(ctx):
    put_page(ctx, 1, [b"a"], ts=30)
    rec = LogRecord(type=RecordType.INSERT, page_id=1, pos=0, rows=[b"z"], lsn=20)
    redo(rec, ctx)
    assert get_rows(ctx, 1) == [b"a"]  # untouched: ts 30 >= lsn 20


def test_redo_is_idempotent(ctx):
    put_page(ctx, 1, [b"a"], ts=10)
    rec = LogRecord(type=RecordType.INSERT, page_id=1, pos=0, rows=[b"0"], lsn=20)
    redo(rec, ctx)
    redo(rec, ctx)
    assert get_rows(ctx, 1) == [b"0", b"a"]


def test_redo_batchdelete(ctx):
    put_page(ctx, 1, [b"a", b"b", b"c", b"d"], ts=5)
    rec = LogRecord(
        type=RecordType.BATCHDELETE, page_id=1, pos=1, rows=[b"b", b"c"], lsn=9
    )
    redo(rec, ctx)
    assert get_rows(ctx, 1) == [b"a", b"d"]


def test_redo_links_and_format(ctx):
    put_page(ctx, 1, ts=5)
    redo(
        LogRecord(type=RecordType.CHANGEPREVLINK, page_id=1, new_prev=7, lsn=6),
        ctx,
    )
    redo(
        LogRecord(type=RecordType.CHANGENEXTLINK, page_id=1, new_next=8, lsn=7),
        ctx,
    )
    redo(
        LogRecord(
            type=RecordType.FORMAT, page_id=1, page_type=2, level=3,
            prev_page=0, next_page=0, lsn=8,
        ),
        ctx,
    )
    page = ctx.buffer.fetch(1)
    assert page.prev_page == 0  # FORMAT overwrote the link
    assert page.level == 3
    assert page.page_type is PageType.NONLEAF
    ctx.buffer.unpin(1)


def test_redo_record_leaves_single_page_records_to_the_kernel(ctx):
    put_page(ctx, 1, [b"a"], ts=10)
    rec = LogRecord(
        type=RecordType.INSERT, page_id=1, pos=0, rows=[b"0"], lsn=20
    )
    with pytest.raises(RecoveryError, match="redo_page_queue"):
        redo_record(rec, ctx)
    assert get_rows(ctx, 1) == [b"a"]


def test_redo_alloc_creates_fresh_page(ctx):
    rec = LogRecord(
        type=RecordType.ALLOC, page_id=5, page_type=1, level=0,
        prev_page=4, next_page=6, lsn=50,
    )
    redo_record(rec, ctx)
    assert ctx.page_manager.state(5) is PageState.ALLOCATED
    page = ctx.buffer.fetch(5)
    assert page.page_type is PageType.LEAF
    assert page.prev_page == 4
    assert page.page_lsn == 50
    ctx.buffer.unpin(5)


def test_redo_alloc_skips_newer_incarnation(ctx):
    put_page(ctx, 5, [b"current"], ts=100)
    rec = LogRecord(type=RecordType.ALLOC, page_id=5, page_type=1, lsn=50)
    redo_record(rec, ctx)
    assert get_rows(ctx, 5) == [b"current"]


def test_redo_allocrun_chains_pages(ctx):
    rec = LogRecord(
        type=RecordType.ALLOCRUN, page_id=10, page_type=1, level=0,
        prev_page=9, next_page=20, page_ids=[10, 11, 12], lsn=60,
    )
    redo_record(rec, ctx)
    p10 = ctx.buffer.fetch(10)
    p11 = ctx.buffer.fetch(11)
    p12 = ctx.buffer.fetch(12)
    assert (p10.prev_page, p10.next_page) == (9, 11)
    assert (p11.prev_page, p11.next_page) == (10, 12)
    assert (p12.prev_page, p12.next_page) == (11, 20)
    for pid in (10, 11, 12):
        ctx.buffer.unpin(pid)
        assert ctx.page_manager.state(pid) is PageState.ALLOCATED


def test_redo_dealloc_batch(ctx):
    for pid in (1, 2):
        put_page(ctx, pid)
    rec = LogRecord(type=RecordType.DEALLOC, page_id=1, page_ids=[1, 2], lsn=5)
    redo_record(rec, ctx)
    assert ctx.page_manager.state(1) is PageState.DEALLOCATED
    assert ctx.page_manager.state(2) is PageState.DEALLOCATED


def test_redo_keycopy_rereads_sources(ctx):
    put_page(ctx, 1, [b"k1", b"k2", b"k3"], ts=5)   # source (never changed)
    put_page(ctx, 2, [b"k0"], ts=7)                 # target PP, stale
    rec = LogRecord(
        type=RecordType.KEYCOPY, page_id=2, pp_page=2, pp_old_next=1,
        pp_new_next=0, lsn=40,
        entries=[KeyCopyEntry(1, 2, 0, 2)],
        target_ts=[(2, 7)],
    )
    redo_record(rec, ctx)
    assert get_rows(ctx, 2) == [b"k0", b"k1", b"k2", b"k3"]
    page = ctx.buffer.fetch(2)
    assert page.next_page == 0
    assert page.page_lsn == 40
    ctx.buffer.unpin(2)


def test_redo_keycopy_skips_flushed_target(ctx):
    put_page(ctx, 1, [b"k1"], ts=5)
    put_page(ctx, 2, [b"k0", b"k1"], ts=40)  # target already has the copy
    rec = LogRecord(
        type=RecordType.KEYCOPY, page_id=2, pp_page=2, pp_old_next=1,
        pp_new_next=0, lsn=40,
        entries=[KeyCopyEntry(1, 2, 0, 0)],
        target_ts=[(2, 7)],
    )
    redo_record(rec, ctx)
    assert get_rows(ctx, 2) == [b"k0", b"k1"]


def test_redo_keycopy_detects_timestamp_corruption(ctx):
    put_page(ctx, 2, [b"k0"], ts=33)  # neither the old ts nor past the lsn
    rec = LogRecord(
        type=RecordType.KEYCOPY, page_id=2, pp_page=2, lsn=40,
        entries=[], target_ts=[(2, 7)],
    )
    with pytest.raises(RecoveryError):
        redo_record(rec, ctx)


@pytest.mark.parametrize("first, last", [(1, 3), (3, 5), (2, 1)])
def test_redo_keycopy_rejects_extent_outside_the_source(ctx, first, last):
    put_page(ctx, 1, [b"k1", b"k2", b"k3"], ts=5)   # three rows: slots 0..2
    put_page(ctx, 2, [b"k0"], ts=7)
    rec = LogRecord(
        type=RecordType.KEYCOPY, page_id=2, pp_page=2, pp_old_next=1,
        pp_new_next=0, lsn=40,
        entries=[KeyCopyEntry(1, 2, first, last)],
        target_ts=[(2, 7)],
    )
    with pytest.raises(RecoveryError, match="out of range for source 1"):
        redo_record(rec, ctx)
    assert get_rows(ctx, 2) == [b"k0"]  # nothing half-copied


def test_undo_insert_removes_and_verifies(ctx):
    put_page(ctx, 1, [b"a", b"b"], ts=20)
    rec = LogRecord(
        type=RecordType.INSERT, page_id=1, pos=0, rows=[b"a"], lsn=20,
        prev_lsn=12, old_ts=10,
    )
    (comp,) = undo(rec, ctx, lsn=30)
    assert get_rows(ctx, 1) == [b"b"]
    assert get_ts(ctx, 1) == 30
    assert (comp.type, comp.page_id, comp.pos, comp.rows) == (
        RecordType.DELETE, 1, 0, [b"a"]
    )
    assert (comp.flags, comp.undo_next_lsn, comp.old_ts) == (CLR_FLAG, 12, 20)


def test_undo_insert_mismatch_raises(ctx):
    put_page(ctx, 1, [b"X", b"b"], ts=20)
    rec = LogRecord(
        type=RecordType.INSERT, page_id=1, pos=0, rows=[b"a"], lsn=20
    )
    logged = []
    with pytest.raises(RecoveryError):
        undo_record(rec, ctx, logged.append)
    assert logged == []
    assert get_rows(ctx, 1) == [b"X", b"b"]


def test_undo_delete_reinserts(ctx):
    put_page(ctx, 1, [b"a"], ts=20)
    rec = LogRecord(
        type=RecordType.BATCHDELETE, page_id=1, pos=1, rows=[b"b", b"c"], lsn=20
    )
    (comp,) = undo(rec, ctx, lsn=30)
    assert get_rows(ctx, 1) == [b"a", b"b", b"c"]
    assert comp.type is RecordType.BATCHINSERT


def test_undo_of_a_link_or_format_swaps_old_and_new(ctx):
    put_page(ctx, 1, ts=20)
    page = ctx.buffer.fetch(1)
    page.prev_page, page.next_page = 7, 8
    ctx.buffer.unpin(1, dirty=True)
    (link,) = undo(
        LogRecord(
            type=RecordType.CHANGEPREVLINK, page_id=1, old_prev=3, new_prev=7,
            lsn=20,
        ),
        ctx, lsn=30,
    )
    assert (link.type, link.old_prev, link.new_prev) == (
        RecordType.CHANGEPREVLINK, 7, 3
    )
    (fmt,) = undo(
        LogRecord(
            type=RecordType.FORMAT, page_id=1, page_type=1, level=0,
            prev_page=3, next_page=8, old_format=(2, 1, 4, 5), lsn=21,
        ),
        ctx, lsn=31,
    )
    assert fmt.old_format == (1, 0, 3, 8)
    page = ctx.buffer.fetch(1)
    assert (page.page_type, page.level, page.prev_page, page.next_page) == (
        PageType.NONLEAF, 1, 4, 5
    )
    assert page.page_lsn == 31
    ctx.buffer.unpin(1)


def test_leaf_row_undo_goes_by_key_and_changes_only_what_it_finds(ctx):
    """The row is undone on the leaf that holds its key now (page 7 here,
    not the page 3 it was logged on), and the compensation names that
    page; a row already back is left alone and nothing is logged.  A
    logged leaf row is never undone where it was logged."""
    put_page(ctx, 7, [b"a", b"b", b"c"], ts=40)

    def undo_on_leaf(rec, lsn):
        logged = []

        def log(comp):
            comp.lsn = lsn
            logged.append(comp)
            return lsn

        leaf = ctx.buffer.fetch(7)
        try:
            comp = row_compensation(rec, leaf, ctx.buffer.counters)
            assert comp is None or compensate(leaf, comp, log)
        finally:
            ctx.buffer.unpin(7, dirty=True)
        return logged

    insert = LogRecord(
        type=RecordType.INSERT, page_id=3, index_id=1, pos=0, rows=[b"b"],
        flags=LEAF_ROW_FLAG, lsn=20,
    )
    with pytest.raises(RecoveryError, match="undone by key"):
        undo(insert, ctx, lsn=50)
    (comp,) = undo_on_leaf(insert, lsn=50)
    assert get_rows(ctx, 7) == [b"a", b"c"]
    assert (comp.type, comp.page_id, comp.pos, comp.flags) == (
        RecordType.DELETE, 7, 1, LEAF_ROW_FLAG | CLR_FLAG
    )
    assert undo_on_leaf(insert, lsn=60) == []  # already gone
    delete = LogRecord(
        type=RecordType.DELETE, page_id=3, index_id=1, pos=5, rows=[b"b"],
        flags=LEAF_ROW_FLAG, lsn=30,
    )
    (comp,) = undo_on_leaf(delete, lsn=70)
    assert get_rows(ctx, 7) == [b"a", b"b", b"c"]
    assert (comp.type, comp.page_id, comp.pos) == (RecordType.INSERT, 7, 1)
    assert undo_on_leaf(delete, lsn=80) == []  # already back
    assert get_ts(ctx, 7) == 70


def test_a_compensation_that_does_not_fit_is_not_logged(ctx):
    """Fit before log: rows that do not fit back leave no compensation in
    the log and the page as it was."""
    put_page(ctx, 1, [b"a" * 1900], ts=20)
    page = ctx.buffer.fetch(1)
    logged = []
    try:
        delete = LogRecord(
            type=RecordType.DELETE, page_id=1, pos=1, rows=[b"b" * 200],
            lsn=20,
        )
        assert not compensate(page, compensation(delete), logged.append)
        assert page.rows == [b"a" * 1900] and page.page_lsn == 20
    finally:
        ctx.buffer.unpin(1)
    assert logged == []


def test_undo_alloc_frees_page(ctx):
    redo_record(
        LogRecord(type=RecordType.ALLOC, page_id=5, page_type=1, lsn=50), ctx
    )
    (clr,) = undo(
        LogRecord(type=RecordType.ALLOC, page_id=5, page_type=1, lsn=50),
        ctx,
        lsn=60,
    )
    assert (clr.type, clr.undone_lsn, clr.flags) == (
        RecordType.CLR, 50, CLR_FLAG
    )
    assert ctx.page_manager.state(5) is PageState.FREE
    assert not ctx.buffer.is_resident(5)


def test_undo_dealloc_restores_allocated(ctx):
    put_page(ctx, 1)
    ctx.page_manager.force_state(1, PageState.DEALLOCATED)
    undo(LogRecord(type=RecordType.DEALLOC, page_id=1, lsn=5), ctx, lsn=9)
    assert ctx.page_manager.state(1) is PageState.ALLOCATED


def keycopy_at_40() -> LogRecord:
    """A copy of two rows from page 1 onto target page 2 at LSN 40."""
    return LogRecord(
        type=RecordType.KEYCOPY, page_id=2, pp_page=2, pp_old_next=1,
        pp_new_next=9, lsn=40,
        entries=[KeyCopyEntry(1, 2, 0, 1)],
        target_ts=[(2, 7)],
    )


def test_undo_keycopy_removes_appended_rows(ctx):
    put_page(ctx, 2, [b"k0", b"k1", b"k2"], ts=40)  # after the copy
    undo(keycopy_at_40(), ctx, lsn=50)
    assert get_rows(ctx, 2) == [b"k0"]
    page = ctx.buffer.fetch(2)
    assert page.next_page == 1  # PP's old next restored
    ctx.buffer.unpin(2)


def test_undo_keycopy_skips_target_that_never_got_the_copy(ctx):
    put_page(ctx, 2, [b"k0"], ts=7)  # still at the old timestamp
    undo(keycopy_at_40(), ctx, lsn=50)
    assert get_rows(ctx, 2) == [b"k0"]


def test_clr_redo_applies_inverse_once(ctx):
    put_page(ctx, 2, [b"k0", b"k1", b"k2"], ts=40)
    clr = LogRecord(type=RecordType.CLR, page_id=2, undone_lsn=40, lsn=50)
    clr.resolved_undone = keycopy_at_40()
    redo_record(clr, ctx)
    assert get_rows(ctx, 2) == [b"k0"]
    assert get_ts(ctx, 2) == 50
    # Idempotent: the target is now stamped at the CLR's LSN.
    redo_record(clr, ctx)
    assert get_rows(ctx, 2) == [b"k0"]


def test_clr_redo_without_resolution_raises(ctx):
    clr = LogRecord(type=RecordType.CLR, page_id=5, undone_lsn=20, lsn=45)
    with pytest.raises(RecoveryError):
        redo_record(clr, ctx)
    # A row change is compensated by a record of its own type, never a CLR.
    clr.resolved_undone = LogRecord(
        type=RecordType.INSERT, page_id=5, pos=0, rows=[b"a"], lsn=20
    )
    with pytest.raises(RecoveryError):
        redo_record(clr, ctx)
    clr.resolved_undone = LogRecord(
        type=RecordType.ALLOC, page_id=5, page_type=1, lsn=20
    )
    ctx.page_manager.force_state(5, PageState.ALLOCATED)
    redo_record(clr, ctx)
    assert ctx.page_manager.state(5) is PageState.FREE

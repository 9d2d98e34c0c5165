"""Redo and undo of log records.

This module is the single place that knows how each record type changes a
page, shared by runtime rollback and crash recovery, whose undo both go
through ``EngineContext.undo`` (:mod:`repro.context`).

Redo follows the ARIES page-timestamp rule: a record is re-applied to a page
iff the page's ``page_lsn`` is older than the record's LSN (a record's "new
timestamp" is its own LSN).  Records that change one page and read nothing
else (:data:`SINGLE_PAGE_REDO`) are redone a page at a time, straight from
their encoded bytes (:func:`redo_page_queue` — the one forward-apply path,
for crash recovery and the scrubber's WAL replay alike);
:func:`redo_record` redoes the :data:`BARRIER_REDO` types, one decoded
record at a time.  KEYCOPY redo re-reads the *source* pages for
the key bytes — the paper's §3 flush-new-before-free-old discipline is what
makes that sound — and checks the timestamp of each *target* page
independently, since a crash can land between the forced writes of two
targets.  It has the pages it reads brought up to date first
(:attr:`ApplyContext.catch_up`): crash recovery parks the records of pages
a committed transaction freed until something reads them.

Undo logs the change it makes, then makes it — and logs it only once it
fits (:func:`compensate`).  A row, link or format record is compensated
by the single-page record of the inverse change, flagged ``CLR_FLAG``
and applied by the redo kernel from its bytes, so crash redo and the
scrubber's replay take it page by page like any other record.  Where the
change goes is found physically for nonleaf entries, links and formats
(:func:`undo_record`): only records of *incomplete* top actions are
undone, and the pages they touched are still pinned down by the top
action's address locks / SPLIT / SHRINK bits at a runtime rollback, or
frozen by the crash itself.  A leaf row is found *by key* from the index
root, because a completed split or rebuild top action — never undone —
may have moved it since (ARIES-IM); the descent runs at undo time only,
at run time and at restart alike, and it is the index's own writer
descent, X latch and all (``EngineContext.undo``), so a top action that
has frozen the leaf ends before the row changes (§2.6), and a leaf the
row no longer fits is split first.  :func:`row_compensation` is what
the row's undo changes on the leaf found.  An
``ALLOC`` / ``ALLOCRUN`` / ``DEALLOC`` / ``KEYCOPY`` (:data:`CLR_UNDONE`) is
compensated by a ``CLR`` naming it, whose redo re-applies the inverse.
Undo verifies what it removes and raises
:class:`~repro.errors.RecoveryError` on any mismatch rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import PageFullError, RecoveryError
from repro.storage.buffer import BufferPool
from repro.storage.page import NO_PAGE, Page, PageType, run_bytes
from repro.storage.page_manager import PageManager, PageState
from repro.wal.records import (
    CLR_FLAG,
    LEAF_ROW_FLAG,
    LogRecord,
    RecordType,
    batch_payload,
    format_payload,
    link_payload,
    row_payload,
)

if TYPE_CHECKING:
    from repro.stats.counters import Counters


def _nothing_parked(page_ids: Iterable[int]) -> None:
    """:attr:`ApplyContext.catch_up` where no record waits for its page."""


@dataclass
class ApplyContext:
    """Everything record application needs to touch pages and state."""

    buffer: BufferPool
    page_manager: PageManager
    catch_up: Callable[[Iterable[int]], None] = _nothing_parked
    """Brings pages up to the image log order shows a barrier.  KEYCOPY
    redo calls it with the targets it is about to check, and with the
    sources of every target it finds stale; crash recovery sets it to
    apply the records it parked for those pages
    (``RecoveryManager._catch_up``).  Everywhere else each page is
    current already."""


# --------------------------------------------------------------------- redo


_COMPENSATING_TYPE = {
    RecordType.INSERT: RecordType.DELETE,
    RecordType.DELETE: RecordType.INSERT,
    RecordType.BATCHINSERT: RecordType.BATCHDELETE,
    RecordType.BATCHDELETE: RecordType.BATCHINSERT,
    RecordType.CHANGEPREVLINK: RecordType.CHANGEPREVLINK,
    RecordType.CHANGENEXTLINK: RecordType.CHANGENEXTLINK,
    RecordType.FORMAT: RecordType.FORMAT,
}

SINGLE_PAGE_REDO = frozenset(_COMPENSATING_TYPE)
"""Record types whose redo reads and writes ``rec.page_id`` and nothing
else — no other page, no page-manager state.  Two of them on different
pages commute, which is what lets crash recovery redo them page by page
(:func:`redo_page_queue`) between the records that do not.  Each is
undone by another of them (:func:`compensation`)."""

CLR_UNDONE = frozenset(
    {RecordType.ALLOC, RecordType.ALLOCRUN, RecordType.DEALLOC, RecordType.KEYCOPY}
)
"""Record types whose undo is compensated by a ``CLR`` naming them: their
inverse changes page-manager state or several pages, all named by page id
in the original, so the CLR's redo re-applies it from there."""

BARRIER_REDO = CLR_UNDONE | {RecordType.CLR}
"""Record types whose redo touches several pages or page-manager state:
``ALLOC`` / ``ALLOCRUN`` / ``DEALLOC`` (page-manager state, and a fresh
incarnation that later records must find), ``KEYCOPY`` (reads its source
pages) and ``CLR`` (the inverse of one of those).  Each must see exactly
what log order would show it, so whoever reorders single-page redo applies
everything queued before one of these (``RecoveryManager._redo``)."""

REDO_TYPES = SINGLE_PAGE_REDO | BARRIER_REDO
"""Every type redo has work for; the rest (``TXN_*``, ``NTA_*``,
``CHECKPOINT``, ``REBUILD_PROGRESS``, ``QUARANTINE``) have no page
effect."""


def redo_record(rec: LogRecord, ctx: ApplyContext) -> None:
    """Re-apply a :data:`BARRIER_REDO` record where its effects did not
    reach the page images.  A single-page record goes through
    :func:`redo_page_queue` instead."""
    t = rec.type
    if t in SINGLE_PAGE_REDO:
        raise RecoveryError(
            f"{t.name} at lsn {rec.lsn} is single-page redo: it is applied "
            "from its bytes by redo_page_queue"
        )
    if t is RecordType.ALLOC:
        _redo_alloc(rec, ctx)
    elif t is RecordType.ALLOCRUN:
        for i, pid in enumerate(rec.page_ids):
            prev = rec.page_ids[i - 1] if i > 0 else rec.prev_page
            nxt = (
                rec.page_ids[i + 1]
                if i + 1 < len(rec.page_ids)
                else rec.next_page
            )
            _redo_fresh_page(rec, pid, prev, nxt, ctx)
    elif t is RecordType.DEALLOC:
        for pid in rec.page_ids or [rec.page_id]:
            ctx.page_manager.force_state(pid, PageState.DEALLOCATED)
    elif t is RecordType.KEYCOPY:
        _redo_keycopy(rec, ctx)
    elif t is RecordType.CLR:
        # Recovery resolves the record the CLR names from its undone_lsn.
        original = rec.resolved_undone
        if original is None or original.type not in CLR_UNDONE:
            raise RecoveryError(
                f"CLR at lsn {rec.lsn} lacks its resolved ALLOC / ALLOCRUN "
                "/ DEALLOC / KEYCOPY record"
            )
        _clr_inverse(original, ctx, rec.lsn)
    # Anything outside REDO_TYPES has no page effect.


def redo_page_queue(
    page_id: int, queue: list[tuple[int, int, bytes]], ctx: ApplyContext
) -> int:
    """Redo one page's queued :data:`SINGLE_PAGE_REDO` records in one visit.

    ``queue`` holds ``(lsn, type, encoded record)`` in ascending LSN order,
    each header already checked (:meth:`LogRecord.peek`).  The page is
    fetched once — by large I/O, so that a caller walking pages in
    ascending id reads each disk run once — and the timestamp rule is
    tested on the queued LSN.  A record the image lacks is applied
    straight from its bytes: the layout readers of
    :mod:`repro.wal.records` cut its position, rows or links, and the
    :class:`Page` mutators check them — no :class:`LogRecord` is built.
    A payload that ends early raises
    :class:`~repro.errors.LogFormatError`, a position off the page
    :class:`~repro.errors.PageFormatError`, rows that do not fit
    :class:`~repro.errors.PageFullError`.  Returns how many records were
    applied (their payloads read).
    """
    page = ctx.buffer.fetch(page_id, large_io=True)
    applied = 0
    try:
        for lsn, rtype, data in queue:
            if page.page_lsn < lsn:
                _forward(page, rtype, data)
                page.page_lsn = lsn
                applied += 1
    finally:
        ctx.buffer.unpin(page_id, dirty=applied > 0)
    return applied


_INSERT = int(RecordType.INSERT)
_DELETE = int(RecordType.DELETE)
_BATCHINSERT = int(RecordType.BATCHINSERT)
_BATCHDELETE = int(RecordType.BATCHDELETE)
_CHANGEPREVLINK = int(RecordType.CHANGEPREVLINK)
_CHANGENEXTLINK = int(RecordType.CHANGENEXTLINK)


def _forward(page: Page, rtype: int, data: bytes) -> None:
    """The forward change of one encoded :data:`SINGLE_PAGE_REDO` record."""
    if rtype == _INSERT:
        page.insert_row(*row_payload(data))
    elif rtype == _DELETE:
        page.delete_row(row_payload(data)[0])
    elif rtype == _BATCHINSERT:
        page.insert_rows(*batch_payload(data))
    elif rtype == _BATCHDELETE:
        pos, rows = batch_payload(data)
        page.delete_rows(pos, pos + len(rows))
    elif rtype == _CHANGEPREVLINK:
        page.prev_page = link_payload(data)[1]
    elif rtype == _CHANGENEXTLINK:
        page.next_page = link_payload(data)[1]
    else:  # FORMAT
        page_type, level, prev, nxt = format_payload(data)[:4]
        page.page_type = PageType(page_type)
        page.level = level
        page.prev_page = prev
        page.next_page = nxt


def _redo_alloc(rec: LogRecord, ctx: ApplyContext) -> None:
    """Re-create a freshly allocated page and its initial header."""
    _redo_fresh_page(rec, rec.page_id, rec.prev_page, rec.next_page, ctx)


def _redo_fresh_page(
    rec: LogRecord, page_id: int, prev: int, nxt: int, ctx: ApplyContext
) -> None:
    ctx.page_manager.force_state(page_id, PageState.ALLOCATED)
    existing_ts: int | None = None
    if ctx.buffer.is_resident(page_id) or ctx.buffer.disk.exists(page_id):
        # By large I/O, as a drain fetches: an ALLOCRUN's ids are one run.
        page = ctx.buffer.fetch(page_id, large_io=True)
        existing_ts = page.page_lsn
        ctx.buffer.unpin(page_id)
    if existing_ts is not None and existing_ts >= rec.lsn:
        return  # this incarnation already on disk / in buffer
    fresh = ctx.buffer.new_page(page_id)  # drops an older one still resident
    fresh.page_type = PageType(rec.page_type)
    fresh.level = rec.level
    fresh.prev_page = prev
    fresh.next_page = nxt
    fresh.index_id = rec.index_id
    fresh.page_lsn = rec.lsn
    ctx.buffer.unpin(page_id, dirty=True)


def _redo_keycopy(rec: LogRecord, ctx: ApplyContext) -> None:
    """Per-target redo of a multipage copy (paper §4.1.2).

    For each target whose timestamp shows the copy is missing, re-read the
    key bytes from the source pages and append them in the original order.
    The targets, and the sources of a stale target, are brought up to date
    through ``ctx.catch_up`` before they are read.
    """
    ctx.catch_up([page_id for page_id, _ts in rec.target_ts])
    stale_targets = set()
    for page_id, old_ts in rec.target_ts:
        page = ctx.buffer.fetch(page_id)
        try:
            if page.page_lsn < rec.lsn:
                stale_targets.add(page_id)
                if page.page_lsn != old_ts:
                    raise RecoveryError(
                        f"keycopy redo: target {page_id} has ts "
                        f"{page.page_lsn}, expected {old_ts} or >= {rec.lsn}"
                    )
        finally:
            ctx.buffer.unpin(page_id)
    if not stale_targets:
        return
    ctx.catch_up(
        [e.src_page for e in rec.entries if e.tgt_page in stale_targets]
    )
    for entry in rec.entries:
        if entry.tgt_page not in stale_targets:
            continue
        src = ctx.buffer.fetch(entry.src_page)
        tgt = ctx.buffer.fetch(entry.tgt_page)
        try:
            if not 0 <= entry.first_pos <= entry.last_pos < src.nrows:
                raise RecoveryError(
                    f"keycopy redo: extent [{entry.first_pos}, "
                    f"{entry.last_pos}] is out of range for source "
                    f"{entry.src_page} ({src.nrows} rows)"
                )
            tgt.extend_rows(src.rows[entry.first_pos : entry.last_pos + 1])
        finally:
            ctx.buffer.unpin(entry.src_page)
            ctx.buffer.unpin(entry.tgt_page, dirty=True)
    if rec.pp_page != NO_PAGE and rec.pp_page in stale_targets:
        pp = ctx.buffer.fetch(rec.pp_page)
        pp.next_page = rec.pp_new_next
        ctx.buffer.unpin(rec.pp_page, dirty=True)
    for link in rec.links:
        if link.page_id not in stale_targets:
            continue
        page = ctx.buffer.fetch(link.page_id)
        page.prev_page = link.prev_page
        page.next_page = link.next_page
        ctx.buffer.unpin(link.page_id, dirty=True)
    for page_id in stale_targets:
        page = ctx.buffer.fetch(page_id)
        page.page_lsn = rec.lsn
        ctx.buffer.unpin(page_id, dirty=True)


# --------------------------------------------------------------------- undo


def compensation(rec: LogRecord) -> LogRecord:
    """The record that undoes the single-page ``rec`` where it was logged.

    The inverse change of the same page and slot — the rows deleted where
    they were inserted and inserted where they were deleted, the old and
    new link or format swapped — flagged ``CLR_FLAG``, with
    ``undo_next_lsn`` at the record before ``rec``.
    """
    old = rec.old_format or (0, 0, 0, 0)
    return LogRecord(
        type=_COMPENSATING_TYPE[rec.type],
        page_id=rec.page_id,
        index_id=rec.index_id,
        undo_next_lsn=rec.prev_lsn,
        flags=rec.flags | CLR_FLAG,
        pos=rec.pos,
        rows=rec.rows,
        old_prev=rec.new_prev,
        new_prev=rec.old_prev,
        old_next=rec.new_next,
        new_next=rec.old_next,
        page_type=old[0],
        level=old[1],
        prev_page=old[2],
        next_page=old[3],
        old_format=(rec.page_type, rec.level, rec.prev_page, rec.next_page),
    )


def undo_record(
    rec: LogRecord, ctx: ApplyContext, log: Callable[[LogRecord], int]
) -> None:
    """Undo ``rec`` where it was logged (runtime rollback and crash undo
    alike): log its compensation through ``log``, which appends a record
    to the undoing transaction's chain and returns its LSN, then apply it.

    A row, link or format record's compensation is the single-page record
    of the inverse change on the page and at the position logged, applied
    by the redo kernel from its bytes; a :data:`CLR_UNDONE` record's is a
    ``CLR``.  A leaf row is undone by key instead, on the leaf that holds
    its key now (``EngineContext.undo``, :func:`row_compensation`).
    """
    t = rec.type
    if t in CLR_UNDONE:
        clr = LogRecord(
            type=RecordType.CLR,
            page_id=rec.page_id,
            undone_lsn=rec.lsn,
            undo_next_lsn=rec.prev_lsn,
            flags=CLR_FLAG,
        )
        if t is RecordType.KEYCOPY:
            _clr_inverse(rec, ctx, log(clr))
        else:
            # A page-state change: logged and made under the page
            # manager's lock, as a checkpoint's snapshot reads them.
            with ctx.page_manager.lock:
                _clr_inverse(rec, ctx, log(clr))
        return
    if t not in SINGLE_PAGE_REDO:
        if t in (RecordType.REBUILD_PROGRESS, RecordType.QUARANTINE):
            # Standalone (txn id 0) bookkeeping: rollback never reaches one,
            # but tolerate it as a no-op rather than failing recovery.
            return
        raise RecoveryError(f"cannot undo record type {t.name}")
    if rec.flags & LEAF_ROW_FLAG:
        raise RecoveryError(
            f"{t.name} at lsn {rec.lsn} is a leaf row: it is undone by key"
        )
    page = ctx.buffer.fetch(rec.page_id)
    applied = False
    try:
        if (t is RecordType.INSERT or t is RecordType.BATCHINSERT) and (
            page.rows[rec.pos : rec.pos + len(rec.rows)] != rec.rows
        ):
            raise RecoveryError(
                f"undo of insert on page {rec.page_id}: rows at position "
                f"{rec.pos} do not match the log record"
            )
        applied = compensate(page, compensation(rec), log)
        if not applied:
            raise PageFullError(
                f"undo of {t.name} at lsn {rec.lsn}: the rows do not fit "
                f"back on page {rec.page_id}"
            )
    finally:
        ctx.buffer.unpin(rec.page_id, dirty=applied)


def row_compensation(
    rec: LogRecord, leaf: Page, counters: Counters
) -> LogRecord | None:
    """The compensation of the leaf row ``rec`` on ``leaf``, the leaf whose
    range holds the row's key now: the row removed if present, put back
    if absent, at its position there.  None when neither is needed — the
    row is gone already, or back already."""
    from repro.btree.node import leaf_search  # import cycle

    pos, found = leaf_search(leaf, rec.rows[0], counters)
    if found != (rec.type is RecordType.INSERT):
        return None
    comp = compensation(rec)
    comp.pos = pos
    if found:
        comp.rows = [leaf.rows[pos]]
    return comp


def compensate(
    page: Page, comp: LogRecord, log: Callable[[LogRecord], int]
) -> bool:
    """Log ``comp``, a compensation of a change to ``page``, and apply it
    — only if the rows it puts back fit: False, with nothing logged, when
    they do not.  The caller holds ``page`` and marks it dirty."""
    if (
        comp.type is RecordType.INSERT or comp.type is RecordType.BATCHINSERT
    ) and run_bytes(comp.rows) > page.free_bytes:
        return False
    comp.page_id = page.page_id
    comp.old_ts = page.page_lsn
    lsn = log(comp)
    _forward(page, comp.type, comp.encode())
    page.page_lsn = lsn
    return True


def _clr_inverse(rec: LogRecord, ctx: ApplyContext, clr_lsn: int) -> None:
    """Undo a :data:`CLR_UNDONE` record whose ``CLR`` is at ``clr_lsn``:
    at the undo, and again at the CLR's redo."""
    t = rec.type
    if t is RecordType.DEALLOC:
        for pid in rec.page_ids or [rec.page_id]:
            ctx.page_manager.force_state(pid, PageState.ALLOCATED)
    elif t is RecordType.KEYCOPY:
        _undo_keycopy(rec, ctx, clr_lsn)
    else:  # ALLOC / ALLOCRUN
        for pid in rec.page_ids if t is RecordType.ALLOCRUN else [rec.page_id]:
            if ctx.page_manager.state(pid) is PageState.ALLOCATED:
                ctx.page_manager.force_state(pid, PageState.FREE)
            if ctx.buffer.is_resident(pid):
                ctx.buffer.drop_page(pid)


def _undo_keycopy(rec: LogRecord, ctx: ApplyContext, clr_lsn: int) -> None:
    """Remove appended rows from every target and restore PP's next link.

    New pages are torn down by the following ALLOC undos; NP's prev link is
    restored by its own CHANGEPREVLINK undo.  A target stamped at or past
    the CLR is one the CLR's redo finds undone already.
    """
    per_target: dict[int, int] = {}
    for entry in rec.entries:
        per_target[entry.tgt_page] = per_target.get(entry.tgt_page, 0) + entry.count
    for page_id, _old_ts in rec.target_ts:
        if ctx.page_manager.state(page_id) is not PageState.ALLOCATED:
            continue
        page = ctx.buffer.fetch(page_id)
        dirtied = False
        try:
            if not rec.lsn <= page.page_lsn < clr_lsn:
                continue  # never received the copy, or undone already
            count = per_target.get(page_id, 0)
            if count:
                if page.nrows < count:
                    raise RecoveryError(
                        f"keycopy undo: target {page_id} has {page.nrows} "
                        f"rows, expected at least {count}"
                    )
                page.delete_rows(page.nrows - count, page.nrows)
            if page_id == rec.pp_page:
                page.next_page = rec.pp_old_next
            page.page_lsn = clr_lsn
            dirtied = True
        finally:
            ctx.buffer.unpin(page_id, dirty=dirtied)

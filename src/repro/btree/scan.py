"""Index range scans (§2.5): a scan qualifies a leaf per latch hold,
validates by frame version, and re-positions by key.

A scan holds no latch and no pin while a key is with the caller — the
paper's rule that keeps scans from holding physical resources across the
query-processing layer — and checks its page when it resumes.  It does
both once per *leaf*, not once per row: one S-latch hold qualifies every
remaining row of the leaf up to the upper bound (one bounded search for
the end, one slice), notes the buffer frame's change counter, and
unlatches; the rows are then handed out of that private run.  Before each
row goes out the scan validates by frame version, without latching: the
leaf must still be the same resident page image at the same counter.
Every mutator bumps the counter before it drops its X latch, so an
unchanged counter means the run still is the leaf, and row-granular
visibility holds — a row deleted at the cursor is skipped, a row
inserted ahead is seen.  With ``lock_rows`` the order is wait for the
row lock, validate, return, so a row whose insert rolled back while the
scan waited on it is never returned.

Anything can happen while unlatched (the page can split, shrink, be
evicted, or be rebuilt away and its id reused).  On a mismatch the scan
revalidates the page under its latch and, when it is gone or its content
moved, re-positions by key with a fresh traversal.  This is exactly what
lets scans run concurrently with an online rebuild: a scan standing on a
leaf that gets rebuilt simply re-traverses to the first key after the
last one it returned.

Walking to the right neighbor honors the SHRINK bit: the scan blocks via an
instant-duration S address lock and then re-positions by key, since the
neighbor may no longer exist.  Both ways of reaching a leaf by an id read
while unlatched — re-latching the scan's own leaf, stepping to the
neighbor — check under the latch that the page still is an allocated leaf
of this index (and, for the neighbor, still this page's right sibling):
a page rebuilt away keeps its rows and loses its SHRINK bit when the top
action ends, so its image alone cannot tell.

Three syncpoints mark the moments a concurrent change can race the scan,
each fired with no latch held: ``scan.run`` (a leaf's run is handed
out), ``scan.step_right`` (between a leaf and its right neighbor) and
``scan.reposition`` (a re-traversal by key).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Iterator

from repro.btree import keys as K
from repro.btree import node
from repro.btree.traversal import AccessMode, Traversal
from repro.concurrency.latch import LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.concurrency.txn import Transaction
from repro.context import EngineContext
from repro.errors import StorageError
from repro.stats.counters import Counters
from repro.storage.page import NO_PAGE, Page, PageFlag, PageType


def range_scan(
    ctx: EngineContext,
    tree: "object",
    txn: Transaction,
    lo_unit: bytes,
    hi_unit: bytes,
    lock_rows: bool = False,
    with_payload: bool = False,
) -> Iterator[tuple]:
    """Yield ``(key, rowid)`` — or ``(key, rowid, payload)`` with
    ``with_payload`` — for every unit in ``[lo_unit, hi_unit]``.

    ``lock_rows`` requests an instant-duration S logical lock per qualifying
    row (cursor-stability-style reading).
    """
    key_len = tree.key_len
    unit_len = key_len + K.ROWID_LEN
    unit_of = itemgetter(slice(None, unit_len))  # row -> its unit
    counters = ctx.counters
    image_version = ctx.buffer.image_version
    traversal = Traversal(ctx, tree)
    last_returned: bytes | None = None
    page = traversal.traverse(lo_unit, AccessMode.READER, 0, txn)
    pos, _found = node.leaf_search(page, lo_unit, counters)

    while True:
        # ``page`` is S latched and pinned; ``pos`` is its first row that
        # was not returned yet.
        rows = page.rows
        if pos >= len(rows):
            page, pos = _advance_right(ctx, tree, traversal, txn, page, last_returned, lo_unit)
            if page is None:
                return
            continue
        # Qualify the rest of the leaf under this one latch hold.
        end = _qualifying_end(rows, pos, hi_unit, unit_of, counters)
        page_id = page.page_id
        if end == pos:
            ctx.release_page(page_id)
            return
        run = rows[pos:end]
        # A row above the bound sits on this leaf: the scan ends with the
        # run unless the leaf changes first.
        bound_on_leaf = end < len(rows)
        version = image_version(page)
        ctx.release_page(page_id)  # §2.5: unlatch before returning a key
        counters.local_shard()["scan_leaf_visits"] += 1
        ctx.syncpoints.fire("scan.run", page=page_id, rows=len(run))

        changed = False
        handed_out = 0
        try:
            for row in run:
                unit = row[:unit_len]
                if lock_rows:
                    ctx.locks.wait_instant(
                        txn.txn_id, LockSpace.LOGICAL, unit, LockMode.S
                    )
                if image_version(page) != version:
                    changed = True
                    break
                handed_out += 1
                # Rows were validated at insert: decode inline.
                key = unit[:key_len]
                rowid = int.from_bytes(unit[key_len:], "big")
                if with_payload:
                    yield key, rowid, row[unit_len:]
                else:
                    yield key, rowid
                last_returned = unit
        finally:
            # The consumer may resume (or close) the scan on another
            # thread: take the shard again rather than keep it over a yield.
            counters.local_shard()["scan_rows_returned"] += handed_out
        if not changed and bound_on_leaf:
            if image_version(page) == version:
                return
            changed = True
        if changed:
            counters.local_shard()["scan_revalidation_failures"] += 1

        # The leaf changed, or the run reached its last row: re-latch it
        # (re-position by key if it moved on) at the first unit not yet
        # returned.
        resume = lo_unit if last_returned is None else last_returned
        page = _reacquire(ctx, tree, traversal, txn, page_id, resume)
        pos = _resume_pos(page, resume, last_returned, counters)


def _resume_pos(
    page: Page, resume: bytes, last_returned: bytes | None, counters: Counters
) -> int:
    """Position on ``page`` of the first unit not yet returned: at
    ``resume``, or right after it when it is the last unit returned."""
    pos, found = node.leaf_search(page, resume, counters)
    if found and last_returned is not None:
        pos += 1
    return pos


def _qualifying_end(
    rows: list[bytes],
    pos: int,
    hi_unit: bytes,
    unit_of: Callable[[bytes], bytes],
    counters: Counters,
) -> int:
    """End of the run of ``rows`` from ``pos`` whose units are <= ``hi_unit``.

    The common case — the whole rest of the leaf qualifies — is one
    comparison against the last row; otherwise a binary search bounded to
    ``[pos, len(rows) - 1)``.  ``unit_of`` cuts a row to its unit.
    """
    last = len(rows) - 1
    if unit_of(rows[last]) <= hi_unit:
        counters.add("key_comparisons", 1)
        return last + 1
    counters.add("key_comparisons", 1 + (last - pos).bit_length())
    return bisect_right(rows, hi_unit, pos, last, key=unit_of)


def _latch_live_leaf(
    ctx: EngineContext, tree: "object", page_id: int
) -> Page | None:
    """S-latch ``page_id`` if it is a live leaf of this index, else None.

    The scan reaches the page by an id it read while unlatched, so the
    page may have been rebuilt or shrunk away — deallocated, freed, its id
    reused — in between.  The allocation state is checked again *under*
    the latch: a page leaves the allocated state only inside a top action
    that holds its SHRINK bit, and setting that bit needs the X latch, so
    "allocated and not SHRINK-marked" cannot change while the S latch is
    held.  (The callers test the bit: they treat it differently.)  The
    check before the latch only saves fetching a page already known dead.
    """
    if not ctx.page_manager.is_allocated(page_id):
        return None
    try:
        page = ctx.get_latched(page_id, LatchMode.S)
    except StorageError:
        return None
    if (
        ctx.page_manager.is_allocated(page_id)
        and page.page_type is PageType.LEAF
        and page.index_id == getattr(tree, "index_id", page.index_id)
    ):
        return page
    ctx.release_page(page_id)
    return None


def _reacquire(
    ctx: EngineContext,
    tree: "object",
    traversal: Traversal,
    txn: Transaction,
    page_id: int,
    resume: bytes,
) -> Page:
    """Re-latch the scan's page, or re-traverse if it is no longer usable.

    Usable means: still an allocated leaf of this index, not SHRINK-marked,
    and its key range still contains the resume point (a split may have
    moved our position to the right sibling — the side entry check in
    traversal handles that if we re-traverse, so we only keep the page when
    the resume unit is clearly within it).
    """
    page = _latch_live_leaf(ctx, tree, page_id)
    if page is not None:
        # A primary index's rows carry a payload after the unit: the first
        # row is compared by its unit (a payload only raises the last row).
        if (
            not page.has_flag(PageFlag.SHRINK)
            and not page.is_empty
            and page.rows[0][: len(resume)] <= resume <= page.rows[-1]
        ):
            return page
        ctx.release_page(page_id)
    ctx.syncpoints.fire("scan.reposition", page=page_id, resume=resume)
    return traversal.traverse(resume, AccessMode.READER, 0, txn)


def _advance_right(
    ctx: EngineContext,
    tree: "object",
    traversal: Traversal,
    txn: Transaction,
    page: Page,
    last_returned: bytes | None,
    lo_unit: bytes,
) -> tuple[Page | None, int]:
    """Step to the right neighbor; returns (page, start_pos) or (None, 0).

    A SHRINK-marked neighbor forces a block-and-re-traverse; the traversal
    lands on the leaf now covering the first not-yet-returned unit.  So
    does a neighbor that stopped being this page's live right sibling
    between this page's unlatch and its own latch (rebuilt or shrunk away,
    or a split slipped a page in between), minus the block.
    """
    page_id, next_id = page.page_id, page.next_page
    ctx.release_page(page_id)
    if next_id == NO_PAGE:
        return None, 0
    ctx.syncpoints.fire("scan.step_right", page=page_id, next=next_id)
    neighbor = _latch_live_leaf(ctx, tree, next_id)
    if neighbor is not None:
        shrinking = neighbor.has_flag(PageFlag.SHRINK)
        if not shrinking and neighbor.prev_page == page_id:
            return neighbor, 0
        ctx.release_page(next_id)
        if shrinking:
            ctx.locks.wait_instant(
                txn.txn_id, LockSpace.ADDRESS, next_id, LockMode.S
            )
    resume = lo_unit if last_returned is None else last_returned
    ctx.syncpoints.fire("scan.reposition", page=next_id, resume=resume)
    neighbor = traversal.traverse(resume, AccessMode.READER, 0, txn)
    return neighbor, _resume_pos(neighbor, resume, last_returned, ctx.counters)

"""Page splits as nested top actions (§2.2, §2.3).

A split runs inside the inserting transaction but as a *nested top action*:
once its NTA_END (dummy CLR) is logged it survives even if the transaction
later rolls back.  The concurrency protocol is the paper's:

* the old and new pages are X latched, X **address-locked**, and marked
  with the SPLIT bit; the latches drop as soon as the pages are modified,
  while the locks and bits persist to the end of the top action;
* the SPLIT bit blocks *writers* only — a blocked writer releases its
  latches and waits for an instant-duration S address lock (§2.2);
* the old page publishes a **side entry** ``[K, N]`` under the
  OLDPGOFSPLIT bit so concurrent traversals route correctly before the
  parent learns about ``N`` (§2.3);
* propagation is bottom-up, latches at each level released before moving
  on; a parent that itself overflows is split the same way;
* a full root grows in place (the root page id never changes): its rows
  move to a fresh child, the root becomes a one-child nonleaf one level
  higher, and the overflowing child is then split normally.

The footnote-3 optimization is honored: updating only the *previous page
link* of the right neighbor ignores that neighbor's SPLIT bit, which lets
two adjacent leaves split concurrently.
"""

from __future__ import annotations

from repro.btree import keys as K
from repro.btree import node
from repro.btree.top_action import TopAction
from repro.btree.traversal import AccessMode, Traversal
from repro.concurrency.latch import LatchMode
from repro.concurrency.txn import Transaction
from repro.context import EngineContext
from repro.errors import TreeStructureError
from repro.storage.page import NO_PAGE, Page, PageFlag, PageType
from repro.wal.records import LogRecord, RecordType


def split_leaf(
    ctx: EngineContext,
    tree: "object",
    txn: Transaction,
    leaf: Page,
    traversal: Traversal,
) -> None:
    """Split ``leaf`` (X latched, pinned, no bits set) as a nested top action.

    Pure reorganization: the caller's pending row is NOT inserted here —
    a top action is never undone, while the user's row must roll back with
    the user's transaction, so the insert is logged outside the NTA (the
    caller re-traverses and retries once the split completes).  On return,
    or on the way out of an exception, all latches, pins, address locks
    and protocol bits are released/cleared.
    """
    with TopAction(ctx, txn) as top:
        if leaf.page_id == tree.root_page_id:
            # A full root leaf: grow the tree first; the old root's rows
            # move to a fresh child leaf, which we then split normally.
            leaf = grow_root(top, tree, leaf)
        top.lock(leaf, PageFlag.SPLIT)
        new_page = top.new_page(PageFlag.SPLIT)
        new_id = new_page.page_id
        ctx.syncpoints.fire(
            "split.bits_set", page=leaf.page_id, new_page=new_id
        )

        old_next = leaf.next_page
        _init_page(
            ctx, txn, new_page, PageType.LEAF, level=0,
            index_id=leaf.index_id, prev=leaf.page_id, next=old_next,
        )

        # Move the upper portion of the rows (at least one) to the new page.
        split_pos = _split_point(leaf)
        moved = leaf.rows[split_pos:]
        ctx.log_page_change(
            txn,
            LogRecord(type=RecordType.BATCHDELETE, pos=split_pos, rows=list(moved)),
            leaf,
        )
        leaf.delete_rows(split_pos, leaf.nrows)
        ctx.log_page_change(
            txn,
            LogRecord(type=RecordType.BATCHINSERT, pos=0, rows=list(moved)),
            new_page,
        )
        ctx.counters.add("bytes_copied", new_page.insert_rows(0, moved))

        # Chain links: leaf -> new -> old_next (footnote 3 for old_next.prev).
        ctx.log_page_change(
            txn,
            LogRecord(
                type=RecordType.CHANGENEXTLINK,
                old_next=old_next,
                new_next=new_id,
            ),
            leaf,
        )
        leaf.next_page = new_id
        if old_next != NO_PAGE:
            _update_prev_link(ctx, txn, old_next, new_prev=new_id)

        # Side entry so concurrent traversals find the moved keys (§2.3).
        # Two rows differ within their unit prefixes, so the separator of
        # the rows is that of their units: payload bytes never route.
        side_key = K.separator(leaf.rows[-1], new_page.rows[0])
        leaf.set_side_entry(side_key, new_id)
        leaf.set_flag(PageFlag.OLDPGOFSPLIT)

        ctx.release_page(leaf.page_id, dirty=True)
        ctx.release_page(new_id, dirty=True)
        ctx.syncpoints.fire(
            "split.leaf_done", page=leaf.page_id, new_page=new_id,
            side_key=side_key,
        )

        _propagate_insert(
            top, tree, traversal, sep_key=side_key, new_child=new_id, level=1
        )
    ctx.syncpoints.fire("split.nta_end", pages=list(top.pages))


def _propagate_insert(
    top: TopAction,
    tree: "object",
    traversal: Traversal,
    sep_key: bytes,
    new_child: int,
    level: int,
) -> None:
    """Insert ``[sep_key, new_child]`` at ``level``, splitting upward as
    needed (§2.3)."""
    ctx, txn = top.ctx, top.txn
    while True:
        page = traversal.traverse(sep_key, AccessMode.WRITER, level, txn)
        entry = node.encode_entry(sep_key, new_child)
        if page.fits(entry):
            pos = node.entry_insert_pos(page, sep_key, ctx.counters)
            ctx.log_page_change(
                txn,
                LogRecord(type=RecordType.INSERT, pos=pos, rows=[entry]),
                page,
            )
            page.insert_row(pos, entry)
            ctx.release_page(page.page_id, dirty=True)
            ctx.syncpoints.fire(
                "split.propagated", level=level, page=page.page_id
            )
            return
        if page.page_id == tree.root_page_id:
            page = grow_root(top, tree, page)
            # ``page`` is now the freshly created child holding the old
            # root's rows, X latched and locked; split it below.
        sep_key, new_child, level = _split_nonleaf(
            top, page, sep_key, new_child, level
        )


def _split_nonleaf(
    top: TopAction,
    page: Page,
    sep_key: bytes,
    new_child: int,
    level: int,
) -> tuple[bytes, int, int]:
    """Split a full nonleaf ``page`` (X latched) and place the pending entry.

    Returns ``(pushed_key, new_page_id, level + 1)`` for the next round.
    """
    ctx, txn = top.ctx, top.txn
    top.lock(page, PageFlag.SPLIT)
    sibling = top.new_page(PageFlag.SPLIT)
    new_id = sibling.page_id

    _init_page(
        ctx, txn, sibling, PageType.NONLEAF, level=page.level,
        index_id=page.index_id, prev=NO_PAGE, next=NO_PAGE,
    )

    split_pos = _split_point(page)
    if split_pos < 1:
        raise TreeStructureError(
            f"nonleaf {page.page_id} cannot be split: too few entries"
        )
    moved = page.rows[split_pos:]
    pushed_key = node.entry_key(moved[0])
    sibling_rows = [node.strip_entry_key(moved[0])] + list(moved[1:])

    ctx.log_page_change(
        txn,
        LogRecord(type=RecordType.BATCHDELETE, pos=split_pos, rows=list(moved)),
        page,
    )
    page.delete_rows(split_pos, page.nrows)
    ctx.log_page_change(
        txn,
        LogRecord(type=RecordType.BATCHINSERT, pos=0, rows=sibling_rows),
        sibling,
    )
    ctx.counters.add("bytes_copied", sibling.insert_rows(0, sibling_rows))

    # Place the pending entry on the correct side.
    entry = node.encode_entry(sep_key, new_child)
    target = sibling if sep_key >= pushed_key else page
    pos = node.entry_insert_pos(target, sep_key, ctx.counters)
    ctx.log_page_change(
        txn, LogRecord(type=RecordType.INSERT, pos=pos, rows=[entry]), target
    )
    target.insert_row(pos, entry)

    page.set_side_entry(pushed_key, new_id)
    page.set_flag(PageFlag.OLDPGOFSPLIT)

    ctx.release_page(page.page_id, dirty=True)
    ctx.release_page(new_id, dirty=True)
    ctx.syncpoints.fire(
        "split.nonleaf_done", page=page.page_id, new_page=new_id, level=level
    )
    return pushed_key, new_id, level + 1


def grow_root(top: TopAction, tree: "object", root: Page) -> Page:
    """Grow the tree: move the root's rows to a fresh child in place (§2.3);
    the rebuild's propagation phase grows the root the same way.

    The root page id is stable, so no parent ever needs updating.  Returns
    the new child X latched, locked, and SPLIT-bitted — the caller splits it
    to finish placing the pending entry.
    """
    ctx, txn = top.ctx, top.txn
    top.lock(root, PageFlag.SPLIT)
    child = top.new_page(PageFlag.SPLIT)
    child_id = child.page_id

    _init_page(
        ctx, txn, child, root.page_type, level=root.level,
        index_id=root.index_id, prev=NO_PAGE, next=NO_PAGE,
    )

    rows = list(root.rows)
    ctx.log_page_change(
        txn, LogRecord(type=RecordType.BATCHINSERT, pos=0, rows=rows), child
    )
    ctx.counters.add("bytes_copied", child.insert_rows(0, rows))
    ctx.log_page_change(
        txn, LogRecord(type=RecordType.BATCHDELETE, pos=0, rows=rows), root
    )
    root.delete_rows(0, root.nrows)

    old_format = (int(root.page_type), root.level, root.prev_page, root.next_page)
    ctx.log_page_change(
        txn,
        LogRecord(
            type=RecordType.FORMAT,
            page_type=int(PageType.NONLEAF),
            level=root.level + 1,
            prev_page=NO_PAGE,
            next_page=NO_PAGE,
            old_format=old_format,
        ),
        root,
    )
    root.page_type = PageType.NONLEAF
    root.level += 1
    root.prev_page = NO_PAGE
    root.next_page = NO_PAGE

    first_entry = node.encode_entry(b"", child_id)
    ctx.log_page_change(
        txn,
        LogRecord(type=RecordType.INSERT, pos=0, rows=[first_entry]),
        root,
    )
    root.insert_row(0, first_entry)

    ctx.release_page(root.page_id, dirty=True)
    ctx.syncpoints.fire(
        "split.root_grown", root=root.page_id, child=child_id,
        new_level=root.level,
    )
    return child


# ----------------------------------------------------------------- shared


def _init_page(
    ctx: EngineContext,
    txn: Transaction,
    page: Page,
    page_type: PageType,
    level: int,
    index_id: int,
    prev: int,
    next: int,
) -> None:
    """Log the allocation+format of a fresh page and set its header."""
    rec = LogRecord(
        type=RecordType.ALLOC,
        page_type=int(page_type),
        level=level,
        prev_page=prev,
        next_page=next,
    )
    page.page_type = page_type
    page.level = level
    page.index_id = index_id
    page.prev_page = prev
    page.next_page = next
    ctx.log_page_change(txn, rec, page)
    ctx.counters.add("new_pages_allocated")


def _update_prev_link(
    ctx: EngineContext, txn: Transaction, page_id: int, new_prev: int
) -> None:
    """Set a page's prev pointer, ignoring its SPLIT bit (footnote 3)."""
    page = ctx.get_latched(page_id, LatchMode.X)
    try:
        ctx.log_page_change(
            txn,
            LogRecord(
                type=RecordType.CHANGEPREVLINK,
                old_prev=page.prev_page,
                new_prev=new_prev,
            ),
            page,
        )
        page.prev_page = new_prev
    finally:
        ctx.release_page(page_id, dirty=True)


def _split_point(page: Page) -> int:
    """Slot index where the upper half starts (byte-balanced, >= 1 moved)."""
    total = sum(len(r) for r in page.rows)
    half = total // 2
    acc = 0
    for i, row in enumerate(page.rows):
        acc += len(row)
        if acc > half:
            return max(1, min(i, page.nrows - 1))
    return max(1, page.nrows - 1)

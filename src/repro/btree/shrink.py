"""Page shrink as a nested top action (§2.4).

A leaf is shrunk when its last row is removed.  The protocol mirrors split
with SHRINK bits — which block readers *and* writers — instead of SPLIT
bits.  Address locks at the leaf level are acquired right-to-left (the page
itself, then its previous page), the ordering §6.5 relies on for deadlock
freedom.  To honor the latch discipline, the shrinker releases the leaf's
latch (the page stays frozen under its X lock + SHRINK bit) before locking
the previous page, then revalidates that the chain did not change around it
— a concurrent split of the left neighbor can retarget ``prev``.

Propagation deletes the page's index entry from its parent; an emptied
parent is shrunk recursively ("there is no need to perform the deletes —
the page can directly be deallocated", §5.3.1).  If the cascade reaches a
root left with no children, the root is reformatted as an empty leaf — the
root page id is stable, so the tree simply becomes empty.

Per §4.1.3, pages deallocated by a shrink are freed as soon as the top
action completes.
"""

from __future__ import annotations

from repro.btree import node
from repro.btree.split import _update_prev_link
from repro.btree.top_action import TopAction
from repro.btree.traversal import AccessMode, Traversal
from repro.concurrency.latch import LatchMode
from repro.concurrency.txn import Transaction
from repro.context import EngineContext
from repro.storage.page import NO_PAGE, Page, PageFlag, PageType
from repro.wal.records import LogRecord, RecordType


def shrink_leaf(
    ctx: EngineContext,
    tree: "object",
    txn: Transaction,
    leaf: Page,
    routing_unit: bytes,
    traversal: Traversal,
) -> None:
    """Remove the empty ``leaf`` (X latched, pinned, bit-free) from the tree.

    ``routing_unit`` is the unit whose deletion emptied the page; it still
    routes to the leaf's position at every ancestor level.
    """
    leaf_id = leaf.page_id
    with TopAction(ctx, txn) as top:
        # Right-to-left address locking: the page itself first (§6.5).
        top.lock(leaf, PageFlag.SHRINK)
        old_next = leaf.next_page
        pp_id = leaf.prev_page
        ctx.release_page(leaf_id, dirty=True)
        ctx.syncpoints.fire("shrink.leaf_frozen", page=leaf_id)

        # Lock and unlink the previous page; it can move under us until the
        # lock is held, so revalidate and chase.
        pp_id = _lock_prev_page(top, leaf_id, pp_id)
        if pp_id != NO_PAGE:
            pp = ctx.get_latched(pp_id, LatchMode.X)
            top.lock(pp, PageFlag.SHRINK)
            ctx.log_page_change(
                txn,
                LogRecord(
                    type=RecordType.CHANGENEXTLINK,
                    old_next=leaf_id,
                    new_next=old_next,
                ),
                pp,
            )
            pp.next_page = old_next
            ctx.release_page(pp_id, dirty=True)
        if old_next != NO_PAGE:
            _update_prev_link(ctx, txn, old_next, new_prev=pp_id)

        top.deallocate([leaf_id])
        _propagate_delete(top, tree, traversal, leaf_id, routing_unit)
    # §4.1.3: shrink's deallocated pages are freed at top action completion.
    for pid in top.deallocated:
        ctx.buffer.flush_page(pid)
        ctx.page_manager.free(pid)
    ctx.syncpoints.fire("shrink.nta_end", pages=list(top.pages))


def _lock_prev_page(top: TopAction, leaf_id: int, pp_id: int) -> int:
    """Acquire the X address lock on the true previous page of ``leaf_id``.

    Chases ``prev`` retargeting by concurrent splits of the left neighbor:
    after each (possibly blocking) lock acquisition, verify the locked page
    still points at our leaf; otherwise release and follow the new pointer.
    """
    ctx = top.ctx
    while pp_id != NO_PAGE:
        top.lock_address(pp_id)
        page = ctx.get_latched(pp_id, LatchMode.S)
        valid = (
            ctx.page_manager.is_allocated(pp_id)
            and page.page_type is PageType.LEAF
            and page.next_page == leaf_id
        )
        ctx.release_page(pp_id)
        if valid:
            return pp_id
        top.unlock_address(pp_id)
        leaf = ctx.get_latched(leaf_id, LatchMode.S)
        pp_id = leaf.prev_page
        ctx.release_page(leaf_id)
    return NO_PAGE


def _propagate_delete(
    top: TopAction,
    tree: "object",
    traversal: Traversal,
    child_id: int,
    routing_unit: bytes,
) -> None:
    """Delete ``child_id``'s entry at each level, shrinking emptied parents."""
    ctx, txn = top.ctx, top.txn
    level = 1
    while True:
        page = traversal.traverse(routing_unit, AccessMode.WRITER, level, txn)
        pos = node.find_child_entry(page, child_id)
        if page.nrows == 1:
            # Only child: this parent empties too (§5.3.1).
            if page.page_id == tree.root_page_id:
                _collapse_root_to_empty_leaf(ctx, txn, page)
                ctx.release_page(page.page_id, dirty=True)
                return
            top.lock(page, PageFlag.SHRINK)
            page_id = page.page_id
            ctx.release_page(page_id, dirty=True)
            top.deallocate([page_id])
            child_id = page_id
            level += 1
            continue
        if pos == 0:
            # Deleting the first child: the next entry becomes the keyless
            # first entry (§5's representation).
            first_two = [page.rows[0], page.rows[1]]
            stripped = node.strip_entry_key(page.rows[1])
            ctx.log_page_change(
                txn,
                LogRecord(type=RecordType.BATCHDELETE, pos=0, rows=first_two),
                page,
            )
            page.delete_rows(0, 2)
            ctx.log_page_change(
                txn,
                LogRecord(type=RecordType.INSERT, pos=0, rows=[stripped]),
                page,
            )
            page.insert_row(0, stripped)
        else:
            entry = page.rows[pos]
            ctx.log_page_change(
                txn,
                LogRecord(type=RecordType.DELETE, pos=pos, rows=[entry]),
                page,
            )
            page.delete_row(pos)
        ctx.release_page(page.page_id, dirty=True)
        ctx.syncpoints.fire(
            "shrink.propagated", level=level, page=page.page_id
        )
        return


def _collapse_root_to_empty_leaf(
    ctx: EngineContext, txn: Transaction, root: Page
) -> None:
    """The last leaf shrank away: reformat the root as an empty leaf."""
    rows = list(root.rows)
    ctx.log_page_change(
        txn,
        LogRecord(type=RecordType.BATCHDELETE, pos=0, rows=rows),
        root,
    )
    root.delete_rows(0, root.nrows)
    old_format = (int(root.page_type), root.level, root.prev_page, root.next_page)
    ctx.log_page_change(
        txn,
        LogRecord(
            type=RecordType.FORMAT,
            page_type=int(PageType.LEAF),
            level=0,
            prev_page=NO_PAGE,
            next_page=NO_PAGE,
            old_format=old_format,
        ),
        root,
    )
    root.page_type = PageType.LEAF
    root.level = 0
    ctx.syncpoints.fire("shrink.root_collapsed", root=root.page_id)

"""Propagation phase of the multipage rebuild top action (§5).

After the copy phase rewrites a run of leaves, each old leaf passes
*propagation entries* describing what its parent must do (§5.2):

* ``DELETE`` — the page's keys all fit in previously existing targets; its
  index entry simply disappears;
* ``UPDATE`` — new pages were allocated while copying it; its entry is
  replaced by the entry for the first such page;
* ``INSERT`` — one entry per additional new page.

``propagate_to_level`` (§5.4.1) walks the entry list left to right; for
each affected parent it batches that parent's group of entries, applies the
delete phase then the insert phase (§5.4.2), and collects the entries the
parent itself passes upward (§5.3):

* all children deleted and nothing inserted → the parent is shrunk; *the
  deletes are not performed* — the page is deallocated directly (§5.3.1)
  and passes DELETE;
* overflow during the insert phase splits the parent so that the remaining
  inserts land on one side; each new sibling yields an INSERT entry
  (§5.3.2); a full root grows in place first;
* if the parent's first child was deleted, keys moved across subtrees and
  the parent passes ``UPDATE [K, P]``, where ``K`` is the separator of its
  new first child — exactly the §5.3.3 rule (``Ku`` if that child arrived
  via an UPDATE entry, the old ``Ki`` if it survived untouched).

The §5.5 enhancement is implemented for the leaf→level-1 step: when the
parent's first child is being deleted, leading inserts are placed on the
level-1 page written just before it (space permitting), so level-1 pages
are packed left-to-right with no separate reorganization pass.

Lock/bit rules follow §5.4.2: a page that sees any delete gets the SHRINK
bit (traversals blocked) and, where it fits, publishes the key range of
the entries it deleted, so that only traversals inside that range block
(§6.2's range side entry); an insert-only page gets the SPLIT bit (readers
pass); a page being split gets SHRINK plus a SHRINK-bitted, X-locked new
sibling.  All bits and X address locks persist to the end of the top
action.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.btree import node
from repro.btree.split import grow_root
from repro.btree.top_action import TopAction
from repro.btree.traversal import AccessMode, Traversal
from repro.concurrency.latch import LatchMode
from repro.context import EngineContext
from repro.core.config import RebuildConfig
from repro.errors import PageFullError, RebuildError
from repro.storage.page import (
    HEADER_SIZE,
    NO_PAGE,
    SLOT_OVERHEAD,
    Page,
    PageFlag,
    PageType,
    partition_rows,
    run_bytes,
)
from repro.wal.records import LogRecord, RecordType


class PropOp(enum.Enum):
    DELETE = "delete"
    UPDATE = "update"
    INSERT = "insert"


@dataclass
class PropagationEntry:
    """One command passed from level *i* to level *i+1* (§5.1).

    ``origin`` is the level-*i* page that sent the entry; grouping at the
    parent level keys off it (a parent's group is the maximal run of
    entries whose origin has an index entry on that parent).  ``route_key``
    is a unit that belonged to the origin's subtree — it still routes to
    the origin's position at every ancestor, because propagation is bottom
    up and ancestors are not yet modified.
    """

    op: PropOp
    origin: int
    route_key: bytes
    new_key: bytes | None = None   # UPDATE/INSERT: separator of the new entry
    new_child: int | None = None   # UPDATE/INSERT: child page of the new entry


@dataclass
class PropagationState:
    """Per-top-action state threaded through the level-1 pass."""

    pp_page: int = NO_PAGE          # the PP leaf (absorbed leading keys)
    pp_low_unit: bytes | None = None
    prev_survivor: int | None = None  # last level-1 page written, for §5.5


def run_propagation(
    top: TopAction,
    tree: "object",
    entries: list[PropagationEntry],
    traversal: Traversal,
    config: RebuildConfig,
    state: PropagationState,
) -> None:
    """Drive propagation level by level until no entries remain.

    The pages allocated on the way (nonleaf split siblings, a root-grow
    child) join ``top.new_pages``, so the driver can force them to disk
    before the transaction's old pages are freed (§3).
    """
    level = 1
    while entries:
        entries = propagate_to_level(
            top, tree, entries, level, traversal, config, state
        )
        level += 1
        top.ctx.syncpoints.fire("rebuild.level_propagated", level=level)


def propagate_to_level(
    top: TopAction,
    tree: "object",
    entries: list[PropagationEntry],
    level: int,
    traversal: Traversal,
    config: RebuildConfig,
    state: PropagationState,
) -> list[PropagationEntry]:
    """Apply ``entries`` to level ``level``; return the next level's entries.

    This is Algorithm ``propagate_to_level`` of §5.4.1: groups are peeled
    off the front of the list, each parent is retrieved through the
    remembered-path traversal (§2.6.1), modified left to right, and the
    entries it passes are accumulated.
    """
    ctx = top.ctx
    out: list[PropagationEntry] = []
    i = 0
    while i < len(entries):
        first = entries[i]
        page = traversal.traverse(
            first.route_key, AccessMode.WRITER, level, top.txn
        )
        children = {node.entry_child(r) for r in page.rows}
        group: list[PropagationEntry] = []
        while i < len(entries) and entries[i].origin in children:
            group.append(entries[i])
            i += 1
        if not group:
            ctx.release_page(page.page_id)
            raise RebuildError(
                f"propagation entry for page {first.origin} does not match "
                f"any child of level-{level} page {page.page_id}"
            )
        passed = _apply_group(top, tree, page, group, level, config, state)
        out.extend(passed)
    return out


# --------------------------------------------------------------- group apply


def _apply_group(
    top: TopAction,
    tree: "object",
    page: Page,
    group: list[PropagationEntry],
    level: int,
    config: RebuildConfig,
    state: PropagationState,
) -> list[PropagationEntry]:
    """Apply one parent's group of entries; return what it passes up.

    ``page`` arrives X latched and is released (or deallocated) here.
    """
    ctx, txn = top.ctx, top.txn
    rows_before = list(page.rows)
    position_of = {node.entry_child(r): p for p, r in enumerate(rows_before)}
    route = group[0].route_key

    del_positions = sorted(
        position_of[e.origin]
        for e in group
        if e.op in (PropOp.DELETE, PropOp.UPDATE)
    )
    if del_positions and del_positions != list(
        range(del_positions[0], del_positions[-1] + 1)
    ):
        ctx.release_page(page.page_id)
        raise RebuildError(
            f"delete positions {del_positions} on page {page.page_id} "
            "are not contiguous"
        )
    inserts = [
        (e.new_key, e.new_child)
        for e in group
        if e.op in (PropOp.UPDATE, PropOp.INSERT)
    ]
    first_child_deleted = bool(del_positions) and del_positions[0] == 0

    # ------------------------------------------------- §5.5 redirection
    if (
        level == 1
        and config.reorganize_level1
        and first_child_deleted
        and inserts
    ):
        inserts = _redirect_to_left_sibling(
            top, tree, page, inserts, state=state, position_of=position_of
        )

    remaining = len(rows_before) - len(del_positions) + len(inserts)
    if remaining == 0:
        # §5.3.1 shrink: no deletes performed, page deallocated directly.
        if page.page_id == tree.root_page_id:
            ctx.release_page(page.page_id)
            raise RebuildError("rebuild would empty the root page")
        top.lock(page, PageFlag.SHRINK)
        page_id = page.page_id
        ctx.release_page(page_id, dirty=True)
        top.deallocate([page_id])
        ctx.syncpoints.fire("rebuild.nonleaf_shrunk", page=page_id, level=level)
        if state.prev_survivor == page_id:
            state.prev_survivor = None
        return [PropagationEntry(PropOp.DELETE, origin=page_id, route_key=route)]

    # ------------------------------------------------- delete phase (§5.4.2)
    bit = PageFlag.SHRINK if del_positions else PageFlag.SPLIT
    top.lock(page, bit)

    new_rows = [node.encode_entry(k, c) for k, c in inserts]  # type: ignore[arg-type]
    update_key: bytes | None = None
    del_lo = del_positions[0] if del_positions else 0
    del_hi = del_positions[-1] + 1 if del_positions else 0

    if first_child_deleted:
        if new_rows:
            # The first inserted entry becomes the keyless first child; its
            # key is what the parent must learn via our UPDATE (§5.3.3).
            update_key = inserts[0][0]
            new_rows[0] = node.strip_entry_key(new_rows[0])
        else:
            # The first surviving old entry becomes the first child: fold
            # its key-stripping into the batch delete + insert.
            survivor = rows_before[del_hi]
            update_key = node.entry_key(survivor)
            new_rows = [node.strip_entry_key(survivor)]
            del_hi += 1

    if del_positions:
        removed = rows_before[del_lo:del_hi]
        ctx.log_page_change(
            txn,
            LogRecord(type=RecordType.BATCHDELETE, pos=del_lo, rows=removed),
            page,
        )
        page.delete_rows(del_lo, del_hi)
        insert_pos = del_lo
    else:
        insert_pos = (
            node.entry_insert_pos(page, inserts[0][0], ctx.counters)  # type: ignore[arg-type]
            if inserts
            else 0
        )

    # ------------------------------------------------- insert phase (§5.3.2)
    siblings: list[tuple[bytes, int]] = []
    if new_rows:
        page, siblings = _insert_with_splits(
            top, tree, page, insert_pos, new_rows
        )

    if del_positions and not siblings and page.has_flag(PageFlag.SHRINK):
        # §6.2: publish the deleted key range so traversals outside it
        # pass through despite the SHRINK bit.  Empty bound = infinity.
        lo = node.entry_key(rows_before[del_lo]) if del_lo > 0 else b""
        hi = (
            node.entry_key(rows_before[del_hi])
            if del_hi < len(rows_before)
            else b""
        )
        try:
            page.set_blocked_range(lo, hi)
            page.set_flag(PageFlag.SHRINKRANGE)
        except PageFullError:
            pass  # no room for the side entry: keep full blocking

    survived_id = page.page_id
    is_root = survived_id == tree.root_page_id
    ctx.release_page(survived_id, dirty=True)
    if level == 1:
        state.prev_survivor = survived_id
    ctx.syncpoints.fire(
        "rebuild.group_applied", page=survived_id, level=level,
        deletes=len(del_positions), inserts=len(new_rows),
        splits=len(siblings),
    )

    out: list[PropagationEntry] = []
    if is_root:
        return out  # the root has no parent; its range is unbounded
    if first_child_deleted and update_key is not None:
        out.append(
            PropagationEntry(
                PropOp.UPDATE,
                origin=survived_id,
                route_key=route,
                new_key=update_key,
                new_child=survived_id,
            )
        )
    for sep, sib in siblings:
        out.append(
            PropagationEntry(
                PropOp.INSERT,
                origin=survived_id,
                route_key=route,
                new_key=sep,
                new_child=sib,
            )
        )
    return out


def _redirect_to_left_sibling(
    top: TopAction,
    tree: "object",
    page: Page,
    inserts: list[tuple[bytes | None, int | None]],
    state: PropagationState,
    position_of: dict[int, int],
) -> list[tuple[bytes | None, int | None]]:
    """§5.5: place leading inserts on the left sibling, space permitting.

    Returns the inserts that remain for ``page``.  The left sibling is the
    level-1 page this top action wrote just before (``prev_survivor``) or,
    for the first group, the parent of PP — unless that parent is ``page``
    itself (PP's entry on this very page), in which case the packing
    happens naturally inside ``page``.  PP is frozen under the top action's
    X lock, so its parent cannot stop being P's immediate left sibling
    while we hold that parent's latch.

    The lookup and the latch acquisition are strictly non-blocking: §5.5 is
    an optimization, and we already hold the latch on ``page`` — waiting
    here could deadlock with an operation that holds the sibling and wants
    ``page``.
    """
    ctx, txn = top.ctx, top.txn
    left_id = state.prev_survivor
    if left_id is None:
        if state.pp_page == NO_PAGE or state.pp_page in position_of:
            return inserts  # no left sibling distinct from this page
        left_id = _find_parent_of_pp(ctx, tree, state)
        if left_id is None:
            return inserts
    if left_id == page.page_id:
        return inserts
    if not ctx.latches.try_acquire(left_id, LatchMode.X):
        return inserts  # never wait for an optimization
    try:
        left = ctx.buffer.fetch(left_id)
    except BaseException:
        ctx.latches.release(left_id)  # no latch outlives its pin
        raise
    try:
        batch: list[bytes] = []
        free = left.free_bytes
        for key, child in inserts:
            assert key is not None and child is not None
            entry = node.encode_entry(key, child)
            cost = SLOT_OVERHEAD + len(entry)
            if cost > free:
                break
            batch.append(entry)
            free -= cost
        # ``left`` may be mid-split by a writer whose bit-clear needs this
        # latch: an unconditional lock request here would never be
        # granted.  Never wait for an optimization.
        if not batch or not top.try_lock(left, PageFlag.SPLIT):
            return inserts
        pos = left.nrows
        ctx.log_page_change(
            txn,
            LogRecord(type=RecordType.BATCHINSERT, pos=pos, rows=batch),
            left,
        )
        left.insert_rows(pos, batch)
        ctx.syncpoints.fire(
            "rebuild.level1_redirected", left=left_id, count=len(batch)
        )
        return inserts[len(batch):]
    finally:
        ctx.buffer.unpin(left_id, dirty=True)
        ctx.latches.release(left_id)


def _find_parent_of_pp(
    ctx: EngineContext, tree: "object", state: PropagationState,
) -> int | None:
    """Locate the level-1 page holding PP's entry (first-group §5.5 case).

    The level-1 read that never waits (:meth:`Traversal.level1`), because
    the caller holds the latch on the page to the right and must never
    block here.  Verifies the landing page actually carries PP's entry.
    """
    if state.pp_low_unit is None or state.pp_page == NO_PAGE:
        return None
    found = Traversal(ctx, tree).level1(state.pp_low_unit, None)
    if found is None or state.pp_page not in found.children:
        return None
    return found.page_id


def _insert_with_splits(
    top: TopAction,
    tree: "object",
    page: Page,
    insert_pos: int,
    new_rows: list[bytes],
) -> tuple[Page, list[tuple[bytes, int]]]:
    """Insert ``new_rows`` at ``insert_pos``; split ``page`` as needed.

    Implements §5.3.2: the final entry sequence is partitioned so the page
    keeps a prefix and each overflow chunk goes to a fresh SHRINK-bitted
    sibling whose first separator is pushed up as an INSERT entry.  Returns
    the (possibly root-grown replacement) page still latched, plus the
    ``(separator, sibling_id)`` list.
    """
    ctx, txn = top.ctx, top.txn
    capacity = page.page_size - HEADER_SIZE
    final = page.rows[:insert_pos] + new_rows + page.rows[insert_pos:]
    if run_bytes(final) <= capacity:
        ctx.log_page_change(
            txn,
            LogRecord(type=RecordType.BATCHINSERT, pos=insert_pos, rows=new_rows),
            page,
        )
        page.insert_rows(insert_pos, new_rows)
        return page, []

    if page.page_id == tree.root_page_id:
        # Grow the tree in place, then split the child that now holds the
        # root's old rows (it is returned latched, locked, and bitted).
        page = grow_root(top, tree, page)
        top.lock(page, PageFlag.SHRINK)

    chunks = partition_rows(final, capacity)
    keep = chunks[0]
    # Rows of the current page that must leave (the tail moving right).
    boundary = len(keep)
    kept_new = max(0, min(len(new_rows), boundary - insert_pos))
    tail_start = insert_pos + (boundary - insert_pos - kept_new)
    tail = page.rows[tail_start:]
    if tail:
        ctx.log_page_change(
            txn,
            LogRecord(type=RecordType.BATCHDELETE, pos=tail_start, rows=tail),
            page,
        )
        page.delete_rows(tail_start, page.nrows)
    if kept_new:
        ctx.log_page_change(
            txn,
            LogRecord(
                type=RecordType.BATCHINSERT,
                pos=insert_pos,
                rows=new_rows[:kept_new],
            ),
            page,
        )
        page.insert_rows(insert_pos, new_rows[:kept_new])

    siblings: list[tuple[bytes, int]] = []
    for chunk in chunks[1:]:
        sep = node.entry_key(chunk[0])
        rows = [node.strip_entry_key(chunk[0])] + chunk[1:]
        sibling = top.new_page(PageFlag.SHRINK)
        sib_id = sibling.page_id
        sibling.page_type = PageType.NONLEAF
        sibling.level = page.level
        sibling.index_id = page.index_id
        ctx.log_page_change(
            txn,
            LogRecord(
                type=RecordType.ALLOC,
                page_type=int(PageType.NONLEAF),
                level=page.level,
            ),
            sibling,
        )
        ctx.counters.add("new_pages_allocated")
        ctx.log_page_change(
            txn,
            LogRecord(type=RecordType.BATCHINSERT, pos=0, rows=rows),
            sibling,
        )
        sibling.insert_rows(0, rows)
        ctx.release_page(sib_id, dirty=True)
        siblings.append((sep, sib_id))
    return page, siblings

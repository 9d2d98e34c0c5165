"""Copy phase of the multipage rebuild top action (§4.1).

One top action rebuilds up to ``ntasize`` contiguous leaves P1..Pn:

1. **Locking and reading** (§4.1.1, §6.5): X address locks and SHRINK
   bits go on PP (P1's previous page), then P1..Pn left to right.  If PP
   or P1 is busy the rebuild gives back everything it holds, blocks via an
   instant S lock, and retries; if a later Pi is busy the top action
   simply stops at Pi-1 ("rebuild does not wait").  Each lock is taken
   *conditionally under the page's X latch* and the bit is set before the
   latch drops, preserving the §6.5 invariant that a latched page is
   locked iff it is bitted — which is what keeps latch-holders and
   lock-holders from deadlocking.  That latched visit is also the read:
   from then on the address lock, not a latch, protects the leaf's rows
   and ``next_page``, so they are copied out there (:class:`Frozen`) and
   the leaf *stays pinned* (:meth:`TopAction.keep`) until the top action
   gives it back — two latched visits per source leaf, the pins bounded
   by what the pool can spare.  With ``split_then_shrink`` (§6.2) the old
   leaves carry SPLIT bits during the copy — readers still allowed — and
   are flipped to SHRINK just before the chain is relinked.

2. **Copying**: the keys move to PP (up to the fillfactor) and to freshly
   allocated pages from the contiguous chunk cursor, each filled to the
   fillfactor.  A *single keycopy log record* captures all the copying as
   ``[src page, tgt page, first pos, last pos]`` extents — no key bytes
   (§4.1.2); redo re-reads the sources, which §3's flush-new-before-free-
   old ordering keeps intact.

3. **Relinking + deallocation**: PP.next jumps to the first new page, NP's
   prev is repointed (its own changeprevlink record, footnote-3 latch
   rule), and the old pages are deallocated — to be *freed* only when the
   enclosing transaction commits (§4.1.3).

The per-source bookkeeping yields the §5.2 propagation entries: a source
whose keys forced ``k > 0`` new allocations passes UPDATE plus ``k-1``
INSERTs (entry keys are suffix-compressed separators against the previous
target's last unit); a source fully absorbed by existing targets passes
DELETE.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from repro.btree import keys as K
from repro.btree.split import _update_prev_link
from repro.btree.top_action import TopAction
from repro.btree.traversal import Traversal
from repro.concurrency.latch import LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.context import EngineContext
from repro.core.config import RebuildConfig
from repro.core.propagation import PropagationEntry, PropOp
from repro.errors import RebuildError, StorageError
from repro.storage.page import (
    HEADER_SIZE,
    NO_PAGE,
    Page,
    PageFlag,
    PageType,
    SLOT_OVERHEAD,
)
from repro.storage.page_manager import ChunkAllocator
from repro.wal.records import KeyCopyEntry, LogRecord, RecordType


@dataclass
class CopyResult:
    """Everything the propagation phase and the driver need."""

    prop_entries: list[PropagationEntry]
    new_pages: list[int]
    old_pages: list[int]
    pp_page: int                 # NO_PAGE when P1 was the leftmost leaf
    pp_low_unit: bytes | None
    resume_unit: bytes           # highest unit copied so far
    reached_end: bool            # Pn was the last leaf of the index
    low_unit: bytes = b""        # lowest unit copied (first unit of P1)


class PositionLost(RebuildError):
    """The starting leaf vanished while we were acquiring locks.

    The driver re-discovers its position from ``resume_unit`` and retries.
    """


# ---------------------------------------------------------------- planning


@dataclass
class _TargetPlan:
    """Planned content of one copy target (-1 ordinal means PP)."""

    ordinal: int
    units: list[bytes] = field(default_factory=list)
    extents: list[KeyCopyEntry] = field(default_factory=list)


def plan_copy(
    sources: list[Frozen],
    pp_free_budget: int,
    capacity: int,
    fillfactor: float,
) -> tuple[list[_TargetPlan], dict[int, list[int]]]:
    """Distribute source units over PP and new pages.

    Returns the target plans (PP first, if it receives anything) and, per
    source page id, the ordinals of new pages allocated while copying it —
    the §5.2 propagation-entry rule's input.  ``pp_free_budget`` is how
    many more row bytes PP may take (0 when there is no PP).
    """
    budget = max(1, int(fillfactor * capacity))
    targets: list[_TargetPlan] = []
    allocs_per_source: dict[int, list[int]] = {}
    free = 0
    if pp_free_budget > 0:
        targets.append(_TargetPlan(ordinal=-1))
        free = pp_free_budget
    next_ordinal = 0

    for src_id, rows, row_bytes, _next in sources:
        if not rows:
            raise RebuildError(
                f"leaf {src_id} is empty; empty leaves are shrunk, not "
                "rebuilt"
            )
        allocs = allocs_per_source[src_id] = []
        if row_bytes <= free:
            # The whole leaf fits the open target: one extent, no sums.
            target = targets[-1]
            target.units += rows
            target.extents.append(KeyCopyEntry(src_id, 0, 0, len(rows) - 1))
            free -= row_bytes
            continue
        # The leaf straddles a target boundary.  cost[k] = slotted bytes of
        # rows[:k], strictly increasing, so "how many more rows fit" is a
        # binary search instead of a per-row loop.
        cost = list(
            accumulate([SLOT_OVERHEAD + len(r) for r in rows], initial=0)
        )
        pos, n = 0, len(rows)
        while pos < n:
            end = bisect_right(cost, cost[pos] + free, pos + 1) - 1
            if end == pos:
                # The next unit does not fit (or there is no target yet):
                # open a fresh page, which always takes at least one unit,
                # budget or not.
                targets.append(_TargetPlan(ordinal=next_ordinal))
                allocs.append(next_ordinal)
                next_ordinal += 1
                free = budget
                end = max(
                    pos + 1, bisect_right(cost, cost[pos] + free, pos + 1) - 1
                )
            target = targets[-1]
            target.units += rows[pos:end]
            target.extents.append(KeyCopyEntry(src_id, 0, pos, end - 1))
            free -= cost[end] - cost[pos]
            pos = end
    return [t for t in targets if t.units], allocs_per_source


# ------------------------------------------------------------- orchestration


def copy_multipage(
    top: TopAction,
    tree: "object",
    config: RebuildConfig,
    chunk_alloc: ChunkAllocator,
    p1_id: int,
    stop_unit: bytes | None = None,
) -> CopyResult:
    """Run the copy phase for the run of leaves starting at ``p1_id``.

    Every page locked here is ``top``'s until it ends, PP and the sources
    kept pinned.  ``stop_unit`` bounds a range-restricted rebuild: the run
    does not extend past the leaf containing it.  Raises
    :class:`PositionLost` if ``p1_id`` stopped being a usable leaf before
    it could be locked (the driver re-discovers and retries).

    The source leaves are usually resident by the time the locking pass
    fetches them: the driver publishes ``p1_id`` to the I/O scheduler's
    read-ahead before it calls in here (:func:`level1_leaf_order` is
    where the scheduler learns which leaves come next).
    """
    ctx = top.ctx
    source_bit = (
        PageFlag.SPLIT if config.split_then_shrink else PageFlag.SHRINK
    )
    pp, p1 = _lock_pp_and_p1(top, p1_id, source_bit)
    # The run stays pinned until given back: a small pool gets shorter
    # top actions, not an exhausted pool.
    max_run = min(config.ntasize, max(1, ctx.buffer.pin_room()))
    run = _extend_run(top, p1, max_run, source_bit, stop_unit)
    pp_id = pp.page_id if pp is not None else NO_PAGE
    old_ids = [leaf.page_id for leaf in run]
    ctx.syncpoints.fire(
        "rebuild.copy_locked", pp=pp_id, sources=list(old_ids)
    )
    next_after_run = run[-1].next_page

    capacity = ctx.page_size - HEADER_SIZE
    pp_rows = pp.rows if pp is not None else []
    pp_low_unit = pp_rows[0] if pp_rows else None
    pp_last_unit = pp_rows[-1] if pp_rows else None
    pp_free_budget = 0
    if pp is not None:
        # Never overflow the physical page whatever the fillfactor says.
        budget = min(capacity, max(1, int(config.fillfactor * capacity)))
        pp_free_budget = max(0, budget - pp.row_bytes)

    targets, allocs_per_source = plan_copy(
        run, pp_free_budget, capacity, config.fillfactor
    )

    # Allocate the new pages from the contiguous chunk cursor (§6.1); a
    # fresh cursor (e.g. an incremental slice resuming) continues right
    # behind PP when that space is free, keeping slices disk-adjacent.
    if not chunk_alloc.allocated and pp_id != NO_PAGE:
        chunk_alloc.prefer_after = pp_id
    ordinal_to_id: dict[int, int] = {-1: pp_id}
    new_ids: list[int] = []
    for t in targets:
        if t.ordinal >= 0:
            ordinal_to_id[t.ordinal] = chunk_alloc.next_page()
            new_ids.append(ordinal_to_id[t.ordinal])

    _apply_copy(
        top, tree, config, old_ids, targets, ordinal_to_id,
        pp_id, new_ids, next_after_run,
    )

    # Deallocate the old pages in one batched record (allocation-state
    # logging covers the whole run); they are freed at txn commit (§3).
    top.deallocate(old_ids)
    ctx.counters.add("leaf_pages_rebuilt", len(old_ids))

    prop_entries = _propagation_entries(
        run, targets, allocs_per_source, ordinal_to_id, pp_last_unit,
        unit_len=tree.key_len + 6,
    )
    ctx.syncpoints.fire(
        "rebuild.copy_done", sources=list(old_ids), new_pages=list(new_ids)
    )
    return CopyResult(
        prop_entries=prop_entries,
        new_pages=new_ids,
        old_pages=list(old_ids),
        pp_page=pp_id,
        pp_low_unit=pp_low_unit,
        resume_unit=run[-1].rows[-1],  # plan_copy refused an empty leaf
        reached_end=next_after_run == NO_PAGE,
        low_unit=run[0].rows[0],
    )


# --------------------------------------------------------------- read-ahead

def level1_leaf_order(
    ctx: EngineContext, tree: "object", unit: bytes, count: int
) -> tuple[list[int], bytes | None] | None:
    """The source order of the copy phase, read off level 1 (§5): about
    ``count`` leaf ids in chain order starting with the leaf whose range
    holds ``unit``, and the unit the order continues from (``None`` at
    the right edge of the index).

    This is read-ahead's only source of leaf order: it requests upcoming
    runs without reading a leaf.  Each level-1 page is read by
    :meth:`Traversal.level1` in its mode that never waits — the level-1
    pages are the ones the rebuild's propagation visits every top action,
    and the ones ahead are read here a little before its traversal would
    have read them.  A latch that is not free, a page that cannot be
    read, or a bit that blocks the unit (a top action is rearranging
    exactly these entries; waiting it out would mean an address lock)
    returns ``None`` — or the part of the order already copied — and
    read-ahead learns nothing more until a read lands, the position moves
    or the rebuild's top action ends.
    """
    walk = Traversal(ctx, tree, scan=True)
    leaves: list[int] = []
    at: bytes | None = unit
    while at is not None and len(leaves) < count:
        found = walk.level1(at, None)
        if found is None:
            # What was copied so far is still good, and ``at`` is where
            # the page that could not be read begins.
            return (leaves, at) if leaves else None
        leaves += found.children
        at = found.bound
    return leaves, at


# ------------------------------------------------------------------ locking


class Frozen(NamedTuple):
    """What a top action reads of a leaf in the latched visit that locks
    and bits it.  The address lock freezes exactly this much — the rows
    and ``next_page``; ``prev_page`` still moves under the left neighbor's
    latch — so it is good until the top action gives the leaf back."""

    page_id: int
    rows: list[bytes]
    row_bytes: int  # slotted bytes of ``rows``: what a target must hold
    next_page: int


def _acquire_page(
    top: TopAction, page_id: int, bit: PageFlag
) -> Frozen | None:
    """Conditionally lock + bit one leaf under its X latch, read it there,
    and keep it pinned for ``top``'s give-back.

    Returns None, nothing taken, when the page is held by another top
    action (foreign bit or lock) or is no longer an allocated leaf.  The
    bit goes on before the latch drops: locked iff bitted (§6.5).  The (likely
    cold) read goes through the big buffers, per §6.3; a page that cannot
    be read raises — "busy" is an answer callers wait on.
    """
    ctx = top.ctx
    if not ctx.page_manager.is_allocated(page_id):
        return None
    page = ctx.get_latched(page_id, LatchMode.X, large_io=True, scan=True)
    if page.page_type is not PageType.LEAF or not top.try_lock(page, bit):
        ctx.release_page(page_id)
        return None
    top.keep(page)
    # No side entry or blocked range on a leaf nobody else holds: all
    # past the header is rows (``used_bytes`` is O(1)).
    frozen = Frozen(
        page_id, list(page.rows), page.used_bytes - HEADER_SIZE,
        page.next_page,
    )
    ctx.latches.release(page_id)
    return frozen


def _lock_pp_and_p1(
    top: TopAction, p1_id: int, source_bit: PageFlag
) -> tuple[Frozen | None, Frozen]:
    """Lock PP then P1 — the first pages of the top action, so it holds
    nothing yet — waiting (the §6.5 instant-lock wait), after giving
    everything back, when busy.  A PP or P1 that cannot be read raises.
    """
    ctx, txn = top.ctx, top.txn
    while True:
        if not ctx.page_manager.is_allocated(p1_id):
            raise PositionLost(f"leaf {p1_id} is gone")
        page = ctx.get_latched(p1_id, LatchMode.S, large_io=True, scan=True)
        is_leaf = page.page_type is PageType.LEAF
        pp_id = page.prev_page
        ctx.release_page(p1_id)
        if not is_leaf:
            raise PositionLost(f"page {p1_id} is no longer a leaf")

        pp: Frozen | None = None
        if pp_id != NO_PAGE:
            pp = _acquire_page(top, pp_id, PageFlag.SHRINK)
            if pp is None:
                ctx.locks.wait_instant(
                    txn.txn_id, LockSpace.ADDRESS, pp_id, LockMode.S
                )
                continue
            # Revalidate the chain under the lock.
            if not (
                ctx.page_manager.is_allocated(pp_id)
                and pp.next_page == p1_id
            ):
                top.give_back()
                continue

        p1 = _acquire_page(top, p1_id, source_bit)
        if p1 is None:
            # §6.5: release everything before waiting, then retry all.
            top.give_back()
            ctx.locks.wait_instant(
                txn.txn_id, LockSpace.ADDRESS, p1_id, LockMode.S
            )
            continue
        if not ctx.page_manager.is_allocated(p1_id):
            top.give_back()
            raise PositionLost(f"leaf {p1_id} vanished while locking")
        return pp, p1


def _extend_run(
    top: TopAction,
    p1: Frozen,
    max_run: int,
    source_bit: PageFlag,
    stop_unit: bytes | None = None,
) -> list[Frozen]:
    """Lock P2..Pn along the chain, each step read off the leaf just
    frozen; stop (don't wait) at the first busy or unreadable one, at
    ``max_run`` leaves, and never extend past the leaf containing
    ``stop_unit``."""
    run = [p1]
    while len(run) < max_run:
        last = run[-1]
        if last.next_page == NO_PAGE or (
            stop_unit is not None and last.rows and last.rows[-1] >= stop_unit
        ):
            break
        try:
            nxt = _acquire_page(top, last.next_page, source_bit)
        except StorageError:
            break  # the next top action starts there and reports it
        if nxt is None:
            break  # §4.1.1: rebuild does not wait for P_i, i > 1
        run.append(nxt)
    return run


# ------------------------------------------------------------------ applying


def _apply_copy(
    top: TopAction,
    tree: "object",
    config: RebuildConfig,
    old_ids: list[int],
    targets: list[_TargetPlan],
    ordinal_to_id: dict[int, int],
    pp_id: int,
    new_ids: list[int],
    next_after_run: int,
) -> None:
    """Materialize the plan: ALLOC records, one keycopy record, links.
    PP and the sources are latched here, not fetched: ``top`` holds their
    pins."""
    ctx, txn, held = top.ctx, top.txn, top.held
    index_id = tree.index_id

    # Chain layout: pp -> new pages -> next_after_run.  Only the *next*
    # component of PP's entry is ever applied (its prev is untouched); when
    # there is no PP, the first new page becomes the leftmost leaf.
    chain = ([pp_id] if pp_id != NO_PAGE else []) + new_ids
    links: dict[int, tuple[int, int]] = {}
    for i, pid in enumerate(chain):
        prev = chain[i - 1] if i > 0 else NO_PAGE
        nxt = chain[i + 1] if i + 1 < len(chain) else next_after_run
        links[pid] = (prev, nxt)

    # One batched alloc+format record for the whole run of new pages
    # (X latched, X locked, SHRINK-bitted until the NTA ends).
    target_pages: dict[int, Page] = {}
    if new_ids:
        run_rec = LogRecord(
            type=RecordType.ALLOCRUN,
            page_id=new_ids[0],
            index_id=index_id,
            page_type=int(PageType.LEAF),
            level=0,
            prev_page=links[new_ids[0]][0],
            next_page=links[new_ids[-1]][1],
            page_ids=list(new_ids),
        )
        run_lsn = ctx.txns.append(txn, run_rec)
        for pid in new_ids:
            prev, nxt = links[pid]
            # The rebuild's fresh targets are written once and forced, so
            # they recycle through the ring instead of displacing hot pages.
            page = top.new_page(PageFlag.SHRINK, page_id=pid, scan=True)
            page.page_type = PageType.LEAF
            page.level = 0
            page.index_id = index_id
            page.prev_page = prev
            page.next_page = nxt
            page.page_lsn = run_lsn
            target_pages[pid] = page
        ctx.counters.add("new_pages_allocated", len(new_ids))

    # The single keycopy record (§4.1.2).  Chain links of the new pages are
    # already captured by the ALLOCRUN record, so none are repeated here.
    entries: list[KeyCopyEntry] = []
    target_ts: list[tuple[int, int]] = []
    pp_page: Page | None = None
    pp_old_next = NO_PAGE
    if pp_id != NO_PAGE:
        ctx.latches.acquire(pp_id, LatchMode.X)
        pp_page = target_pages[pp_id] = held[pp_id]
        pp_old_next = pp_page.next_page
        target_ts.append((pp_id, pp_page.page_lsn))
    for t in targets:
        tgt_id = ordinal_to_id[t.ordinal]
        for e in t.extents:
            entries.append(
                KeyCopyEntry(e.src_page, tgt_id, e.first_pos, e.last_pos)
            )
        if t.ordinal >= 0:
            target_ts.append((tgt_id, target_pages[tgt_id].page_lsn))
    pp_new_next = links[pp_id][1] if pp_id != NO_PAGE else NO_PAGE
    keycopy = LogRecord(
        type=RecordType.KEYCOPY,
        # No PP, no open target: the first source opened a new page.
        page_id=pp_id if pp_id != NO_PAGE else new_ids[0],
        index_id=index_id,
        pp_page=pp_id,
        pp_old_next=pp_old_next,
        pp_new_next=pp_new_next,
        entries=entries,
        target_ts=target_ts,
    )
    lsn = ctx.txns.append(txn, keycopy)
    ctx.counters.add("top_actions")

    # Apply: one bulk append of the planned units per target, then stamp.
    copied_bytes = 0
    for t in targets:
        page = target_pages[ordinal_to_id[t.ordinal]]
        copied_bytes += page.extend_rows(t.units)
        page.page_lsn = lsn
    ctx.counters.add("bytes_copied", copied_bytes)

    if config.split_then_shrink:
        # §6.2: flip the old pages' SPLIT bits to SHRINK before unlinking.
        for src_id in old_ids:
            ctx.latches.acquire(src_id, LatchMode.X)
            top.lock(held[src_id], PageFlag.SHRINK)
            ctx.latches.release(src_id)

    # Relink the chain around the old run.
    if pp_page is not None:
        pp_page.next_page = pp_new_next
        # Stamped even when PP took no rows (a full one): an unstamped
        # link flip could reach disk ahead of the keycopy record.
        pp_page.page_lsn = lsn
        ctx.buffer.mark_dirty(pp_id)
        ctx.latches.release(pp_id)
    for pid in new_ids:
        ctx.buffer.unpin(pid, dirty=True)
        ctx.latches.release(pid)
    if next_after_run != NO_PAGE:
        new_prev = new_ids[-1] if new_ids else pp_id
        _update_prev_link(ctx, txn, next_after_run, new_prev=new_prev)


def _propagation_entries(
    sources: list[Frozen],
    targets: list[_TargetPlan],
    allocs_per_source: dict[int, list[int]],
    ordinal_to_id: dict[int, int],
    pp_last_unit: bytes | None,
    unit_len: int | None = None,
) -> list[PropagationEntry]:
    """The §5.2 rules, with suffix-compressed separator keys.

    A new page's separator is computed against the last unit physically
    preceding it in the chain: the previous new page's last unit, or —
    for the first new page — PP's last unit (``pp_last_unit``; PP counts
    even when it absorbed nothing this time, e.g. because the previous top
    action already filled it to the fillfactor).  Only when P1 was the
    leftmost leaf of the whole index is there no predecessor at all; that
    page's entry always lands in position 0 of its parent and is stripped,
    so its separator value never routes anything.
    """
    # Last unit of the target preceding each ordinal, for separators.
    prev_last: dict[int, bytes | None] = {}
    previous: bytes | None = pp_last_unit
    for t in sorted(targets, key=lambda t: t.ordinal):
        prev_last[t.ordinal] = previous
        previous = t.units[-1]
    first_unit: dict[int, bytes] = {
        t.ordinal: t.units[0] for t in targets
    }

    out: list[PropagationEntry] = []
    for src in sources:
        src_id, route = src.page_id, src.rows[0]
        ordinals = allocs_per_source[src_id]
        if not ordinals:
            out.append(
                PropagationEntry(PropOp.DELETE, origin=src_id, route_key=route)
            )
            continue
        for i, ordinal in enumerate(ordinals):
            before = prev_last[ordinal]
            # Separators route search units, so payload bytes (primary
            # indexes, footnote 2) are sliced off before compressing.
            first = first_unit[ordinal]
            if unit_len is not None:
                first = first[:unit_len]
                before = before[:unit_len] if before is not None else None
            sep = (
                K.separator(before, first)
                if before is not None
                else first[:1]  # leftmost page of the index
            )
            op = PropOp.UPDATE if i == 0 else PropOp.INSERT
            out.append(
                PropagationEntry(
                    op,
                    origin=src_id,
                    route_key=route,
                    new_key=sep,
                    new_child=ordinal_to_id[ordinal],
                )
            )
    return out

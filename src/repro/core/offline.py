"""Offline rebuild baseline: drop and recreate under a table lock (§1).

The paper motivates online rebuild against this classic alternative: "users
can drop and recreate the index.  However, that typically requires holding
a shared table lock ... making the table inaccessible to OLTP
transactions."  We model the table lock as an X address lock on a
per-index *table resource* that every OLTP operation would need; the
concurrency benchmark measures how long it is held (the full duration of
the rebuild) versus the online algorithm's per-page locks.

The rebuild itself is a bulk bottom-up load: scan the old index in key
order, write fresh leaves at the fillfactor, stack nonleaf levels, swap
the root in place (the root page id is stable), then deallocate + free
every old page.  Logging is batch-per-page, the best case an offline
rebuild can do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree import keys as K
from repro.btree import node
from repro.btree.tree import BTree
from repro.btree.verify import collect_contents
from repro.concurrency.latch import LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.context import EngineContext
from repro.core.config import RebuildConfig
from repro.stats.counters import Timer
from repro.storage.page import HEADER_SIZE, NO_PAGE, PageType, SLOT_OVERHEAD
from repro.storage.page_manager import ChunkAllocator
from repro.wal.records import LogRecord, RecordType


@dataclass
class OfflineReport:
    """Measurements from one offline rebuild."""

    leaf_pages_built: int = 0
    old_pages_freed: int = 0
    log_bytes: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    lock_held_seconds: float = 0.0


def table_lock_resource(index_id: int) -> str:
    """The resource OLTP operations would contend on during offline rebuild."""
    return f"table-of-index-{index_id}"


def offline_rebuild(
    tree: BTree, config: RebuildConfig | None = None
) -> OfflineReport:
    """Drop-and-recreate the index while holding the table lock."""
    config = config if config is not None else RebuildConfig()
    ctx: EngineContext = tree.ctx
    report = OfflineReport()
    log_before = ctx.log.usage_snapshot()
    timer = Timer()
    txn = ctx.txns.begin()
    ctx.locks.acquire(
        txn.txn_id,
        LockSpace.LOGICAL,
        table_lock_resource(tree.index_id),
        LockMode.X,
    )
    try:
        with timer:
            _rebuild_locked(ctx, tree, txn, config, report)
        ctx.txns.commit(txn)
    except BaseException:
        ctx.latches.release_all()
        ctx.txns.abort(txn)
        raise
    report.wall_seconds = timer.wall_seconds
    report.cpu_seconds = timer.cpu_seconds
    report.lock_held_seconds = timer.wall_seconds
    usage = ctx.log.usage_diff(log_before, ctx.log.usage_snapshot())
    report.log_bytes = sum(usage["bytes"].values())
    return report


def _rebuild_locked(
    ctx: EngineContext,
    tree: BTree,
    txn: "object",
    config: RebuildConfig,
    report: OfflineReport,
) -> None:
    units = collect_contents(ctx, tree)
    old_pages = _all_pages(ctx, tree)
    old_pages.discard(tree.root_page_id)

    chunk = ChunkAllocator(ctx.page_manager)
    try:
        level_pages = _build_leaves(ctx, tree, txn, config, chunk, units)
        report.leaf_pages_built = len(level_pages)
        level = 1
        while len(level_pages) > 1:
            level_pages = _build_nonleaf_level(
                ctx, tree, txn, chunk, level_pages, level
            )
            level += 1
        top_id = level_pages[0][0] if level_pages else NO_PAGE
        _install_root(ctx, tree, txn, top_id)
    finally:
        chunk.close()

    for pid in sorted(old_pages):
        ctx.txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=pid))
        ctx.page_manager.deallocate(pid)
    ctx.buffer.flush_all()
    for pid in sorted(old_pages):
        ctx.page_manager.free(pid)
    report.old_pages_freed = len(old_pages)


def _all_pages(ctx: EngineContext, tree: BTree) -> set[int]:
    """Every page reachable from the root (levels + leaf chain)."""
    pages: set[int] = set()
    stack = [tree.root_page_id]
    while stack:
        pid = stack.pop()
        if pid in pages:
            continue
        pages.add(pid)
        page = ctx.buffer.fetch(pid)
        if page.page_type is PageType.NONLEAF:
            stack.extend(node.entry_child(r) for r in page.rows)
        ctx.buffer.unpin(pid)
    return pages


def _partition_rows(
    rows: list[bytes], budget: int
) -> list[list[bytes]]:
    """Greedy byte partition of ``rows`` into page-sized batches."""
    batches: list[list[bytes]] = []
    batch: list[bytes] = []
    used = 0
    for row in rows:
        cost = SLOT_OVERHEAD + len(row)
        if batch and used + cost > budget:
            batches.append(batch)
            batch, used = [], 0
        batch.append(row)
        used += cost
    if batch:
        batches.append(batch)
    return batches


def _write_fresh_page(
    ctx: EngineContext,
    tree: BTree,
    txn: "object",
    pid: int,
    page_type: PageType,
    level: int,
    rows: list[bytes],
    prev: int = NO_PAGE,
) -> None:
    ctx.latches.acquire(pid, LatchMode.X)
    page = ctx.buffer.new_page(pid)
    page.page_type = page_type
    page.level = level
    page.index_id = tree.index_id
    page.prev_page = prev
    ctx.log_page_change(
        txn,
        LogRecord(
            type=RecordType.ALLOC,
            page_type=int(page_type),
            level=level,
            prev_page=prev,
        ),
        page,
    )
    ctx.log_page_change(
        txn,
        LogRecord(type=RecordType.BATCHINSERT, pos=0, rows=rows),
        page,
    )
    page.insert_rows(0, rows)
    ctx.release_page(pid, dirty=True)


def _build_leaves(
    ctx: EngineContext,
    tree: BTree,
    txn: "object",
    config: RebuildConfig,
    chunk: ChunkAllocator,
    units: list[bytes],
) -> list[tuple[int, bytes]]:
    """Write fresh leaves at the fillfactor.

    Returns ``(page_id, separator)`` per leaf in key order; the separator
    is the suffix-compressed low bound against the previous leaf (empty
    for the first), ready to become the parent's entry key.
    """
    capacity = ctx.page_size - HEADER_SIZE
    budget = max(1, int(config.fillfactor * capacity))
    batches = _partition_rows(units, budget)
    out: list[tuple[int, bytes]] = []
    prev = NO_PAGE
    prev_last: bytes | None = None
    unit_len = tree.key_len + K.ROWID_LEN
    for rows in batches:
        pid = chunk.next_page()
        sep = (
            b""
            if prev_last is None
            else K.separator(prev_last[:unit_len], rows[0][:unit_len])
        )
        _write_fresh_page(
            ctx, tree, txn, pid, PageType.LEAF, 0, rows, prev=prev
        )
        if prev != NO_PAGE:
            prev_page = ctx.buffer.fetch(prev)
            # Logged, not just patched: the durable log must hold the
            # page's complete history or the scrubber's replay repair
            # would reconstruct the leaf without its chain link.
            ctx.log_page_change(
                txn,
                LogRecord(
                    type=RecordType.CHANGENEXTLINK,
                    old_next=NO_PAGE,
                    new_next=pid,
                ),
                prev_page,
            )
            prev_page.next_page = pid
            ctx.buffer.unpin(prev, dirty=True)
        out.append((pid, sep))
        prev = pid
        prev_last = rows[-1]
    return out


def _build_nonleaf_level(
    ctx: EngineContext,
    tree: BTree,
    txn: "object",
    chunk: ChunkAllocator,
    children: list[tuple[int, bytes]],
    level: int,
) -> list[tuple[int, bytes]]:
    """Stack one nonleaf level over ``children``; returns the new level.

    Each child arrives with its low separator; the first entry of every
    new page is stored keyless (§5's representation) and its separator
    becomes the page's own low bound for the next level up.
    """
    capacity = ctx.page_size - HEADER_SIZE
    entries = [node.encode_entry(sep, child) for child, sep in children]
    batches = _partition_rows(entries, capacity)
    out: list[tuple[int, bytes]] = []
    for rows in batches:
        sep = node.entry_key(rows[0])
        stored = [node.strip_entry_key(rows[0])] + rows[1:]
        pid = chunk.next_page()
        _write_fresh_page(
            ctx, tree, txn, pid, PageType.NONLEAF, level, stored
        )
        out.append((pid, sep))
    return out


def _install_root(
    ctx: EngineContext,
    tree: BTree,
    txn: "object",
    top_id: int,
) -> None:
    """Replace the stable root's content with the new top page's content."""
    root = ctx.get_latched(tree.root_page_id, LatchMode.X)
    try:
        old_rows = list(root.rows)
        if old_rows:
            ctx.log_page_change(
                txn,
                LogRecord(type=RecordType.BATCHDELETE, pos=0, rows=old_rows),
                root,
            )
            root.delete_rows(0, root.nrows)
        if top_id == NO_PAGE:
            new_type, new_level, rows = PageType.LEAF, 0, []
        else:
            top = ctx.buffer.fetch(top_id)
            rows = list(top.rows)
            new_type, new_level = top.page_type, top.level
            ctx.buffer.unpin(top_id)
        old_format = (
            int(root.page_type), root.level, root.prev_page, root.next_page
        )
        ctx.log_page_change(
            txn,
            LogRecord(
                type=RecordType.FORMAT,
                page_type=int(new_type),
                level=new_level,
                prev_page=NO_PAGE,
                next_page=NO_PAGE,
                old_format=old_format,
            ),
            root,
        )
        root.page_type = new_type
        root.level = new_level
        root.prev_page = NO_PAGE
        root.next_page = NO_PAGE
        if rows:
            ctx.log_page_change(
                txn,
                LogRecord(type=RecordType.BATCHINSERT, pos=0, rows=rows),
                root,
            )
            root.insert_rows(0, rows)
    finally:
        ctx.release_page(tree.root_page_id, dirty=True)
    if top_id != NO_PAGE:
        # The top page's content now lives in the root; retire the page.
        ctx.txns.append(
            txn, LogRecord(type=RecordType.DEALLOC, page_id=top_id)
        )
        ctx.page_manager.deallocate(top_id)
        ctx.page_manager.free(top_id)
        ctx.buffer.drop_page(top_id)
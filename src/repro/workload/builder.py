"""Index builders for the paper's experimental conditions.

Table 1 runs against an index at "about 50% space utilization" (§6.4);
the clustering experiment (§6.1) additionally wants the index
*declustered* — leaf pages scattered over disk relative to key order.

Three builders cover the space:

* :func:`bulk_load` — bottom-up load at an exact fill fraction through the
  contiguous chunk allocator.  Fast and precise: ``fill=0.5`` reproduces
  the Table 1 precondition directly.
* :func:`build_by_inserts` — drive the real insert path (splits and all),
  in ascending or shuffled key order.  Shuffled order both fragments page
  placement (allocations interleave across the key space — the
  declustered condition) and exercises every split path.
* :func:`thin_out` — delete a fraction of keys through the real delete
  path (shrinks included), lowering utilization after either builder.
"""

from __future__ import annotations

import random

from repro.btree import keys as K
from repro.btree import node
from repro.btree.tree import BTree
from repro.concurrency.latch import LatchMode
from repro.concurrency.txn import Transaction
from repro.context import EngineContext
from repro.engine import Engine
from repro.errors import ReproError
from repro.storage.page import HEADER_SIZE, NO_PAGE, PageType, partition_rows
from repro.storage.page_manager import ChunkAllocator
from repro.wal.records import LogRecord, RecordType


def bulk_load(
    engine: Engine,
    keys: list[bytes],
    key_len: int,
    fill: float = 0.5,
    index_id: int | None = None,
) -> BTree:
    """Create an index and bottom-up load ``keys`` at fill fraction ``fill``.

    Keys must be unique; rowid ``i`` is assigned to the i-th key in sorted
    order.  Pages come from contiguous chunks, so the loaded index is
    clustered; combine with :func:`build_by_inserts` when the declustered
    §6.1 precondition is wanted.  Each level is partitioned into pages
    until one page's worth is left, which is written straight into the
    stable root, so a load allocates only pages it keeps.
    """
    tree = engine.create_index(key_len=key_len, index_id=index_id)
    ordered = sorted(keys)
    if len(set(ordered)) != len(ordered):
        raise ReproError("bulk_load requires unique keys")
    units = [
        K.leaf_unit(key, rowid, key_len) for rowid, key in enumerate(ordered)
    ]
    if not units:
        return tree
    ctx = tree.ctx
    capacity = ctx.page_size - HEADER_SIZE
    budget = max(1, int(max(0.05, min(fill, 1.0)) * capacity))
    batches = partition_rows(units, budget)
    txn = ctx.txns.begin()
    chunk = ChunkAllocator(ctx.page_manager)
    try:
        level = 0
        while len(batches) > 1:
            if level == 0:
                children = _build_leaves(ctx, tree, txn, chunk, batches)
            else:
                children = _build_nonleaf_level(
                    ctx, tree, txn, chunk, batches, level
                )
            entries = [node.encode_entry(sep, pid) for pid, sep in children]
            batches = partition_rows(entries, capacity)
            level += 1
        _install_root(ctx, tree, txn, level, batches[0])
        ctx.txns.commit(txn)
    except BaseException:
        ctx.latches.release_all()
        ctx.txns.abort(txn)
        raise
    finally:
        chunk.close()
    engine.checkpoint()
    return tree


def _write_fresh_page(
    ctx: EngineContext,
    tree: BTree,
    txn: Transaction,
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
    txn: Transaction,
    chunk: ChunkAllocator,
    batches: list[list[bytes]],
) -> list[tuple[int, bytes]]:
    """Write one fresh, chained leaf per batch of leaf units.

    Returns ``(page_id, separator)`` per leaf in key order; the separator
    is the suffix-compressed low bound against the previous leaf (empty
    for the first), ready to become the parent's entry key.
    """
    out: list[tuple[int, bytes]] = []
    prev = NO_PAGE
    for i, rows in enumerate(batches):
        pid = chunk.next_page()
        sep = K.separator(batches[i - 1][-1], rows[0]) if i else b""
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
    return out


def _build_nonleaf_level(
    ctx: EngineContext,
    tree: BTree,
    txn: Transaction,
    chunk: ChunkAllocator,
    batches: list[list[bytes]],
    level: int,
) -> list[tuple[int, bytes]]:
    """Write one fresh nonleaf page per batch of entries; returns the level.

    The first entry of every page is stored keyless (§5's representation)
    and its separator becomes the page's own low bound for the next level
    up.
    """
    out: list[tuple[int, bytes]] = []
    for rows in batches:
        pid = chunk.next_page()
        _write_fresh_page(
            ctx, tree, txn, pid, PageType.NONLEAF, level, _keyless_first(rows)
        )
        out.append((pid, node.entry_key(rows[0])))
    return out


def _keyless_first(entries: list[bytes]) -> list[bytes]:
    return [node.strip_entry_key(entries[0])] + entries[1:]


def _install_root(
    ctx: EngineContext,
    tree: BTree,
    txn: Transaction,
    level: int,
    rows: list[bytes],
) -> None:
    """Format the stable root as the load's top page and write ``rows``.

    ``rows`` are the leaf units (level 0) or the entries (level > 0) of the
    one batch the top level partitioned into.  A fresh index's root is an
    empty leaf, so there is nothing to delete first.
    """
    page_type = PageType.NONLEAF if level else PageType.LEAF
    if level:
        rows = _keyless_first(rows)
    root = ctx.get_latched(tree.root_page_id, LatchMode.X)
    try:
        old_format = (
            int(root.page_type), root.level, root.prev_page, root.next_page
        )
        ctx.log_page_change(
            txn,
            LogRecord(
                type=RecordType.FORMAT,
                page_type=int(page_type),
                level=level,
                prev_page=NO_PAGE,
                next_page=NO_PAGE,
                old_format=old_format,
            ),
            root,
        )
        root.page_type = page_type
        root.level = level
        root.prev_page = NO_PAGE
        root.next_page = NO_PAGE
        ctx.log_page_change(
            txn,
            LogRecord(type=RecordType.BATCHINSERT, pos=0, rows=rows),
            root,
        )
        root.insert_rows(0, rows)
    finally:
        ctx.release_page(tree.root_page_id, dirty=True)


def build_by_inserts(
    engine: Engine,
    keys: list[bytes],
    key_len: int,
    shuffled: bool = True,
    seed: int = 0,
    index_id: int | None = None,
) -> BTree:
    """Create an index through the real insert path.

    ``shuffled=True`` inserts in random order — page allocations then
    interleave across the key space, producing the *declustered* layout of
    §6.1 (consecutive leaves land on distant disk addresses).
    """
    tree = engine.create_index(key_len=key_len, index_id=index_id)
    order = list(range(len(keys)))
    if shuffled:
        random.Random(seed).shuffle(order)
    for i in order:
        tree.insert(keys[i], i)
    return tree


def thin_out(
    tree: BTree,
    keys: list[bytes],
    keep_one_in: int = 2,
    seed: int | None = None,
) -> list[bytes]:
    """Delete all but every ``keep_one_in``-th key; returns surviving keys.

    Rowids must have been assigned by :func:`build_by_inserts` (ordinal
    order).  With ``seed`` the victims are chosen randomly instead of by
    stride, which fragments pages more unevenly.
    """
    survivors: list[bytes] = []
    if seed is None:
        victims = {
            i for i in range(len(keys)) if i % keep_one_in != 0
        }
    else:
        rnd = random.Random(seed)
        victim_count = len(keys) - len(keys) // keep_one_in
        victims = set(rnd.sample(range(len(keys)), victim_count))
    for i, key in enumerate(keys):
        if i in victims:
            tree.delete(key, i)
        else:
            survivors.append(key)
    return survivors


def declustering_metric(tree: BTree) -> float:
    """Mean absolute page-id jump between consecutive leaves (§6.1).

    1.0 means perfectly clustered (each leaf directly follows the previous
    one on disk); larger values mean range scans seek farther.
    """
    stats = tree.verify()
    ids = stats.leaf_page_ids
    if len(ids) < 2:
        return 1.0
    jumps = [abs(b - a) for a, b in zip(ids, ids[1:])]
    return sum(jumps) / len(jumps)

"""Side-tree rebuild baseline, in the style the paper argues against (§7).

[ZS96] and [SBC97] reorganize by building a *new* B+-tree next to the old
one while updates are captured in a sidefile, then switching over under a
tree-exclusive lock.  The paper's §7 lists the costs: the storage
requirement doubles, the sidefile adds complexity and overhead, switching
needs an exclusive lock that "may cause unbounded wait", the log cannot be
truncated while the copy proceeds, and incremental operation is hard.

This module implements an honest simplified version so the benchmarks can
put numbers on those claims:

1. install an update **journal** (the sidefile) on the live tree;
2. scan the old tree and bulk-build a complete **side tree**;
3. **drain** the journal into the side tree in rounds until it is short —
   under sustained write load this loop is the classic chase;
4. **switch**: close the tree's operation gate, wait for in-flight
   operations (the unbounded-wait hazard), drain the remainder, move the
   side tree under the stable root page id, and free the old pages.

The journal records each change as it runs, with its transaction.  The
drain takes entries in journal order and settles each one only once its
transaction has ended: a committed change is applied, an aborted one is
undone in the side tree (the scan may have copied it before the abort).
An entry whose transaction is still active is waited for, up to
``SETTLE_TIMEOUT`` — at the switch that is §7's "unbounded wait" made
explicit, since the old pages cannot be freed under a change that may
still roll back.

Compare with :class:`~repro.core.rebuild.OnlineRebuild`, which needs no
journal, no second tree, and no tree-exclusive lock.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.btree.tree import BTree
from repro.concurrency.txn import Transaction, TxnState
from repro.core.config import RebuildConfig
from repro.core.offline import (
    _all_pages,
    _build_leaves,
    _build_nonleaf_level,
    _install_root,
)
from repro.errors import DuplicateKeyError, KeyNotFoundError, RebuildError
from repro.stats.counters import Timer
from repro.storage.page import NO_PAGE
from repro.storage.page_manager import ChunkAllocator
from repro.wal.records import LogRecord, RecordType

SETTLE_TIMEOUT = 10.0
"""Seconds the rebuild waits for a transaction with an unsettled journal
entry (or, before the scan, any transaction active when the journal was
installed) to commit or abort before it gives up."""


@dataclass
class SideTreeReport:
    """Measurements of one side-tree rebuild (the §7 cost sheet)."""

    wall_seconds: float = 0.0
    build_seconds: float = 0.0
    switch_seconds: float = 0.0
    """How long the tree-exclusive switch blocked all operations."""
    journal_entries: int = 0
    """Sidefile size: every concurrent update captured during the rebuild
    (an aborted one included: the drain undoes it in the side tree)."""
    drain_rounds: int = 0
    peak_extra_pages: int = 0
    """The doubled-storage moment: pages held by the side tree while the
    old tree still exists."""
    log_bytes: int = 0


def sidetree_rebuild(
    tree: BTree,
    config: RebuildConfig | None = None,
    drain_threshold: int = 32,
    max_drain_rounds: int = 200,
) -> SideTreeReport:
    """Rebuild ``tree`` via a side tree + journal + exclusive switch."""
    config = config if config is not None else RebuildConfig()
    ctx = tree.ctx
    if getattr(tree, "_rebuild_active", False):
        raise RebuildError(
            f"index {tree.index_id} already has a rebuild in progress"
        )
    tree._rebuild_active = True  # type: ignore[attr-defined]
    report = SideTreeReport()
    log_before = ctx.log.usage_snapshot()
    journal: deque = deque()
    timer = Timer()
    try:
        with timer:
            _run(tree, config, journal, drain_threshold, max_drain_rounds,
                 report)
    finally:
        tree.update_journal = None
        tree.open_gate()
        tree._rebuild_active = False  # type: ignore[attr-defined]
    report.wall_seconds = timer.wall_seconds
    usage = ctx.log.usage_diff(log_before, ctx.log.usage_snapshot())
    report.log_bytes = sum(usage["bytes"].values())
    return report


def _run(
    tree: BTree,
    config: RebuildConfig,
    journal: deque,
    drain_threshold: int,
    max_drain_rounds: int,
    report: SideTreeReport,
) -> None:
    ctx = tree.ctx
    tree.update_journal = journal
    # A transaction already running may have changed the tree before the
    # journal was there to see it: the scan must not copy such a change
    # while it can still roll back.
    for txn in list(ctx.txns.active.values()):
        _settle(txn)

    # ---- pass 1: copy the (live) old tree into a complete side tree.
    build_started = time.perf_counter()
    rows = [
        key + rowid.to_bytes(6, "big") + payload
        for key, rowid, payload in tree.scan(with_payload=True)
    ]
    side, side_pages = _bulk_side_tree(tree, config, rows)
    report.build_seconds = time.perf_counter() - build_started
    report.peak_extra_pages = len(side_pages)
    ctx.syncpoints.fire(
        "sidetree.built", pages=len(side_pages), journal=len(journal)
    )

    # ---- chase the sidefile down to a short tail.
    while len(journal) > drain_threshold:
        if report.drain_rounds >= max_drain_rounds:
            raise RebuildError(
                "sidefile never drained below the threshold "
                f"({len(journal)} entries after {report.drain_rounds} "
                "rounds) — the §7 chase hazard"
            )
        report.drain_rounds += 1
        report.journal_entries += _drain(side, journal, len(journal))

    # ---- the switch: tree-exclusive, everything blocks (§7 hazard).
    switch_started = time.perf_counter()
    tree.close_gate_and_quiesce()
    try:
        report.journal_entries += _drain(side, journal, len(journal))
        _switch(tree, side)
    finally:
        tree.update_journal = None
        tree.open_gate()
    report.switch_seconds = time.perf_counter() - switch_started
    ctx.syncpoints.fire("sidetree.switched")


def _bulk_side_tree(
    tree: BTree, config: RebuildConfig, rows: list[bytes]
) -> tuple[BTree, list[int]]:
    """Build the complete new tree next to the old one; returns it plus
    the pages it occupies."""
    ctx = tree.ctx
    txn = ctx.txns.begin()
    chunk = ChunkAllocator(ctx.page_manager)
    try:
        if rows:
            level_pages = _build_leaves(ctx, tree, txn, config, chunk, rows)
            level = 1
            while len(level_pages) > 1:
                level_pages = _build_nonleaf_level(
                    ctx, tree, txn, chunk, level_pages, level
                )
                level += 1
            top = level_pages[0][0]
        else:
            top = NO_PAGE
        if top == NO_PAGE:
            # Empty tree: a fresh empty leaf stands in as the side root.
            top = ctx.page_manager.allocate()
            page = ctx.buffer.new_page(top)
            from repro.storage.page import PageType

            page.page_type = PageType.LEAF
            page.index_id = tree.index_id
            ctx.txns.append(
                txn,
                LogRecord(
                    type=RecordType.ALLOC, page_id=top, page_type=1, level=0
                ),
            )
            page.page_lsn = txn.last_lsn
            ctx.buffer.unpin(top, dirty=True)
        ctx.txns.commit(txn)
    except BaseException:
        ctx.latches.release_all()
        ctx.txns.abort(txn)
        raise
    finally:
        chunk.close()
    side = BTree(ctx, tree.index_id, tree.key_len, root_page_id=top)
    side_pages = sorted(_all_pages(ctx, side))
    return side, side_pages


def _settle(txn: Transaction) -> None:
    """Wait for ``txn`` to commit or abort, up to ``SETTLE_TIMEOUT``."""
    deadline = time.monotonic() + SETTLE_TIMEOUT
    while txn.state is TxnState.ACTIVE:
        if time.monotonic() > deadline:
            raise RebuildError(
                f"transaction {txn.txn_id} still active after "
                f"{SETTLE_TIMEOUT:.0f}s — the §7 unbounded wait"
            )
        time.sleep(0.001)


def _drain(side: BTree, journal: deque, upto: int) -> int:
    """Settle up to ``upto`` sidefile entries in the side tree, in journal
    order (idempotent): the row ends up present after a committed insert
    or an aborted delete, absent otherwise."""
    applied = 0
    for _ in range(upto):
        if not journal:
            break
        txn, op, key, rowid, payload = journal.popleft()
        _settle(txn)
        try:
            side.delete(key, rowid)
        except KeyNotFoundError:
            pass
        if (op == "i") == (txn.state is TxnState.COMMITTED):
            try:
                side.insert(key, rowid, payload=payload)
            except DuplicateKeyError:  # pragma: no cover - defensive
                pass
        applied += 1
    return applied


def _switch(tree: BTree, side: BTree) -> None:
    """Install the side tree under the old (stable) root id and free the
    old tree's pages."""
    ctx = tree.ctx
    old_pages = _all_pages(ctx, tree)
    old_pages.discard(tree.root_page_id)
    txn = ctx.txns.begin()
    try:
        _install_root(ctx, tree, txn, side.root_page_id)
        for pid in sorted(old_pages):
            ctx.txns.append(
                txn, LogRecord(type=RecordType.DEALLOC, page_id=pid)
            )
            ctx.page_manager.deallocate(pid)
        ctx.buffer.flush_all()
        ctx.txns.commit(txn)
    except BaseException:
        ctx.latches.release_all()
        ctx.txns.abort(txn)
        raise
    for pid in sorted(old_pages):
        ctx.page_manager.free(pid)

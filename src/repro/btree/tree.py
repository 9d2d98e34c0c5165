"""The B+-tree index manager facade.

:class:`BTree` ties traversal, split, shrink, and scan together behind the
operations the paper's index manager exposes: insert, delete, lookup, and
range scan over a *secondary* index of fixed-length keys plus 6-byte ROWIDs.

Transactions: every mutating call may be given an explicit transaction; by
default it runs auto-commit (its own transaction, committed on success and
rolled back on error).  Splits and shrinks always run as nested top actions
inside whichever transaction performs them, so they persist even if that
transaction later aborts (§2).

Isolation: with ``lock_rows=True`` (engine-level option), inserts and
deletes take X logical locks on their (key, rowid) and scans take
instant-duration S logical locks — the paper's §2 row-level locking.  Only
logical locks can deadlock (§6.5); the lock manager then raises
:class:`~repro.errors.DeadlockError` at the victim.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.btree import keys as K
from repro.btree import node
from repro.btree.scan import range_scan
from repro.btree.shrink import shrink_leaf
from repro.btree.split import split_leaf
from repro.btree.traversal import AccessMode, Traversal
from repro.btree.verify import TreeStats, collect_contents, verify_tree
from repro.concurrency.latch import LatchMode
from repro.concurrency.locks import LockMode, LockSpace
from repro.concurrency.syncpoints import CrashPoint
from repro.concurrency.txn import Transaction, TxnState
from repro.context import EngineContext
from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.storage.page import PageType
from repro.wal.records import LEAF_ROW_FLAG, LogRecord, RecordType


class BTree:
    """One secondary index: fixed ``key_len``-byte keys + 6-byte ROWIDs."""

    def __init__(
        self,
        ctx: EngineContext,
        index_id: int,
        key_len: int,
        root_page_id: int,
        lock_rows: bool = False,
    ) -> None:
        self.ctx = ctx
        self.index_id = index_id
        self.key_len = key_len
        self.root_page_id = root_page_id
        self.lock_rows = lock_rows
        # Held by the one OnlineRebuild.run on this index: a second run
        # fails to take it and raises instead of rebuilding alongside.
        self.rebuild_claim = threading.Lock()

    # ----------------------------------------------------------------- create

    @classmethod
    def create(
        cls,
        ctx: EngineContext,
        index_id: int,
        key_len: int,
        lock_rows: bool = False,
    ) -> "BTree":
        """Allocate an empty index: a root that is an empty leaf."""
        txn = ctx.txns.begin()
        root_id = ctx.page_manager.allocate()
        ctx.latches.acquire(root_id, LatchMode.X)
        root = ctx.buffer.new_page(root_id)
        root.page_type = PageType.LEAF
        root.level = 0
        root.index_id = index_id
        rec = LogRecord(
            type=RecordType.ALLOC,
            page_type=int(PageType.LEAF),
            level=0,
        )
        ctx.log_page_change(txn, rec, root)
        ctx.release_page(root_id, dirty=True)
        ctx.txns.commit(txn)
        return cls(ctx, index_id, key_len, root_id, lock_rows)

    # ------------------------------------------------------------- mutations

    @property
    def unit_len(self) -> int:
        """Bytes of the comparable (key, rowid) prefix of every leaf row."""
        return self.key_len + K.ROWID_LEN

    def insert(
        self,
        key: bytes,
        rowid: int,
        txn: Transaction | None = None,
        payload: bytes = b"",
    ) -> None:
        """Insert (key, rowid); raises DuplicateKeyError if present.

        ``payload`` turns the row into a *primary-index* record (paper
        footnote 2): the data bytes ride in the leaf after the unit, and
        every structural operation — splits, shrinks, the online rebuild —
        moves them along opaquely.
        """
        unit = K.leaf_unit(key, rowid, self.key_len)
        row = unit + payload
        ctx = self.ctx
        if ctx.quarantine.active:
            ctx.quarantine.check_write(self.index_id, unit)
        with _OpScope(ctx, txn) as op:
            if self.lock_rows:
                ctx.locks.acquire(
                    op.txn_id, LockSpace.LOGICAL, unit, LockMode.X
                )
            traversal = Traversal(ctx, self)
            while True:
                leaf = traversal.traverse(unit, AccessMode.WRITER, 0, op)
                pos, found = node.leaf_search(leaf, unit, ctx.counters)
                if found:
                    ctx.release_page(leaf.page_id)
                    raise DuplicateKeyError(
                        f"(key={key!r}, rowid={rowid}) already present"
                    )
                if leaf.fits(row):
                    ctx.log_page_change(
                        op,
                        LogRecord.row_record(
                            RecordType.INSERT, pos, row, LEAF_ROW_FLAG
                        ),
                        leaf,
                    )
                    leaf.insert_row(pos, row)
                    ctx.release_page(leaf.page_id, dirty=True)
                    break
                # Full: run the split top action (which takes ownership of
                # the latched leaf), then retry the insert from the top.
                split_leaf(ctx, self, op, leaf, traversal)

    def delete(
        self, key: bytes, rowid: int, txn: Transaction | None = None
    ) -> None:
        """Delete (key, rowid); raises KeyNotFoundError if absent.

        Removing a leaf's last row triggers a shrink top action (§2.4)
        unless the leaf is the root.
        """
        unit = K.leaf_unit(key, rowid, self.key_len)
        ctx = self.ctx
        if ctx.quarantine.active:
            ctx.quarantine.check_write(self.index_id, unit)
        with _OpScope(ctx, txn) as op:
            if self.lock_rows:
                ctx.locks.acquire(
                    op.txn_id, LockSpace.LOGICAL, unit, LockMode.X
                )
            traversal = Traversal(ctx, self)
            leaf = traversal.traverse(unit, AccessMode.WRITER, 0, op)
            pos, found = node.leaf_search(leaf, unit, ctx.counters)
            if not found:
                ctx.release_page(leaf.page_id)
                raise KeyNotFoundError(
                    f"(key={key!r}, rowid={rowid}) not in index"
                )
            row = leaf.rows[pos]  # full row: the payload must undo too
            ctx.log_page_change(
                op,
                LogRecord.row_record(RecordType.DELETE, pos, row, LEAF_ROW_FLAG),
                leaf,
            )
            leaf.delete_row(pos)
            if leaf.is_empty and leaf.page_id != self.root_page_id:
                # shrink_leaf takes ownership of the latched leaf.
                shrink_leaf(self.ctx, self, op, leaf, unit, traversal)
            else:
                self.ctx.release_page(leaf.page_id, dirty=True)

    # ----------------------------------------------------------------- reads

    def contains(
        self, key: bytes, rowid: int, txn: Transaction | None = None
    ) -> bool:
        unit = K.leaf_unit(key, rowid, self.key_len)
        if self.ctx.quarantine.active:
            self.ctx.quarantine.check_read(self.index_id, unit)
        with _OpScope(self.ctx, txn) as op:
            traversal = Traversal(self.ctx, self)
            leaf = traversal.traverse(unit, AccessMode.READER, 0, op)
            _pos, found = node.leaf_search(leaf, unit, self.ctx.counters)
            self.ctx.release_page(leaf.page_id)
            return found

    def get(
        self, key: bytes, rowid: int, txn: Transaction | None = None
    ) -> bytes | None:
        """The row's payload (primary-index data record), or None if the
        (key, rowid) pair is absent.  Secondary rows return ``b""``."""
        unit = K.leaf_unit(key, rowid, self.key_len)
        if self.ctx.quarantine.active:
            self.ctx.quarantine.check_read(self.index_id, unit)
        with _OpScope(self.ctx, txn) as op:
            traversal = Traversal(self.ctx, self)
            leaf = traversal.traverse(unit, AccessMode.READER, 0, op)
            pos, found = node.leaf_search(leaf, unit, self.ctx.counters)
            payload = leaf.rows[pos][self.unit_len:] if found else None
            self.ctx.release_page(leaf.page_id)
            return payload

    def lookup(self, key: bytes, txn: Transaction | None = None) -> list[int]:
        """All ROWIDs indexed under ``key``."""
        return [rid for _k, rid in self.scan(lo=key, hi=key, txn=txn)]

    def scan(
        self,
        lo: bytes | None = None,
        hi: bytes | None = None,
        txn: Transaction | None = None,
        with_payload: bool = False,
    ) -> Iterator[tuple]:
        """Yield (key, rowid) — or (key, rowid, payload) — pairs with
        lo <= key <= hi (inclusive bounds).  A bound that is not
        ``key_len`` bytes raises :class:`BTreeError`."""
        if lo is None:
            lo = b"\x00" * self.key_len
        if hi is None:
            hi = b"\xff" * self.key_len
        K.check_key(lo, self.key_len)
        K.check_key(hi, self.key_len)
        lo_unit = K.search_floor(lo)
        hi_unit = K.search_ceiling(hi)
        if self.ctx.quarantine.active:
            self.ctx.quarantine.check_scan(self.index_id, lo_unit, hi_unit)
        own = txn is None
        if own:
            op = self.ctx.txns.begin()
        else:
            # Before the descent, as _OpScope does: nothing is latched yet.
            self.ctx.txns.check_active(txn)
            op = txn
        try:
            yield from range_scan(
                self.ctx, self, op, lo_unit, hi_unit,
                lock_rows=self.lock_rows, with_payload=with_payload,
            )
        finally:
            if own and op.state is TxnState.ACTIVE:
                self.ctx.txns.commit(op)

    # ------------------------------------------------------------ inspection

    def verify(self) -> TreeStats:
        """Check every structural invariant (quiesced tree only)."""
        return verify_tree(self.ctx, self)

    def contents(self) -> list[tuple[bytes, int]]:
        """All (key, rowid) pairs in order (quiesced tree only)."""
        return [
            (key, rowid)
            for key, rowid, _payload in self.contents_with_payloads()
        ]

    def contents_with_payloads(self) -> list[tuple[bytes, int, bytes]]:
        """All (key, rowid, payload) rows in order (quiesced tree only)."""
        return [
            K.decode_leaf_row(row, self.key_len)
            for row in collect_contents(self.ctx, self)
        ]

    def height(self) -> int:
        page = self.ctx.buffer.fetch(self.root_page_id)
        level = page.level
        self.ctx.buffer.unpin(self.root_page_id)
        return level + 1


class _OpScope:
    """Auto-commit scope: commit on success, roll back on error.

    When an explicit transaction is supplied it is passed through untouched
    (the caller owns commit/abort), once it is checked to be active: an
    operation that raised only after its descent would leave its page
    latched and pinned, as nothing here releases a caller's pages.
    """

    def __init__(self, ctx: EngineContext, txn: Transaction | None) -> None:
        self.ctx = ctx
        self.own = txn is None
        if txn is None:
            txn = ctx.txns.begin()
        else:
            ctx.txns.check_active(txn)
        self.txn = txn

    def __enter__(self) -> Transaction:
        return self.txn

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if not self.own:
            return
        if exc_type is None:
            self.ctx.txns.commit(self.txn)
        elif exc_type is CrashPoint:
            pass  # simulated power failure: no runtime rollback
        else:
            self.ctx.latches.release_all()
            self.ctx.txns.abort(self.txn)

"""Transactions and nested top actions (§2, §3).

Split, shrink, and each multipage rebuild step run as *nested top actions*
(NTAs): once complete they are never undone, even if the enclosing
transaction rolls back.  The classic ARIES dummy-CLR trick implements this —
``NTA_END``'s ``undo_next_lsn`` points at the record *before* ``NTA_BEGIN``,
so rollback and crash-undo hop over the completed action.

Rollback undoes each record through an injected *undo applier* (the shared
undo code in :mod:`repro.wal.apply`), which logs a compensation
(``CLR_FLAG``) into the transaction's chain per change it makes, so that
undo itself is idempotent across crashes.

Commit forces the log (WAL) and releases the transaction's logical locks.
Address locks are released by the operations themselves at top-action end.
"""

from __future__ import annotations

import enum
import functools
import itertools
import threading
from typing import Callable

from repro.errors import TransactionError
from repro.stats.counters import Counters
from repro.wal.log import LogManager
from repro.wal.records import CLR_FLAG, LogRecord, RecordType

UndoApplier = Callable[[LogRecord, Callable[[LogRecord], int]], None]
"""Undoes a record; receives (record, append), where ``append`` logs a
record in the rolling-back transaction's chain and returns its LSN — the
applier logs the compensation through it before changing the page."""


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


# What every request's begin / append / commit reads, bound once as
# latch.LATCH_X is.
_ACTIVE, _COMMITTED = TxnState.ACTIVE, TxnState.COMMITTED
_TXN_COMMIT = RecordType.TXN_COMMIT
_NO_UNDO = frozenset(
    {
        RecordType.TXN_BEGIN,
        RecordType.TXN_COMMIT,
        RecordType.TXN_ABORT,
        RecordType.NTA_BEGIN,
        RecordType.CHECKPOINT,
    }
)
"""Records of a chain that change nothing: a rollback steps past them."""


class Transaction:
    """One transaction's log chain and NTA stack."""

    __slots__ = (
        "txn_id",
        "state",
        "last_lsn",
        "begin_lsn",
        "_nta_stack",
    )

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.state = _ACTIVE
        self.last_lsn = 0
        self.begin_lsn = 0
        self._nta_stack: list[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Txn {self.txn_id} {self.state.value} last_lsn={self.last_lsn}>"


class TransactionManager:
    """Begins, logs for, commits, and rolls back transactions."""

    def __init__(
        self,
        log: LogManager,
        counters: Counters | None = None,
    ) -> None:
        self.log = log
        self.counters = counters if counters is not None else Counters()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.active: dict[int, Transaction] = {}
        self._undo_applier: UndoApplier | None = None
        self.lock_manager: object | None = None
        """When set (by the engine), commit/abort release every lock the
        transaction still holds — logical locks live to transaction end."""

    def set_undo_applier(self, applier: UndoApplier) -> None:
        """Install the undo function (from :mod:`repro.wal.apply`)."""
        self._undo_applier = applier

    # -------------------------------------------------------------- lifecycle

    def begin(self) -> Transaction:
        """Register a transaction; no record is logged (ARIES-style).

        The transaction's first logged record implies BEGIN: recovery
        treats any record with an unseen txn id as the start of that
        transaction, so ``begin``/``commit`` pairs that never log a change
        (read-only operations) leave no trace in the log at all.
        """
        with self._lock:
            txn = Transaction(next(self._ids))
            self.active[txn.txn_id] = txn
        return txn

    def resume(self, txn_id: int, last_lsn: int) -> Transaction:
        """Register a crash's loser, active again, for recovery to roll
        back: what it logs goes on the chain it left in the log."""
        txn = Transaction(txn_id)
        txn.last_lsn = last_lsn
        with self._lock:
            self.active[txn_id] = txn
        return txn

    def append(self, txn: Transaction, record: LogRecord) -> int:
        """Log a record on behalf of ``txn``, maintaining the prev chain."""
        if txn.state is not _ACTIVE:
            self.check_active(txn)
        record.txn_id = txn.txn_id
        record.prev_lsn = txn.last_lsn
        lsn = self.log.append(record)
        txn.last_lsn = lsn
        if txn.begin_lsn == 0:
            txn.begin_lsn = lsn  # first record: the implicit BEGIN
        return lsn

    def commit(self, txn: Transaction, gather: bool = True) -> None:
        """Log the commit record, force the log, release the locks.
        ``gather`` is :meth:`LogManager.flush_commit`'s: whether this
        commit, finding no group-commit round open, opens one."""
        if txn.last_lsn:
            lsn = self.append(txn, LogRecord.header_record(_TXN_COMMIT))
            self.log.flush_commit(lsn, gather)
        elif txn.state is not _ACTIVE:
            self.check_active(txn)
        txn.state = _COMMITTED
        with self._lock:
            self.active.pop(txn.txn_id, None)
        if self.lock_manager is not None:
            self.lock_manager.release_all(txn.txn_id)  # type: ignore[attr-defined]

    def abort(self, txn: Transaction) -> None:
        """Roll the transaction back completely and release it."""
        self.check_active(txn)
        self.rollback_to(txn, 0)
        self.end_rolled_back(txn)

    def end_rolled_back(self, txn: Transaction) -> None:
        """Log the abort of ``txn``, whose changes are all undone, force
        the log and release the transaction; crash recovery ends each
        loser here once it has undone it."""
        if txn.last_lsn:
            lsn = self.append(
                txn, LogRecord.header_record(RecordType.TXN_ABORT)
            )
            self.log.flush_commit(lsn)
        txn.state = TxnState.ABORTED
        with self._lock:
            self.active.pop(txn.txn_id, None)
        if self.lock_manager is not None:
            self.lock_manager.release_all(txn.txn_id)  # type: ignore[attr-defined]

    # --------------------------------------------------------------- top actions

    def begin_nta(self, txn: Transaction) -> None:
        """Open a nested top action; the undo point is the current last LSN."""
        self.check_active(txn)
        txn._nta_stack.append(txn.last_lsn)
        self.append(txn, LogRecord.header_record(RecordType.NTA_BEGIN))

    def end_nta(self, txn: Transaction) -> int:
        """Close the innermost NTA with a dummy CLR over its records."""
        self.check_active(txn)
        if not txn._nta_stack:
            raise TransactionError(
                f"txn {txn.txn_id} has no open nested top action"
            )
        undo_point = txn._nta_stack.pop()
        rec = LogRecord.header_record(
            RecordType.NTA_END, undo_next_lsn=undo_point
        )
        return self.append(txn, rec)

    def abort_nta(self, txn: Transaction) -> None:
        """Undo the innermost (incomplete) NTA's records."""
        self.check_active(txn)
        if not txn._nta_stack:
            raise TransactionError(
                f"txn {txn.txn_id} has no open nested top action"
            )
        undo_point = txn._nta_stack.pop()
        self.rollback_to(txn, undo_point)

    # ---------------------------------------------------------------- rollback

    def rollback_to(self, txn: Transaction, target_lsn: int) -> None:
        """Undo the transaction's records back to (excluding) ``target_lsn``,
        one :meth:`undo_step` at a time."""
        lsn = txn.last_lsn
        while lsn > target_lsn:
            lsn, _undone = self.undo_step(txn, self.log.record_at(lsn))

    def undo_step(self, txn: Transaction, rec: LogRecord) -> tuple[int, bool]:
        """Take one step of ``txn``'s rollback at ``rec``, a record of its
        chain: ``(LSN of the next record to look at, whether rec was
        undone)``.

        Completed NTAs are hopped over via their dummy CLR; compensations
        themselves are never undone (their ``undo_next_lsn`` continues the
        walk); a change is undone by the applier, which logs a
        compensation for it so a crash mid-rollback resumes instead of
        double-undoing.  Runtime rollback and crash recovery's undo both
        walk a chain by this step.
        """
        if rec.flags & CLR_FLAG or rec.type is RecordType.NTA_END:
            return rec.undo_next_lsn, False
        if rec.type in _NO_UNDO:
            return rec.prev_lsn, False
        if self._undo_applier is None:
            raise TransactionError("no undo applier installed")
        self._undo_applier(rec, functools.partial(self.append, txn))
        return rec.prev_lsn, True

    # ------------------------------------------------------------------ checks

    def check_active(self, txn: Transaction) -> None:
        """Raise :class:`TransactionError` unless ``txn`` is active."""
        if txn.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"txn {txn.txn_id} is {txn.state.value}, not active"
            )

"""Unit tests for transactions and nested top actions."""

import pytest

from repro.concurrency.txn import TransactionManager, TxnState
from repro.errors import TransactionError
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page
from repro.storage.page_manager import PageManager, PageState
from repro.wal.apply import ApplyContext, undo_record
from repro.wal.log import LogManager
from repro.wal.records import CLR_FLAG, LogRecord, RecordType


@pytest.fixture
def log() -> LogManager:
    return LogManager(counters=Counters())


@pytest.fixture
def txns(log) -> TransactionManager:
    mgr = TransactionManager(log, counters=Counters())
    mgr.set_undo_applier(lambda rec, append: None)
    return mgr


@pytest.fixture
def apply_ctx() -> ApplyContext:
    counters = Counters()
    disk = Disk(counters=counters)
    return ApplyContext(
        BufferPool(disk, capacity=8, counters=counters),
        PageManager(disk, counters=counters),
    )


@pytest.fixture
def undone(txns, apply_ctx) -> list[int]:
    """The page id of each record ``txns`` undoes, in undo order.  The
    undo is the engine's, so each logs its compensation."""
    pages: list[int] = []

    def applier(rec, append):
        pages.append(rec.page_id)
        undo_record(rec, apply_ctx, append)

    txns.set_undo_applier(applier)
    return pages


def test_begin_registers_without_logging(txns, log):
    """BEGIN is implicit (ARIES): the first logged record starts the txn."""
    txn = txns.begin()
    assert txn.state is TxnState.ACTIVE
    assert txn.txn_id in txns.active
    assert list(log.scan()) == []  # nothing logged until the first change
    lsn = txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=1))
    assert txn.begin_lsn == lsn
    records = list(log.scan())
    assert records[0].txn_id == txn.txn_id
    assert records[0].prev_lsn == 0  # chain ends at the implicit begin


def test_records_chain_backwards(txns, log):
    txn = txns.begin()
    a = txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=1))
    b = txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=2))
    rec_b = log.record_at(b)
    assert rec_b.prev_lsn == a
    assert txn.last_lsn == b


def test_commit_flushes_and_finalizes(txns, log):
    txn = txns.begin()
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=1))
    txns.commit(txn)
    assert txn.state is TxnState.COMMITTED
    assert txn.txn_id not in txns.active
    durable = [r.type for r in log.scan(durable_only=True)]
    assert RecordType.TXN_COMMIT in durable


def test_readonly_commit_logs_nothing(txns, log):
    """A txn that logged no change leaves no trace in the log at all."""
    txn = txns.begin()
    txns.commit(txn)
    assert txn.state is TxnState.COMMITTED
    assert list(log.scan()) == []


def test_commit_twice_raises(txns):
    txn = txns.begin()
    txns.commit(txn)
    with pytest.raises(TransactionError):
        txns.commit(txn)


def test_abort_writes_clrs_and_abort_record(txns, undone, log):
    txn = txns.begin()
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=1))
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=2))
    txns.abort(txn)
    assert undone == [2, 1]  # reverse order
    clrs = [r for r in log.scan() if r.type is RecordType.CLR]
    assert [r.page_id for r in clrs] == [2, 1]
    assert all(r.flags & CLR_FLAG for r in clrs)
    assert clrs[-1].undo_next_lsn == 0  # the walk ends at the first record
    assert list(log.scan())[-1].type is RecordType.TXN_ABORT
    assert txn.state is TxnState.ABORTED


def test_completed_nta_skipped_by_rollback(txns, undone, log):
    txn = txns.begin()
    txns.begin_nta(txn)
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=10))
    txns.end_nta(txn)
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=20))
    txns.abort(txn)
    assert undone == [20]  # the NTA's record was hopped over


def test_abort_nta_undoes_only_the_nta(txns, undone):
    txn = txns.begin()
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=1))
    txns.begin_nta(txn)
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=2))
    txns.abort_nta(txn)
    assert undone == [2]
    assert txn.state is TxnState.ACTIVE


def test_nested_ntas(txns, undone):
    txn = txns.begin()
    txns.begin_nta(txn)
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=1))
    txns.begin_nta(txn)
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=2))
    txns.end_nta(txn)  # inner completes
    txns.abort_nta(txn)  # outer aborts: undoes 1 but not 2
    assert undone == [1]
    txns.commit(txn)


def test_end_nta_without_begin_raises(txns):
    txn = txns.begin()
    with pytest.raises(TransactionError):
        txns.end_nta(txn)


def test_clr_not_reundone_on_crash_resume(txns, undone, log):
    """Rolling back twice (as after a crash mid-rollback) must not
    double-apply: the CLR chain skips already-undone records."""
    txn = txns.begin()
    txns.append(txn, LogRecord(type=RecordType.DEALLOC, page_id=1))
    txns.rollback_to(txn, 0)
    txns.rollback_to(txn, 0)
    assert undone == [1]  # second rollback found only the CLR and skipped it


def test_row_compensation_is_hopped_like_a_clr(txns, undone, apply_ctx, log):
    """A row change is compensated by a record of its own type, flagged:
    a second rollback hops it and undoes nothing twice."""
    page = Page(1)
    page.append_row(b"a")
    apply_ctx.page_manager.force_state(1, PageState.ALLOCATED)
    apply_ctx.buffer.disk.write(1, page.to_bytes())
    txn = txns.begin()
    insert = txns.append(
        txn, LogRecord(type=RecordType.INSERT, page_id=1, pos=0, rows=[b"a"])
    )
    txns.rollback_to(txn, 0)
    txns.rollback_to(txn, 0)
    assert undone == [1]
    comp = log.record_at(txn.last_lsn)
    assert (comp.type, comp.flags, comp.prev_lsn) == (
        RecordType.DELETE, CLR_FLAG, insert
    )
    assert apply_ctx.buffer.fetch(1).rows == []
    apply_ctx.buffer.unpin(1)


def test_lock_manager_release_on_commit(log):
    from repro.concurrency.locks import LockManager, LockMode, LockSpace

    locks = LockManager(counters=Counters())
    txns = TransactionManager(log, counters=Counters())
    txns.set_undo_applier(lambda rec, append: None)
    txns.lock_manager = locks
    txn = txns.begin()
    locks.acquire(txn.txn_id, LockSpace.LOGICAL, "row", LockMode.X)
    txns.commit(txn)
    assert not locks.holds(txn.txn_id, LockSpace.LOGICAL, "row")

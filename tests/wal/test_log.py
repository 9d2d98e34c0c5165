"""Unit tests for the log manager: LSNs, flushing, crash truncation."""

import pytest

from repro.errors import WALError
from repro.stats.counters import Counters
from repro.wal.log import LogManager
from repro.wal.records import RECORD_OVERHEAD, LogRecord, RecordType


@pytest.fixture
def log() -> LogManager:
    return LogManager(counters=Counters())


def append(log: LogManager, t: RecordType = RecordType.TXN_BEGIN, **kw) -> int:
    return log.append(LogRecord(type=t, **kw))


def test_lsns_are_byte_offsets(log):
    first = append(log)
    second = append(log)
    assert first == 1
    assert second == 1 + RECORD_OVERHEAD
    assert log.next_lsn == second + RECORD_OVERHEAD


def test_log_space_is_lsn_delta(log):
    start = log.next_lsn
    append(log, RecordType.INSERT, pos=0, rows=[b"0123456789"])
    used = log.next_lsn - start
    assert used == RECORD_OVERHEAD + 4 + 10


def test_nothing_durable_before_flush(log):
    append(log)
    assert log.flushed_lsn == 0
    assert list(log.scan(durable_only=True)) == []


def test_flush_to_makes_prefix_durable(log):
    a = append(log)
    b = append(log)
    c = append(log)
    log.flush_to(b)
    durable = [r.lsn for r in log.scan(durable_only=True)]
    assert durable == [a, b]
    assert log.flushed_lsn == c  # end offset of record b


def test_flush_all(log):
    for _ in range(3):
        append(log)
    log.flush_all()
    assert len(list(log.scan(durable_only=True))) == 3


def test_crash_discards_unflushed_tail(log):
    a = append(log)
    log.flush_to(a)
    append(log)
    append(log)
    log.crash()
    assert [r.lsn for r in log.scan()] == [a]
    # New appends continue from the truncated position.
    b = append(log)
    assert b == a + RECORD_OVERHEAD


def test_crash_empty_log(log):
    log.crash()
    assert append(log) == 1


def test_scan_from_lsn(log):
    append(log)
    b = append(log)
    c = append(log)
    assert [r.lsn for r in log.scan(from_lsn=b)] == [b, c]


def test_record_at_random_access(log):
    append(log)
    b = append(log, RecordType.DEALLOC, page_id=9)
    rec = log.record_at(b)
    assert rec.type is RecordType.DEALLOC
    assert rec.page_id == 9


def test_record_at_bad_lsn_raises(log):
    append(log)
    with pytest.raises(WALError):
        log.record_at(5)


def test_accounting_by_type(log):
    append(log, RecordType.INSERT, pos=0, rows=[b"abc"])
    append(log, RecordType.INSERT, pos=0, rows=[b"de"])
    append(log, RecordType.DEALLOC, page_id=1)
    assert log.count_by_type[RecordType.INSERT] == 2
    assert log.count_by_type[RecordType.DEALLOC] == 1
    assert log.bytes_by_type[RecordType.INSERT] == 2 * (RECORD_OVERHEAD + 4) + 5


def test_usage_snapshot_diff(log):
    before = log.usage_snapshot()
    append(log, RecordType.INSERT, pos=0, rows=[b"abc"])
    diff = LogManager.usage_diff(before, log.usage_snapshot())
    assert diff["counts"] == {"INSERT": 1}
    assert diff["bytes"]["INSERT"] == RECORD_OVERHEAD + 7

"""WAL torn-tail truncation: every possible tear inside the last record.

A crash mid-append can leave any prefix of the final framed record on
disk.  Reopening must (a) replay exactly the records before it, (b)
truncate the torn bytes, and (c) leave the log appendable — the next
record round-trips through another reopen.
"""

import os
import zlib

import pytest

from repro.errors import LogFormatError
from repro.stats.counters import Counters
from repro.wal.file_log import FRAME_OVERHEAD, FileLogManager
from repro.wal.records import LogRecord, RecordType


def build_log(path: str, n: int) -> list[int]:
    """Write ``n`` flushed records; returns their LSNs."""
    log = FileLogManager(path, counters=Counters())
    lsns = []
    for i in range(n):
        lsn = log.append(
            LogRecord(type=RecordType.INSERT, txn_id=1, pos=i, rows=[b"row"])
        )
        lsns.append(lsn)
    log.flush_to(lsns[-1])
    log.close()
    return lsns


def test_truncation_at_every_byte_of_last_record(tmp_path):
    path = str(tmp_path / "wal.log")
    n = 4
    build_log(path, n)
    full = os.path.getsize(path)
    frame_size = full // n  # identical records -> identical frames
    assert frame_size > FRAME_OVERHEAD
    last_start = full - frame_size

    for cut in range(last_start, full):
        torn = str(tmp_path / f"torn_{cut}.log")
        with open(path, "rb") as f:
            blob = f.read()[:cut]
        with open(torn, "wb") as f:
            f.write(blob)

        counters = Counters()
        log = FileLogManager(torn, counters=counters)
        replayed = list(log.scan())
        assert len(replayed) == n - 1, f"cut at byte {cut}"
        # cut == last_start is a clean boundary (nothing torn to drop).
        assert counters.log_torn_tail == (1 if cut > last_start else 0)
        assert os.path.getsize(torn) == last_start  # tail dropped

        # The log stays appendable: the next record round-trips.
        lsn = log.append(
            LogRecord(type=RecordType.INSERT, txn_id=2, pos=99, rows=[b"zz"])
        )
        log.flush_to(lsn)
        log.close()

        reopened = FileLogManager(torn, counters=Counters())
        records = list(reopened.scan())
        assert len(records) == n
        assert records[-1].txn_id == 2
        assert records[-1].rows == [b"zz"]
        reopened.close()


def test_corrupt_byte_inside_last_record_truncates(tmp_path):
    """Not just short tails: a full-length record whose bytes rotted must
    also be dropped (the frame CRC catches it before decode)."""
    path = str(tmp_path / "wal.log")
    build_log(path, 3)
    full = os.path.getsize(path)
    frame_size = full // 3
    with open(path, "r+b") as f:
        # Flip a byte in the last record's payload region.
        f.seek(full - frame_size + FRAME_OVERHEAD + 10)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0xFF]))

    counters = Counters()
    log = FileLogManager(path, counters=counters)
    assert len(list(log.scan())) == 2
    assert counters.log_torn_tail == 1
    log.close()


def _rewrite_last_record(path: str, n: int, edit) -> None:
    """Replace the last of ``n`` identical frames by ``edit(record bytes)``
    under a *valid* frame (length and CRC recomputed): the frame check
    passes, so what reopen makes of the record is up to the record."""
    full = os.path.getsize(path)
    last_start = full - full // n
    with open(path, "r+b") as f:
        f.seek(last_start + FRAME_OVERHEAD)
        data = edit(f.read())
        f.seek(last_start)
        f.truncate()
        f.write(len(data).to_bytes(4, "little"))
        f.write(zlib.crc32(data).to_bytes(4, "little"))
        f.write(data)


def test_unknown_record_type_under_a_valid_frame_truncates(tmp_path):
    """A type byte no release ever wrote is a malformed record, not a
    crash of the reopen: the log ends before it."""
    path = str(tmp_path / "wal.log")
    build_log(path, 3)
    _rewrite_last_record(path, 3, lambda d: d[:2] + b"\xee" + d[3:])
    counters = Counters()
    log = FileLogManager(path, counters=counters)
    assert len(list(log.scan())) == 2
    assert counters.log_torn_tail == 1
    log.close()


def test_short_payload_under_a_valid_frame_is_a_format_error(tmp_path):
    """Reopen reads headers only, so a record whose header is sound is
    kept; whoever decodes its short payload gets ``LogFormatError``."""
    path = str(tmp_path / "wal.log")
    lsns = build_log(path, 3)

    def shorten(data: bytes) -> bytes:
        size = len(data) - 2
        return data[:4] + size.to_bytes(4, "little") + data[8:size]

    _rewrite_last_record(path, 3, shorten)
    log = FileLogManager(path, counters=Counters())
    assert [LogRecord.peek(d)[3] for d in log.raw_records()] == lsns
    assert len(list(log.scan(types=(RecordType.TXN_COMMIT,)))) == 0
    with pytest.raises(LogFormatError):
        list(log.scan())
    log.close()


def test_clean_log_reopens_without_truncation(tmp_path):
    path = str(tmp_path / "wal.log")
    build_log(path, 5)
    counters = Counters()
    log = FileLogManager(path, counters=counters)
    assert len(list(log.scan())) == 5
    assert counters.log_torn_tail == 0
    log.close()


@pytest.mark.parametrize("keep", [0, 1, 2])
def test_tear_spanning_multiple_records(tmp_path, keep):
    """A tear landing before the last record drops everything after it."""
    path = str(tmp_path / "wal.log")
    build_log(path, 3)
    full = os.path.getsize(path)
    frame_size = full // 3
    cut = keep * frame_size + frame_size // 2  # mid-record ``keep``
    with open(path, "r+b") as f:
        f.truncate(cut)
    log = FileLogManager(path, counters=Counters())
    assert len(list(log.scan())) == keep
    log.close()

"""A file-backed log manager: flushed records persist across restarts.

The in-memory :class:`~repro.wal.log.LogManager` keeps the whole record
stream in RAM; this subclass additionally appends every *flushed* record to
a log file and fsyncs at each flush point, so ``flush_to`` really is the
durability barrier.

**Framing.**  Each record goes to the file as ``[u32 length][u32 crc32]``
followed by the record bytes.  The frame exists only in the file — the
in-memory record stream and LSN arithmetic are byte-identical to the
in-memory log, so the paper's Table 1 log-space accounting is unchanged.
A crash mid-append leaves a torn tail: a short frame, a short record, or
record bytes whose CRC no longer matches their header.  ``_replay_existing``
stops at the first such frame and truncates the file there — replay never
parses garbage, and the next append continues from the last *valid*
record (ARIES's "end of log" determination, done with checksums instead
of trust).

Truncation rewrites the file (the retained suffix is small by
construction — it is what a checkpoint just bounded).
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.errors import LogFormatError
from repro.stats.counters import Counters
from repro.wal.log import LogManager
from repro.wal.records import RECORD_OVERHEAD, RECORD_TYPES, LogRecord

_FRAME = struct.Struct("<II")  # (record length, crc32 of record bytes)
FRAME_OVERHEAD = _FRAME.size


def _frame(data: bytes) -> bytes:
    return _FRAME.pack(len(data), zlib.crc32(data)) + data


class FileLogManager(LogManager):
    """LogManager whose durable prefix lives in a file."""

    def __init__(self, path: str, counters: Counters | None = None) -> None:
        super().__init__(counters=counters)
        self.path = path
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        self._replay_existing()

    # ----------------------------------------------------------------- replay

    def _replay_existing(self) -> None:
        """Load the file's records as the durable in-memory prefix,
        truncating at the first torn or corrupt frame."""
        size = os.fstat(self._fd).st_size
        blob = os.pread(self._fd, size, 0)
        offset = 0
        while offset + FRAME_OVERHEAD <= len(blob):
            length, crc = _FRAME.unpack_from(blob, offset)
            end = offset + FRAME_OVERHEAD + length
            if length < RECORD_OVERHEAD or end > len(blob):
                break  # torn tail: frame promises more bytes than exist
            data = blob[offset + FRAME_OVERHEAD : end]
            if zlib.crc32(data) != crc:
                break  # torn/corrupt record bytes: stop before parsing them
            try:
                raw_type, _flags, _length, lsn, *_ = LogRecord.peek(data)
            except LogFormatError:
                break
            rtype = RECORD_TYPES[raw_type]
            self._records.append(data)
            self._offsets.append(lsn)
            self.bytes_by_type[rtype] += len(data)
            self.count_by_type[rtype] += 1
            offset = end
        if self._records:
            self._next_lsn = self._offsets[-1] + len(self._records[-1])
        self._flushed_upto = len(self._records)
        self._file_size = offset
        if offset != size:
            os.ftruncate(self._fd, offset)  # drop the torn tail
            self.counters.add("log_torn_tail")

    # ------------------------------------------------------------------ flush

    def _write_flushed(self, start: int, upto: int) -> None:
        """Append newly durable records to the file and fsync (base-class
        flush paths — immediate and group commit — both land here)."""
        blob = b"".join(_frame(d) for d in self._records[start:upto])
        os.pwrite(self._fd, blob, self._file_size)
        self._file_size += len(blob)
        os.fsync(self._fd)

    # --------------------------------------------------------------- truncate

    def truncate_before(self, lsn: int) -> int:
        with self._lock:
            dropped = super().truncate_before(lsn)
            if dropped:
                blob = b"".join(
                    _frame(d) for d in self._records[: self._flushed_upto]
                )
                os.pwrite(self._fd, blob, 0)
                os.ftruncate(self._fd, len(blob))
                os.fsync(self._fd)
                self._file_size = len(blob)
            return dropped

    # ------------------------------------------------------------------ close

    def close(self) -> None:
        with self._lock:
            if self._fd >= 0:
                os.fsync(self._fd)
                os.close(self._fd)
                self._fd = -1

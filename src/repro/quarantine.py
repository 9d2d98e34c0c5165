"""Engine-level quarantine map for damaged key ranges.

When the integrity scrubber (:mod:`repro.core.scrubber`) finds a page
whose stored image is rotted beyond what retry or WAL replay can heal, it
fences off the *key range* the page covers rather than failing the whole
index: operations inside the range fail fast with
:class:`~repro.errors.QuarantinedRangeError` (loud, bounded) while the
rest of the index serves traffic normally.  The scrubber then writes the
page's resident frame back over the rotted slot, and the quarantine lifts
once the stored image verifies clean; with no resident frame the fence
stands.

Ranges are expressed in *unit* space (key ++ rowid, the tree's total
order), half-open ``[start_unit, end_unit)`` with ``end_unit = b""``
meaning "to the end of the index".

**Durability.**  Every set and lift appends a standalone ``QUARANTINE``
log record (txn id 0, like ``REBUILD_PROGRESS``); sets are flushed
immediately, so a crash can forget a *lift* (the range is re-fenced until
re-scrubbed — safe) but never a known-damaged range.  Recovery replays
the records in LSN order and hands the surviving ranges back to
:meth:`restore`.

**Hot-path cost.**  The ``active`` flag is a plain attribute read — one
``if`` per operation while no quarantine exists (the overwhelmingly
common case).  Range checks under the lock happen only while at least
one range is fenced.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import QuarantinedRangeError
from repro.stats.counters import Counters
from repro.wal.records import (
    QUARANTINE_LIFT,
    QUARANTINE_SET,
    LogRecord,
    RecordType,
)


@dataclass(frozen=True)
class QuarantineRange:
    """One fenced unit range ``[start_unit, end_unit)`` of one index."""

    index_id: int
    start_unit: bytes
    end_unit: bytes
    """Exclusive upper bound; ``b""`` means unbounded above."""
    epoch: int
    """The log's next LSN when the range was fenced — unique and monotone,
    pairing each lift with its set across crashes."""

    def covers(self, unit: bytes) -> bool:
        if unit < self.start_unit:
            return False
        return not self.end_unit or unit < self.end_unit

    def overlaps(self, lo_unit: bytes, hi_unit: bytes) -> bool:
        """Overlap with ``[lo_unit, hi_unit]`` (inclusive scan bounds)."""
        if self.end_unit and lo_unit >= self.end_unit:
            return False
        return hi_unit >= self.start_unit


class QuarantineMap:
    """Thread-safe registry of quarantined unit ranges, WAL-durable."""

    def __init__(
        self,
        counters: Counters | None = None,
        log=None,
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self.log = log
        self.active = False
        self._lock = threading.Lock()
        self._ranges: list[QuarantineRange] = []

    # ------------------------------------------------------------- mutation

    def set_range(
        self,
        index_id: int,
        start_unit: bytes,
        end_unit: bytes,
        durable: bool = True,
    ) -> QuarantineRange:
        """Fence ``[start_unit, end_unit)``; returns the installed range.

        The durable record is appended *and flushed* before the in-memory
        map flips ``active`` — an operation rejected by this quarantine is
        rejected by every future incarnation of the engine too.
        """
        epoch = 0
        if durable and self.log is not None:
            epoch = self.log.next_lsn
            lsn = self.log.append(
                _record(QUARANTINE_SET, index_id, epoch, start_unit, end_unit)
            )
            self.log.flush_to(lsn)
            self.counters.add("quarantine_records")
        qrange = QuarantineRange(index_id, start_unit, end_unit, epoch)
        with self._lock:
            self._ranges.append(qrange)
            self.active = True
        return qrange

    def lift(self, qrange: QuarantineRange, durable: bool = True) -> None:
        """Remove a fenced range after its repair committed.

        The lift record rides the next flush (a forgotten lift merely
        re-fences a now-clean range until the next scrub pass confirms it).
        """
        with self._lock:
            try:
                self._ranges.remove(qrange)
            except ValueError:
                return  # already lifted (idempotent across retries)
            self.active = bool(self._ranges)
        if durable and self.log is not None:
            self.log.append(
                _record(
                    QUARANTINE_LIFT,
                    qrange.index_id,
                    qrange.epoch,
                    qrange.start_unit,
                    qrange.end_unit,
                )
            )
            self.counters.add("quarantine_records")

    def restore(self, ranges: list[QuarantineRange]) -> None:
        """Install recovery's surviving ranges (no new records written)."""
        with self._lock:
            self._ranges = list(ranges)
            self.active = bool(self._ranges)

    def clear(self) -> None:
        """Drop every range without logging (crash simulation teardown)."""
        with self._lock:
            self._ranges = []
            self.active = False

    # ---------------------------------------------------------------- reads

    def ranges(self, index_id: int | None = None) -> list[QuarantineRange]:
        with self._lock:
            if index_id is None:
                return list(self._ranges)
            return [r for r in self._ranges if r.index_id == index_id]

    def covering(self, index_id: int, unit: bytes) -> QuarantineRange | None:
        with self._lock:
            for r in self._ranges:
                if r.index_id == index_id and r.covers(unit):
                    return r
        return None

    def overlapping(
        self, index_id: int, lo_unit: bytes, hi_unit: bytes
    ) -> QuarantineRange | None:
        with self._lock:
            for r in self._ranges:
                if r.index_id == index_id and r.overlaps(lo_unit, hi_unit):
                    return r
        return None

    # --------------------------------------------------------------- checks

    def check_write(self, index_id: int, unit: bytes) -> None:
        """Raise if a write targets a fenced unit (a write into a range
        being copied by the repair would be lost)."""
        r = self.covering(index_id, unit)
        if r is not None:
            self._reject(r, "write")

    def check_read(self, index_id: int, unit: bytes) -> None:
        """Raise if a point read targets a fenced unit."""
        r = self.covering(index_id, unit)
        if r is not None:
            self._reject(r, "read")

    def check_scan(
        self, index_id: int, lo_unit: bytes, hi_unit: bytes
    ) -> None:
        """Raise if the inclusive scan window touches a fenced range."""
        r = self.overlapping(index_id, lo_unit, hi_unit)
        if r is not None:
            self._reject(r, "scan")

    def _reject(self, r: QuarantineRange, op: str) -> None:
        self.counters.add("quarantine_blocked_ops")
        end = r.end_unit.hex() if r.end_unit else "<end>"
        raise QuarantinedRangeError(
            f"{op} inside quarantined range [{r.start_unit.hex()}, {end}) "
            f"of index {r.index_id} (epoch {r.epoch}): damaged range is "
            "being repaired",
            index_id=r.index_id,
            start_unit=r.start_unit,
            end_unit=r.end_unit,
        )


def _record(
    state: int, index_id: int, epoch: int, start_unit: bytes, end_unit: bytes
) -> LogRecord:
    return LogRecord(
        type=RecordType.QUARANTINE,
        index_id=index_id,
        epoch=epoch,
        progress_state=state,
        start_unit=start_unit,
        last_unit=end_unit,
    )


def quarantine_payload(ranges: list[QuarantineRange]) -> list[dict]:
    """JSON-encodable form of standing ranges for checkpoint embedding, so
    log truncation cannot drop a quarantine (recovery folds this snapshot
    with the post-checkpoint ``QUARANTINE`` records)."""
    return [
        {
            "index_id": r.index_id,
            "start_unit": r.start_unit.hex(),
            "end_unit": r.end_unit.hex(),
            "epoch": r.epoch,
        }
        for r in sorted(ranges, key=lambda r: (r.index_id, r.start_unit))
    ]

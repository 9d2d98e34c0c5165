"""The log manager: append, flush, scan, and per-type accounting.

LSNs are byte offsets into the log stream, so ``lsn2 - lsn1`` is log space —
the quantity Table 1 reports.  The tail of the log past ``flushed_lsn`` is
volatile: a simulated crash discards it, exactly like losing the log buffer.

Accounting is kept per record type (bytes and counts) so the Table 1 bench
can print the breakdown the paper discusses in §4.3 (how batching amortizes
the 60-byte record overhead).

**Group commit.**  Every committing transaction ends with a ``flush_to`` of
its commit record.  Serially that is one physical flush per commit; while
somebody holds the window (:meth:`LogManager.hold_window` — a rebuild that
has started its I/O threads, i.e. one on a device slow enough for a
``GROUP_COMMIT_WINDOW`` wait to pay) the commit path (``flush_commit``)
runs a leader/follower protocol instead: the first committer becomes the
*leader*, waits out the window while other committers register their target
LSNs as *followers*, then performs one physical flush to the highest
requested LSN — satisfying every waiter with a single flush.  This is the
paper's batching idea applied along the time axis: the per-commit log force
is amortized over however many transactions commit within the window.
Non-commit flushes (the buffer pool's WAL hook, checkpoints) always flush
immediately — they may run under the pool lock and must never sleep.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Callable, Collection, Iterator

from repro.errors import WALError
from repro.stats.counters import Counters
from repro.testing import invariants
from repro.wal.records import LogRecord, RecordType

GROUP_COMMIT_WINDOW = 0.002
"""Seconds a group-commit leader gathers followers before it flushes."""


class LogManager:
    """An append-only, crash-truncatable record log."""

    # Optional observability hooks (set by EngineContext when tracing is
    # on): physical flushes emit wal.flush spans and record into the
    # wal_flush_seconds histogram; group-commit rounds emit
    # wal.group_commit spans with follower counts.  ``latches`` (set by
    # EngineContext) is what the leader's window checks it holds none of.
    tracer = None
    metrics = None
    latches = None

    def __init__(self, counters: Counters | None = None) -> None:
        self.counters = counters if counters is not None else Counters()
        self._records: list[bytes] = []
        self._offsets: list[int] = []     # lsn of each record
        self._next_lsn = 1                # byte offset; 0 means "no record"
        self._flushed_upto = 0            # index into _records: all < are durable
        self._lock = threading.RLock()
        self.bytes_by_type: dict[RecordType, int] = defaultdict(int)
        self.count_by_type: dict[RecordType, int] = defaultdict(int)
        self._flush_listener: Callable[[int], None] | None = None
        # Group commit: commit-path flushes coalesce while anyone holds
        # the window; with no holder, one flush per commit.
        self._window_holders = 0
        self._flush_cv = threading.Condition(self._lock)
        self._gc_leader = False           # a leader is gathering followers
        self._gc_target = 0               # highest LSN registered this round
        self._gc_waiting = 0              # followers parked on _flush_cv

    # ----------------------------------------------------------------- append

    def append(self, record: LogRecord) -> int:
        """Assign an LSN, encode, and buffer the record; returns the LSN."""
        payload = record._encode_payload()  # LSN-independent: keep off the lock
        rtype = record.type
        with self._lock:
            lsn = record.lsn = self._next_lsn
            data = record.encode_given_payload(payload)
            size = len(data)
            self._records.append(data)
            self._offsets.append(lsn)
            self._next_lsn = lsn + size
            self.bytes_by_type[rtype] += size
            self.count_by_type[rtype] += 1
        shard = self.counters.local_shard()  # shards are lock-free
        shard["log_records"] += 1
        shard["log_bytes"] += size
        return lsn

    @property
    def next_lsn(self) -> int:
        with self._lock:
            return self._next_lsn

    @property
    def flushed_lsn(self) -> int:
        """LSN up to which (exclusive of later records) the log is durable."""
        with self._lock:
            if self._flushed_upto == 0:
                return 0
            return (
                self._offsets[self._flushed_upto - 1]
                + len(self._records[self._flushed_upto - 1])
            )

    # ------------------------------------------------------------------ flush

    def flush_to(self, lsn: int) -> None:
        """Make every record with ``record.lsn <= lsn`` durable, now: the
        buffer pool's WAL hook and the checkpoint come through here and
        must never sleep.  Commits use :meth:`flush_commit`."""
        with self._lock:
            self._advance_locked(lsn)

    def hold_window(self) -> None:
        """Turn group commit on until the matching :meth:`release_window`.
        Holders count: overlapping rebuilds on different indexes share the
        window, and it closes when the last one lets go."""
        with self._lock:
            self._window_holders += 1

    def release_window(self) -> None:
        with self._lock:
            self._window_holders -= 1

    def flush_commit(self, lsn: int, gather: bool = True) -> None:
        """Commit-path flush: while the window is held the call may wait
        up to ``GROUP_COMMIT_WINDOW`` so concurrent committers share one
        physical flush.

        ``gather=False`` is for a committer with nobody to wait for — the
        rebuild's own transaction, which commits once per ``xactsize``
        pages on the pass's critical path: it still rides along as a
        follower when a leader is gathering, but with none it flushes at
        once instead of sleeping out a window as the leader."""
        if self._window_holders:
            self._group_flush(lsn, gather)
        else:
            self.flush_to(lsn)

    def flush_all(self) -> None:
        with self._lock:
            if self._offsets:
                self._advance_locked(self._offsets[-1])

    def _advance_locked(self, lsn: int) -> None:
        """Advance durability to cover ``lsn``; caller holds ``_lock``.

        Counts a physical flush only when records actually become durable,
        so ``log_flushes`` measures I/O, not flush *requests*.
        """
        upto = bisect_right(self._offsets, lsn)
        if upto <= self._flushed_upto:
            return
        tracer = self.tracer
        if tracer is not None:
            flush_span = tracer.begin(
                "wal.flush", records=upto - self._flushed_upto
            )
            start = time.monotonic()
            self._write_flushed(self._flushed_upto, upto)
            self.metrics.histogram("wal_flush_seconds").record(
                time.monotonic() - start
            )
            tracer.finish(flush_span)
        else:
            self._write_flushed(self._flushed_upto, upto)
        self._flushed_upto = upto
        self.counters.add("log_flushes")
        if self._gc_waiting:
            self._flush_cv.notify_all()  # wake the followers we covered

    def _write_flushed(self, start: int, upto: int) -> None:
        """Persist ``_records[start:upto]``; the in-memory log's durability
        is the index advance itself, so this is a no-op hook for subclasses
        (:class:`~repro.wal.file_log.FileLogManager` writes and fsyncs)."""

    def _group_flush(self, lsn: int, gather: bool) -> None:
        """Leader/follower group commit.

        The first committer in a round becomes the *leader*: it registers
        its target, sleeps out the window (off-lock) while later committers
        register theirs as *followers*, then performs one flush to the
        highest registered LSN.  Followers just wait until durability
        covers their own LSN — usually satisfied by the leader's single
        physical flush.  A committer that does not ``gather`` never
        leads: with no round open it flushes at once.
        """
        with self._flush_cv:
            if self._flushed_upto and self._offsets[self._flushed_upto - 1] >= lsn:
                return  # already durable
            if not (gather or self._gc_leader):
                self._advance_locked(lsn)
                return
            self._gc_target = max(self._gc_target, lsn)
            if self._gc_leader:
                # Follower: wait for a flush that covers us.
                metrics = self.metrics
                wait_start = time.monotonic() if metrics is not None else 0.0
                self._gc_waiting += 1
                try:
                    while not (
                        self._flushed_upto
                        and self._offsets[self._flushed_upto - 1] >= lsn
                    ):
                        self._flush_cv.wait(timeout=1.0)
                finally:
                    self._gc_waiting -= 1
                self.counters.add("log_flushes_coalesced")
                if metrics is not None:
                    metrics.histogram("group_commit_wait_seconds").record(
                        time.monotonic() - wait_start
                    )
                return
            self._gc_leader = True
        tracer = self.tracer
        round_span = (
            tracer.begin("wal.group_commit") if tracer is not None else None
        )
        try:
            if invariants.hook is not None:
                invariants.hook.unlatched(self.latches, "group-commit window")
            time.sleep(GROUP_COMMIT_WINDOW)
        finally:
            with self._flush_cv:
                target = self._gc_target
                self._gc_target = 0
                self._gc_leader = False
                self._advance_locked(target)
                if self._gc_waiting:
                    self._flush_cv.notify_all()
        if round_span is not None:
            tracer.finish(round_span)

    # ------------------------------------------------------------------- scan

    def raw_records(
        self, from_lsn: int = 0, durable_only: bool = False
    ) -> list[bytes]:
        """The encoded records from ``from_lsn`` on, in LSN order, as one
        consistent snapshot.  Readers that need only headers
        (:meth:`LogRecord.peek`) start here and decode what they keep."""
        with self._lock:
            upto = self._flushed_upto if durable_only else len(self._records)
            start = bisect_left(self._offsets, from_lsn, 0, upto)
            return self._records[start:upto]

    def scan(
        self,
        from_lsn: int = 0,
        durable_only: bool = False,
        types: "Collection[RecordType] | None" = None,
        txn_id: int | None = None,
    ) -> Iterator[LogRecord]:
        """Decode records in LSN order, optionally only the durable prefix.

        ``types`` / ``txn_id`` keep only records of those types / of that
        transaction; the test reads the fixed header alone, so records
        that do not match are never payload-decoded.
        """
        records = self.raw_records(from_lsn, durable_only)
        if types is None and txn_id is None:
            yield from map(LogRecord.decode, records)
            return
        for data in records:
            rtype, _, _, _, _, rtxn, _, _, _, _ = LogRecord.peek(data)
            if (types is None or rtype in types) and (
                txn_id is None or rtxn == txn_id
            ):
                yield LogRecord.decode(data)

    def record_at(self, lsn: int) -> LogRecord:
        """Random-access decode of the record starting at ``lsn``."""
        with self._lock:
            lo = bisect_left(self._offsets, lsn)
            if lo >= len(self._offsets) or self._offsets[lo] != lsn:
                raise WALError(f"no log record at lsn {lsn}")
            return LogRecord.decode(self._records[lo])

    # --------------------------------------------------------------- truncate

    def truncate_before(self, lsn: int) -> int:
        """Drop the durable prefix of records with ``record.lsn < lsn``.

        Returns how many records were dropped.  The caller (the engine's
        checkpoint) is responsible for choosing a safe ``lsn``: at most
        the latest checkpoint's LSN and no later than the begin LSN of the
        oldest active transaction.  This is the operational contrast with
        sidefile reorganization schemes, which pin the log for the whole
        reorg (§7 on [SBC97]); here rebuild transactions are short, so
        the log can be truncated at every checkpoint even mid-rebuild.
        """
        with self._lock:
            keep_from = bisect_left(self._offsets, lsn)
            if keep_from > self._flushed_upto:
                raise WALError(
                    "cannot truncate unflushed log records "
                    f"(requested lsn {lsn}, durable up to index "
                    f"{self._flushed_upto})"
                )
            del self._records[:keep_from]
            del self._offsets[:keep_from]
            self._flushed_upto -= keep_from
            return keep_from

    @property
    def first_lsn(self) -> int:
        """LSN of the oldest retained record (0 when the log is empty)."""
        with self._lock:
            return self._offsets[0] if self._offsets else 0

    def buffered_bytes(self) -> int:
        """Bytes currently retained in the log (drops with truncation)."""
        with self._lock:
            return sum(len(r) for r in self._records)

    # ------------------------------------------------------------------ crash

    def crash(self) -> None:
        """Lose the unflushed tail (simulated log-buffer loss)."""
        with self._lock:
            del self._records[self._flushed_upto :]
            del self._offsets[self._flushed_upto :]
            if self._records:
                self._next_lsn = self._offsets[-1] + len(self._records[-1])
            else:
                self._next_lsn = 1

    # ------------------------------------------------------------- accounting

    def usage_snapshot(self) -> dict[str, dict[str, int]]:
        """Per-type bytes/counts for benchmark diffs."""
        with self._lock:
            return {
                "bytes": {t.name: n for t, n in self.bytes_by_type.items()},
                "counts": {t.name: n for t, n in self.count_by_type.items()},
            }

    @staticmethod
    def usage_diff(
        before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
    ) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {"bytes": {}, "counts": {}}
        for section in ("bytes", "counts"):
            names = set(before[section]) | set(after[section])
            for name in names:
                delta = after[section].get(name, 0) - before[section].get(name, 0)
                if delta:
                    out[section][name] = delta
        return out

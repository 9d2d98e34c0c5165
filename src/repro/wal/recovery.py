"""Crash recovery: analysis, redo, undo, and deallocated-page freeing.

The protocol is ARIES shaped, specialized to what the paper's engine needs:

1. **Analysis** reads the durable log once, *by header*: it finds the last
   checkpoint (which embeds the page-manager state and index metadata)
   and its ``redo_lsn``, the log's next LSN when the checkpoint's flush
   began; classifies transactions — any txn with a BEGIN but no durable
   COMMIT/ABORT is a *loser* — folds rebuild progress and quarantines,
   and hands redo the records at or past ``redo_lsn`` that change a
   page.  Only the checkpoint, ``REBUILD_PROGRESS`` and ``QUARANTINE``
   payloads and the ``DEALLOC`` records of committed transactions are
   decoded; a ``TXN_COMMIT`` is a header and nothing more.
2. **Redo** replays those records *by page*, using page timestamps for
   idempotence (:mod:`repro.wal.apply`): single-page records wait in a
   per-page queue that is drained — ascending page id, one large-I/O
   fetch per page, each record applied from its bytes — before every
   record that touches several pages or page-manager state, which is
   decoded and redone in log order.  KEYCOPY redo re-reads source pages;
   the §3 flush-new-before-free-old rule guarantees the sources are still
   intact whenever a target needs redo, and the drain before it
   guarantees they carry every earlier logged change.  A single-page
   record on a page that a committed transaction deallocates later in
   the log is *parked* instead: nothing but a barrier that reads the
   page ever needs it, and only such a barrier applies it.
3. **Sweep.** Pages allocated with no image anywhere are reclaimed,
   then every SPLIT / SHRINK / OLDPGOFSPLIT bit and side entry the crash
   left is cleared: bits describe in-flight top actions, and after a crash
   there are none, so undo's descents never wait on a bit nobody holds.
4. **Undo** rolls back losers as runtime rollback does: each loser is an
   active transaction again, and each step of its chain is
   :meth:`~repro.concurrency.txn.TransactionManager.undo_step`, which
   hops completed nested top actions via their dummy CLRs — a rebuild
   that crashed mid-flight keeps all its finished multipage top actions,
   the paper's incremental-progress property — and undoes a change
   through the engine's one undo applier.  Every loser's incomplete top
   action is undone first, then the rows, each pass in descending LSN
   order across losers (:meth:`RecoveryManager._undo`), with the pages
   the first pass allocates again swept between them; a row is undone
   by key, and a leaf it no longer fits is split.
5. **Freeing** (§4.1.3): the unlogged deallocated → free transition is
   re-derived — after redo and undo, every page still in deallocated state
   is freed.  New pages are flushed first, preserving the §3 ordering.

Recovery finishes by writing a fresh checkpoint through :func:`checkpoint`,
the one routine that writes a ``CHECKPOINT`` record; ``Engine.checkpoint``
calls it too.  A checkpoint may run under traffic: what is logged while
its flush runs lies past its ``redo_lsn`` and is redone.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ChecksumError, RecoveryError
from repro.quarantine import QuarantineRange, quarantine_payload
from repro.storage.page import PageFlag
from repro.storage.page_manager import PageState
from repro.wal.apply import (
    BARRIER_REDO,
    REDO_TYPES,
    ApplyContext,
    redo_page_queue,
    redo_record,
)
from repro.wal.records import (
    CLR_FLAG,
    LEAF_ROW_FLAG,
    PROGRESS_COMPLETE,
    PROGRESS_RUNNING,
    QUARANTINE_SET,
    LogRecord,
    RecordType,
)

if TYPE_CHECKING:
    from repro.concurrency.txn import Transaction
    from repro.context import EngineContext


@dataclass
class RebuildCheckpoint:
    """One index's rebuild progress: the ``REBUILD_PROGRESS`` records of
    its *highest* epoch (older epochs describe a superseded rebuild).

    The engine keeps one per index in
    :attr:`EngineContext.rebuild_progress
    <repro.context.EngineContext.rebuild_progress>`: recovery folds the
    durable records into it, and a running rebuild folds each record it
    logs, so what a live engine holds is what a restart would rebuild."""

    epoch: int
    index_id: int
    completed: bool = False
    """A ``PROGRESS_COMPLETE`` record exists: nothing to resume."""
    last_unit: bytes = b""
    """The last ``PROGRESS_RUNNING`` record's unit (b"": none yet)."""

    def fold(self, state: int, last_unit: bytes) -> None:
        """Take in one record of this epoch, or a checkpoint's snapshot
        of it.  An epoch's units only grow, so folding is order-free: a
        snapshot read while a running record was appended is folded
        after that record without taking it back."""
        if state == PROGRESS_COMPLETE:
            self.completed = True
        elif last_unit > self.last_unit:
            self.last_unit = last_unit

    def resume_key(self) -> bytes | None:
        """Highest durably copied unit: every unit at or below it sits in
        a rebuilt page, so a resumed run continues after it.  None means
        nothing to resume from (nothing durable, or completed)."""
        if self.completed or not self.last_unit:
            return None
        return self.last_unit


@dataclass
class RecoveryReport:
    """What recovery did — asserted on by the crash tests."""

    checkpoint_lsn: int = 0
    records_redone: int = 0
    records_undone: int = 0
    loser_txns: list[int] = field(default_factory=list)
    pages_freed: list[int] = field(default_factory=list)
    index_meta: dict = field(default_factory=dict)
    quarantine_ranges: list[QuarantineRange] = field(default_factory=list)
    """Damaged-range quarantines still standing after replaying
    ``QUARANTINE`` set/lift records (checkpoint state plus the log tail);
    the engine re-fences them before serving traffic."""


def _standing_quarantines(
    snapshot: list[dict], tail: list[LogRecord]
) -> list[QuarantineRange]:
    """Standing quarantines: the checkpoint's snapshot plus the
    ``QUARANTINE`` records logged after it.

    Sets are flushed at fence time, so a crash can never forget a
    known-damaged range; lifts ride later flushes, so a *lift* may be
    forgotten — the range comes back fenced, which is safe (the next
    scrub pass of a clean range lifts it again).  The checkpoint
    payload carries the map too, so log truncation cannot drop a
    standing quarantine either.
    """
    live: dict[tuple[int, int], QuarantineRange] = {}
    for entry in snapshot:
        r = QuarantineRange(
            index_id=int(entry["index_id"]),
            start_unit=bytes.fromhex(entry["start_unit"]),
            end_unit=bytes.fromhex(entry["end_unit"]),
            epoch=int(entry["epoch"]),
        )
        live[(r.index_id, r.epoch)] = r
    for rec in tail:
        key = (rec.index_id, rec.epoch)
        if rec.progress_state == QUARANTINE_SET:
            live[key] = QuarantineRange(
                rec.index_id, rec.start_unit, rec.last_unit, rec.epoch
            )
        else:
            live.pop(key, None)
    return list(live.values())


def _from(entries: list[tuple[int, bytes]], lsn: int) -> list:
    """The ``(lsn, record)`` entries at or past ``lsn``."""
    return [entry for entry in entries if entry[0] >= lsn]


_COMMIT = int(RecordType.TXN_COMMIT)
_ABORT = int(RecordType.TXN_ABORT)
_DEALLOC = int(RecordType.DEALLOC)
_CHECKPOINT = int(RecordType.CHECKPOINT)
_PROGRESS = int(RecordType.REBUILD_PROGRESS)
_QUARANTINE = int(RecordType.QUARANTINE)


def _named_pages(rec: LogRecord) -> list[int]:
    """Every page a :data:`~repro.wal.apply.CLR_UNDONE` record names."""
    if rec.type is RecordType.KEYCOPY:
        return [pid for pid, _ts in rec.target_ts] + [
            e.src_page for e in rec.entries
        ]
    return rec.page_ids or [rec.page_id]


class RecoveryManager:
    """Runs crash recovery on an engine context: its log, buffer pool and
    page manager, and its transactions and undo applier for the undo.
    Phase spans go to the context's tracer, and ``recovery.drained``
    fires on its syncpoints after every page-ordered drain of the redo
    queue."""

    def __init__(self, engine_ctx: EngineContext) -> None:
        self.engine_ctx = engine_ctx
        self.log = engine_ctx.log
        self.buffer = engine_ctx.buffer
        self.page_manager = engine_ctx.page_manager
        self.counters = engine_ctx.counters
        self.ctx = ApplyContext(
            self.buffer, self.page_manager, catch_up=self._catch_up
        )
        self._loser_last_lsn: dict[int, int] = {}
        """Loser txn id → LSN of its last durable record (set by the
        analysis pass)."""
        self._dead: dict[int, int] = {}
        """Page id → LSN of the last DEALLOC of it by a committed
        transaction at or past the checkpoint's redo_lsn (set by the
        analysis pass)."""
        self._deallocs: dict[int, LogRecord] = {}
        """Those DEALLOCs by LSN, decoded once by analysis for redo."""
        self._parked: dict[int, list[tuple[int, int, bytes]]] = {}
        self.records_parked = 0
        self.pages_caught_up = 0

    # ------------------------------------------------------------------ drive

    def recover(self) -> RecoveryReport:
        report = RecoveryReport()
        tracer = self.engine_ctx.tracer
        with tracer.span("recovery.analysis"):
            redo = self._analysis(report)
        span = tracer.begin("recovery.redo", records=len(redo))
        try:
            self._redo(redo)
        finally:
            tracer.finish(
                span,
                parked=self.records_parked,
                caught_up=self.pages_caught_up,
            )
        with tracer.span("recovery.bit_sweep"):
            self._reclaim_phantom_allocations(report)
            self._clear_protocol_bits()
        with tracer.span("recovery.undo", losers=len(report.loser_txns)):
            self._undo(report)
        with tracer.span("recovery.free"):
            self._free_deallocated(report)
            # Standing quarantines go back before the checkpoint that
            # ends recovery, so its snapshot carries them.
            self.engine_ctx.quarantine.restore(report.quarantine_ranges)
            checkpoint(self.engine_ctx, report.index_meta)
        return report

    # --------------------------------------------------------------- analysis

    def _analysis(self, report: RecoveryReport) -> list[tuple]:
        """One pass over the durable log's record headers.

        Classifies transactions (a txn id with no durable COMMIT/ABORT is
        a *loser*; ARIES-style implicit BEGIN), finds the last checkpoint,
        folds ``REBUILD_PROGRESS`` and ``QUARANTINE`` records and returns
        the redo work list: ``(lsn, type, page_id, encoded record)`` of
        every record at or past the checkpoint's ``redo_lsn`` that changes
        a page or page-manager state.  Records with no page effect are
        counted, never built.  The payloads decoded here are the
        checkpoint's, the progress records' and quarantines', and those of
        the DEALLOCs at or past ``redo_lsn`` followed by a durable commit
        of their transaction
        (with no abort of it between): they name
        the pages redo parks records of (:meth:`_redo`), and are handed on
        to redo decoded.
        """
        raws = self.log.raw_records(durable_only=True)
        peek = LogRecord.peek
        checkpoint_at = -1
        redo_at = 0  # index of the first record at or past redo_lsn
        active: dict[int, int] = {}  # txn -> last durable lsn
        redo: list[tuple] = []
        # DEALLOCs in the redo list, as (lsn, record), by whether their
        # transaction's outcome is durable yet.  Commitment is decided in
        # log order: txn ids start again at 1 after a crash, so an id can
        # commit in one run and be a loser in the next.
        pending: dict[int, list[tuple[int, bytes]]] = {}  # txn -> DEALLOCs
        committed: list[tuple[int, bytes]] = []
        quarantine_tail: list[LogRecord] = []
        decoded = 0
        for at, data in enumerate(raws):
            # A checkpoint's redo_lsn is in its undo_next_lsn slot.
            rtype, _, _, lsn, _, txn_id, redo_lsn, _, page_id, _ = peek(data)
            if rtype == _COMMIT or rtype == _ABORT:
                active.pop(txn_id, None)
                done = pending.pop(txn_id, None)
                if done is not None and rtype == _COMMIT:
                    committed.extend(done)
            elif rtype == _CHECKPOINT:
                # Everything below the checkpoint's redo_lsn — the log's
                # next LSN when its flush began — is in the page images
                # and in its snapshots already.  What was logged between
                # then and the record (traffic during the flush) is not,
                # and stays.
                checkpoint_at = at
                redo_at = at
                while redo_at and peek(raws[redo_at - 1])[3] >= redo_lsn:
                    redo_at -= 1
                del redo[: bisect.bisect_left(redo, (redo_lsn,))]
                pending = {
                    txn: kept
                    for txn, deallocs in pending.items()
                    if (kept := _from(deallocs, redo_lsn))
                }
                committed = _from(committed, redo_lsn)
                quarantine_tail = [
                    rec for rec in quarantine_tail if rec.lsn >= redo_lsn
                ]
            else:
                if txn_id:
                    active[txn_id] = lsn
                if rtype in REDO_TYPES:
                    redo.append((lsn, rtype, page_id, data))
                    if rtype == _DEALLOC:
                        pending.setdefault(txn_id, []).append((lsn, data))
                elif rtype == _PROGRESS:
                    self._fold_progress(LogRecord.decode(data))
                    decoded += 1
                elif rtype == _QUARANTINE:
                    quarantine_tail.append(LogRecord.decode(data))
                    decoded += 1
        report.loser_txns = sorted(active)
        self._loser_last_lsn = active
        self._dead, self._deallocs = {}, {}
        for _lsn, data in committed:
            rec = LogRecord.decode(data)
            decoded += 1
            self._deallocs[rec.lsn] = rec
            for pid in rec.page_ids:
                self._dead[pid] = max(self._dead.get(pid, 0), rec.lsn)
        # The records redo looks at: those at or past redo_lsn but the
        # checkpoint itself.
        report.records_redone = len(raws) - redo_at - (checkpoint_at >= 0)
        payload: dict = {}
        if checkpoint_at >= 0:
            checkpoint = LogRecord.decode(raws[checkpoint_at])
            decoded += 1
            report.checkpoint_lsn = checkpoint.lsn
            payload = checkpoint.payload_json or {}
            snap = payload.get("page_manager")
            if snap is None:
                raise RecoveryError("checkpoint record lacks page_manager state")
            self.page_manager.restore(snap)
            report.index_meta = dict(payload.get("index_meta", {}))
            # Roots feed logical undo of leaf-level records during the
            # undo pass (root page ids are stable, so this stays valid).
            self.engine_ctx.index_roots.update(
                {
                    int(index_id): int(meta["root"])
                    for index_id, meta in report.index_meta.items()
                }
            )
        report.quarantine_ranges = _standing_quarantines(
            payload.get("quarantine", []), quarantine_tail
        )
        self._fold_checkpoint_progress(payload)
        self.counters.add("recovery_records_scanned", len(raws))
        self.counters.add("recovery_payloads_decoded", decoded)
        return redo

    def _fold_progress(self, rec: LogRecord) -> None:
        """Fold one ``REBUILD_PROGRESS`` record into the context's
        per-index :class:`RebuildCheckpoint`\\ s (:meth:`_fold`)."""
        self._fold(rec.index_id, rec.epoch, rec.progress_state, rec.last_unit)

    def _fold_checkpoint_progress(self, payload: dict) -> None:
        """Fold a checkpoint's snapshot of every index's progress: what
        the ``REBUILD_PROGRESS`` records a truncation dropped said."""
        for index_id, (epoch, completed, last_unit) in payload.get(
            "rebuild_progress", {}
        ).items():
            self._fold(
                int(index_id), epoch,
                PROGRESS_COMPLETE if completed else PROGRESS_RUNNING,
                bytes.fromhex(last_unit),
            )

    def _fold(
        self, index_id: int, epoch: int, state: int, last_unit: bytes
    ) -> None:
        """Fold one index's progress, from a record or a snapshot.

        Only the highest epoch per index counts — a later rebuild
        supersedes an earlier one, and epochs (the log's next LSN at run
        start) are strictly monotone even across crashes.  Records are
        standalone (txn id 0), appended after the batch's §3 force and
        before its commit or abort, so every durable one is honest
        regardless of whether its transaction turned out to be a loser:
        the NTA_ENDs it summarizes are durable (prefix durability) and
        completed top actions are never undone."""
        progress = self.engine_ctx.rebuild_progress
        ckpt = progress.get(index_id)
        if ckpt is None or epoch > ckpt.epoch:
            ckpt = RebuildCheckpoint(epoch=epoch, index_id=index_id)
            progress[index_id] = ckpt
        elif epoch < ckpt.epoch:
            return  # superseded rebuild
        ckpt.fold(state, last_unit)

    # ------------------------------------------------------------------- redo

    def _redo(self, work: list[tuple]) -> None:
        """Redo by page between barriers.

        A single-page record (:data:`~repro.wal.apply.SINGLE_PAGE_REDO`),
        a rollback's compensation of a row included, is queued under its
        page; two of them on different pages commute, so the order across
        pages is free and each page is visited once per drain with its
        records in LSN order.  A record that touches several pages or
        page-manager state is a *barrier*: it may read what a queued record
        writes (KEYCOPY re-reads its sources) or replace a page that queued
        records must still find (ALLOC of a recycled id), so the queue is
        drained before it and it goes through :func:`redo_record` in log
        order.  Only a barrier, and the ALLOC / DEALLOC / KEYCOPY a CLR
        names, is decoded: a drain applies its records from their bytes.

        A single-page record on a page a committed transaction deallocates
        later in the log is *parked* instead of queued.  The page is dead
        from that DEALLOC on (§4.1.3), so the record is applied only if a
        barrier reads the page before then: a KEYCOPY its targets, and the
        sources of a target it finds stale (through
        :attr:`ApplyContext.catch_up`), a CLR every page it names.  An
        ALLOC or ALLOCRUN of the id throws the old incarnation's parked
        records away.  Whatever reads a page thus sees the image log order
        would show it.
        """
        queued: dict[int, list[tuple[int, int, bytes]]] = {}
        parked = self._parked = {}
        self.pages_caught_up = 0
        dead = self._dead
        deallocs = self._deallocs
        decoded = 0  # by the barriers; a drain counts its own
        nparked = 0
        for lsn, rtype, page_id, data in work:
            if rtype not in BARRIER_REDO:
                if lsn < dead.get(page_id, 0):
                    nparked += 1
                    records = parked.get(page_id)
                    if records is None:
                        parked[page_id] = [(lsn, rtype, data)]
                    else:
                        records.append((lsn, rtype, data))
                    continue
                records = queued.get(page_id)
                if records is None:
                    queued[page_id] = [(lsn, rtype, data)]
                else:
                    records.append((lsn, rtype, data))
                continue
            self._drain(queued)
            rec = deallocs.pop(lsn, None)
            if rec is None:
                rec = LogRecord.decode(data)
                decoded += 1
            if rec.type is RecordType.CLR:
                rec.resolved_undone = original = self.log.record_at(
                    rec.undone_lsn
                )
                decoded += 1
                self._catch_up(_named_pages(original))
            elif rec.type is RecordType.ALLOC or rec.type is RecordType.ALLOCRUN:
                for pid in rec.page_ids or [rec.page_id]:
                    parked.pop(pid, None)
            redo_record(rec, self.ctx)
        self._drain(queued)
        self.records_parked = nparked
        self.counters.add("recovery_payloads_decoded", decoded)
        self.counters.add("recovery_records_parked", nparked)
        self.counters.add("recovery_pages_caught_up", self.pages_caught_up)

    def _catch_up(self, page_ids: Iterable[int]) -> None:
        """Apply the parked records of ``page_ids``: a barrier is about to
        read them.  Every record parked so far precedes that barrier."""
        decoded = 0
        for page_id in page_ids:
            records = self._parked.pop(page_id, None)
            if records is not None:
                decoded += redo_page_queue(page_id, records, self.ctx)
                self.pages_caught_up += 1
        self.counters.add("recovery_payloads_decoded", decoded)

    def _drain(self, queued: dict[int, list[tuple[int, int, bytes]]]) -> None:
        """Apply and empty the queue, pages in ascending id so that pool
        misses arrive as aligned disk runs.  ``recovery_payloads_decoded``
        counts the records whose payload a drain read."""
        if not queued:
            return
        decoded = 0
        for page_id in sorted(queued):
            decoded += redo_page_queue(page_id, queued[page_id], self.ctx)
        self.counters.add("recovery_payloads_decoded", decoded)
        self.counters.add("recovery_page_visits", len(queued))
        self.engine_ctx.syncpoints.fire("recovery.drained", pages=len(queued))
        queued.clear()

    # ------------------------------------------------------------------ sweep

    def _clear_protocol_bits(self) -> None:
        """Bits describe in-flight top actions; after a crash there are none.

        Allocated pages are visited in ascending id by large I/O, so what
        redo did not leave resident is read a disk run at a time.  The
        pages it clears are written by the checkpoint that ends recovery."""
        self._clear_bits(self.page_manager.allocated_pages())

    def _clear_bits(self, page_ids: Iterable[int]) -> None:
        """Clear the protocol state of each of ``page_ids`` that has any."""
        buffer = self.buffer
        for page_id in page_ids:
            try:
                page = buffer.fetch(page_id, large_io=True)
            except ChecksumError:
                # Rotted image with no redo history to rebuild it: leave
                # it allocated and unreadable for the scrubber's repair
                # ladder rather than failing the whole recovery.  (As a
                # run neighbour of another page it is simply not admitted.)
                continue
            dirty = False
            if page.flags != PageFlag.NONE or page.side_page:
                page.clear_protocol_state()
                dirty = True
            buffer.unpin(page_id, dirty=dirty)

    # ------------------------------------------------------------------- undo

    def _undo(self, report: RecoveryReport) -> None:
        """Roll back the losers, each an active transaction again, by the
        runtime's chain step.

        Two passes, each in globally descending LSN order across losers:
        the first undoes every loser's incomplete top action and stops
        each loser at its first leaf row, the second undoes the rest.  A
        row changed under a nonleaf page whose split was in flight was
        reached through a side entry the sweep has cleared; undone first,
        the split no longer stands in the way of the row's descent by
        key.  The reordering commutes: a top action changes only the
        pages it holds locked and bitted, and a row is found by key
        (docs/recovery.md, step 4).

        A page the sweep passed by, deallocated then, may be allocated
        again by the first pass — a loser's shrink undone — with the bit
        the crash left on it: its bits are cleared before the second
        pass descends.
        """
        txns = self.engine_ctx.txns
        todo: dict[Transaction, int] = {}  # loser -> next lsn to look at
        for txn_id, last_lsn in self._loser_last_lsn.items():
            todo[txns.resume(txn_id, last_lsn)] = last_lsn
        deallocated = self.page_manager.deallocated_pages()
        rows: dict[Transaction, LogRecord] = {}  # loser -> its first row
        for first_pass in (True, False):
            while todo:
                txn = max(todo, key=todo.__getitem__)
                lsn = todo[txn]
                if lsn == 0:
                    del todo[txn]
                    txns.end_rolled_back(txn)
                    continue
                rec = rows.pop(txn, None)
                if rec is None:
                    rec = self.log.record_at(lsn)
                    self.counters.add("recovery_payloads_decoded")
                if first_pass and rec.flags & LEAF_ROW_FLAG and not (
                    rec.flags & CLR_FLAG
                ):
                    rows[txn] = rec
                    del todo[txn]
                    continue
                todo[txn], undone = txns.undo_step(txn, rec)
                report.records_undone += undone
            todo = {txn: rec.lsn for txn, rec in rows.items()}
            if first_pass:
                self._clear_bits(
                    sorted(
                        set(deallocated).difference(
                            self.page_manager.deallocated_pages()
                        )
                    )
                )

    # ------------------------------------------------------------ reclamation

    def _reclaim_phantom_allocations(self, report: RecoveryReport) -> None:
        """Free allocated pages that have no image anywhere.

        Chunk reservations (the rebuild's contiguous-allocation cursor) are
        in-memory-only until a page is actually formatted and logged; a
        checkpoint snapshot taken while a cursor held reserved pages can
        therefore record allocations that no log record ever backs.  After
        redo, every genuinely allocated page has an image (on disk, or
        recreated in the buffer by ALLOC/ALLOCRUN redo) — anything left
        without one is a phantom reservation and is reclaimed.
        """
        disk = self.buffer.disk
        for pid in self.page_manager.allocated_pages():
            if self.buffer.is_resident(pid):
                continue
            # A torn/corrupt slot is rot, not a phantom reservation:
            # freeing it would leave the tree pointing at a FREE page and
            # erase the evidence the scrubber needs.  Only a slot the disk
            # calls never written is a true phantom.
            if disk.verdict(disk.read_physical(pid)) in ("ok", "crc"):
                continue
            self.page_manager.force_state(pid, PageState.FREE)
            report.pages_freed.append(pid)

    # ---------------------------------------------------------------- freeing

    def _free_deallocated(self, report: RecoveryReport) -> None:
        """§4.1.3: free every page still deallocated, new pages flushed first."""
        stale = self.page_manager.deallocated_pages()
        if not stale:
            return
        self.buffer.flush_all()
        for pid in stale:
            self.page_manager.free(pid)
        report.pages_freed.extend(stale)


def checkpoint(
    ctx: EngineContext, index_meta: dict, truncate: bool = False
) -> int:
    """Take a checkpoint; returns its LSN.  The one routine that builds
    and logs a ``CHECKPOINT`` record: ``Engine.checkpoint`` and the end of
    recovery both call it, one at a time.

    The record's ``redo_lsn`` is the log's next LSN when the flush
    begins.  Every change logged below it was made to a page before the
    flush looked at the page, and the flush writes it: an image is taken
    under the page's S latch, after the change's X holder has marked the
    frame dirty (a pinned clean frame is latched too,
    :meth:`BufferPool._take_images`).  What is logged from ``redo_lsn`` on
    — traffic during the flush — is redone, so the record promises
    nothing about it.

    The page-manager snapshot is read with ``redo_lsn`` under the page
    manager's lock, and a logged state change that follows its record
    (a ``DEALLOC``, an undone ``ALLOC`` / ``DEALLOC``) is made under the
    same lock with its append: the snapshot holds it exactly when its
    record lies below ``redo_lsn``.  An allocation is made before its
    ``ALLOC`` is logged, so the snapshot may hold a page whose birth is
    logged past ``redo_lsn`` (redone) or never (a phantom, which restart
    reclaims).  The quarantine map is read after the flush, so a set
    logged before ``redo_lsn`` is installed by then.  So is each index's
    rebuild progress (:attr:`EngineContext.rebuild_progress`): truncation
    drops the ``REBUILD_PROGRESS`` records below ``redo_lsn``, and
    recovery folds the snapshot with the records that stay.

    With ``truncate`` the log is cut below ``redo_lsn``, or below the
    begin LSN of the oldest still-active transaction when that is older.
    """
    with ctx.checkpointing:
        page_manager = ctx.page_manager
        with page_manager.lock:
            redo_lsn = ctx.log.next_lsn
            pages = page_manager.snapshot()
        ctx.buffer.flush_all()
        rec = LogRecord(
            type=RecordType.CHECKPOINT,
            undo_next_lsn=redo_lsn,
            payload_json={
                "page_manager": pages,
                "index_meta": index_meta,
                "quarantine": quarantine_payload(ctx.quarantine.ranges()),
                "rebuild_progress": {
                    str(index_id): [p.epoch, p.completed, p.last_unit.hex()]
                    for index_id, p in sorted(ctx.rebuild_progress.items())
                },
            },
        )
        lsn = ctx.log.append(rec)
        ctx.log.flush_to(lsn)
        if truncate:
            safe = redo_lsn
            for txn in list(ctx.txns.active.values()):
                # begin_lsn == 0 means the txn has logged nothing yet; its
                # future records all land past redo_lsn, so it does not
                # pin the log.
                if txn.begin_lsn:
                    safe = min(safe, txn.begin_lsn)
            ctx.log.truncate_before(safe)
        return lsn

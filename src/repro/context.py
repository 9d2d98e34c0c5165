"""The engine context: every subsystem handle, plus page-access discipline.

One :class:`EngineContext` bundles the storage, WAL, and concurrency
substrates that the B+-tree and the online rebuild operate through.  It also
centralizes the latch+pin pairing rule: a thread may only read or mutate a
:class:`~repro.storage.page.Page` object between :meth:`get_latched` and
:meth:`release_page` for that page (the latch gives physical consistency,
the pin keeps the buffer frame — and thus the shared page object — from
being evicted mid-use).

:meth:`log_page_change` is the WAL discipline in one place: stamp the
record with the page's pre-change timestamp, append, advance the page
timestamp to the record's LSN, and mark the frame dirty.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.concurrency.latch import LatchManager, LatchMode
from repro.concurrency.locks import LockManager
from repro.concurrency.syncpoints import SyncPoints
from repro.concurrency.txn import Transaction, TransactionManager
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.quarantine import QuarantineMap
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import PAGE_SIZE_DEFAULT, Page
from repro.storage.page_manager import PageManager
from repro.wal.apply import ApplyContext, undo_record
from repro.wal.log import LogManager
from repro.wal.records import LogRecord


@dataclass
class EngineContext:
    """All subsystem handles an index operation needs."""

    page_size: int
    disk: Disk
    buffer: BufferPool
    page_manager: PageManager
    log: LogManager
    latches: LatchManager = field(init=False)
    locks: LockManager = field(init=False)
    txns: TransactionManager = field(init=False)
    counters: Counters
    syncpoints: SyncPoints
    index_roots: dict[int, int]
    """Index id -> root page id; shared with the undo applier so leaf-level
    records can be undone logically (see :mod:`repro.wal.apply`)."""
    quarantine: QuarantineMap
    """Damaged-key-range fencing installed by the integrity scrubber; every
    index operation consults it via its lock-free ``active`` flag (see
    :mod:`repro.quarantine`)."""
    tracer: Tracer
    """Trace-span sink (:data:`~repro.obs.tracer.NULL_TRACER` unless the
    context was created with ``trace=True``); instrumented sites either
    ``with ctx.tracer.span(...)`` uniformly or guard on ``tracer.enabled``
    on the hottest paths.  Its point events are the ``syncpoints`` fires."""
    metrics: MetricsRegistry
    """Histogram registry.  The workload runner's ``oltp_<op>_seconds``
    are always recorded; the subsystem histograms (latch wait, WAL flush,
    buffer read, ...) only when tracing is on."""
    progress: ProgressReporter
    """Live rebuild/scrub progress board; always active (posts are a few
    attribute writes per top action), read via ``Engine.progress()``."""
    lock_timeout: float
    """Latch and lock wait bound, kept so :meth:`reset_volatile` gives a
    crashed engine's new managers the timeout its first ones had."""

    @classmethod
    def create(
        cls,
        page_size: int = PAGE_SIZE_DEFAULT,
        io_size: int | None = None,
        buffer_capacity: int = 4096,
        lock_timeout: float = 30.0,
        storage_dir: str | None = None,
        fault_plan=None,
        io_retry_limit: int = 12,
        trace: bool | None = None,
    ) -> "EngineContext":
        """Wire up a fresh engine: disk, pool, log, locks, transactions.

        With ``storage_dir`` the page store and the durable log prefix are
        backed by real files (``data.pages`` / ``wal.log``) in that
        directory, so the database survives process restarts — reattach
        with :meth:`repro.engine.Engine.open`.

        ``fault_plan`` (a :class:`~repro.storage.faults.FaultPlan`) wraps
        the disk in a :class:`~repro.storage.faults.FaultyDisk`, injecting
        that plan's faults into every physical I/O.  ``io_retry_limit`` is
        the one transient-error retry budget: the buffer pool's, which the
        rebuild's reads and writes go through like everyone else's.

        ``trace`` turns on the observability layer (:mod:`repro.obs`):
        a live :class:`~repro.obs.tracer.Tracer` plus histogram metrics
        threaded through the WAL, buffer pool, latch manager, rebuild,
        supervisor, scrubber, and workload runner.  ``None`` (default)
        reads the ``REPRO_TRACE`` environment variable (``1``/``true``
        /``yes`` = on), so a whole test run can be traced without code
        changes.
        """
        counters = Counters()
        if trace is None:
            trace = os.environ.get("REPRO_TRACE", "").lower() in (
                "1", "true", "yes",
            )
        tracer = Tracer(counters=counters) if trace else NULL_TRACER
        metrics = MetricsRegistry(counters)
        data_path = None
        if storage_dir is not None:
            from repro.wal.file_log import FileLogManager

            os.makedirs(storage_dir, exist_ok=True)
            data_path = os.path.join(storage_dir, "data.pages")
            log: LogManager = FileLogManager(
                os.path.join(storage_dir, "wal.log"), counters=counters
            )
        else:
            log = LogManager(counters=counters)
        disk = Disk(
            page_size=page_size,
            io_size=io_size,
            counters=counters,
            path=data_path,
        )
        if fault_plan is not None:
            from repro.storage.faults import FaultyDisk

            disk = FaultyDisk(disk, fault_plan, counters=counters)
        buffer = BufferPool(
            disk,
            capacity=buffer_capacity,
            counters=counters,
            retry_limit=io_retry_limit,
        )
        page_manager = PageManager(disk, counters=counters)
        buffer.set_wal_hook(log.flush_to)
        ctx = cls(
            page_size=page_size,
            disk=disk,
            buffer=buffer,
            page_manager=page_manager,
            log=log,
            counters=counters,
            syncpoints=SyncPoints(),
            index_roots={},
            quarantine=QuarantineMap(counters=counters, log=log),
            tracer=tracer,
            metrics=metrics,
            progress=ProgressReporter(),
            lock_timeout=lock_timeout,
        )
        if trace:
            # Every syncpoint fire becomes a trace event.  Subsystems
            # record only when these optional hooks are set, so a disabled
            # context pays a None-check at most.
            ctx.syncpoints.observe(tracer.event)
            log.tracer = tracer
            log.metrics = metrics
            buffer.tracer = tracer
            buffer.metrics = metrics
        ctx.reset_volatile()
        return ctx

    def reset_volatile(self) -> None:
        """(Re)create what no process death survives — latches, locks,
        transactions and the undo applier — wired as :meth:`create` wires
        them; ``Engine.crash`` calls this too, so the two cannot drift."""
        self.latches = LatchManager(
            counters=self.counters, timeout=self.lock_timeout
        )
        if self.tracer.enabled:
            self.latches.metrics = self.metrics
        self.locks = LockManager(
            counters=self.counters, timeout=self.lock_timeout
        )
        self.txns = TransactionManager(self.log, counters=self.counters)
        self.txns.set_undo_applier(
            lambda rec, clr_lsn: undo_record(
                rec,
                ApplyContext(self.buffer, self.page_manager, self.index_roots),
                clr_lsn,
            )
        )
        self.txns.lock_manager = self.locks

    # ------------------------------------------------------------ page access

    def get_latched(
        self,
        page_id: int,
        mode: LatchMode,
        large_io: bool = False,
        scan: bool = False,
    ) -> Page:
        """Latch then pin a page; the pair is released by :meth:`release_page`.

        ``scan=True`` tags the fetch as scan-class for the buffer pool's
        replacement policy (rebuild reads of the old index — see
        :mod:`repro.storage.buffer`); OLTP traversals use the default.
        """
        self.latches.acquire(page_id, mode)
        try:
            page = self.buffer.fetch(page_id, large_io=large_io, scan=scan)
        except Exception:
            self.latches.release(page_id)
            raise
        shard = self.counters.local_shard()
        shard["pages_visited"] += 1
        if page.level == 1:
            shard["level1_visits"] += 1
        return page

    def release_page(self, page_id: int, dirty: bool = False) -> None:
        """Unpin and unlatch (inverse of :meth:`get_latched`)."""
        self.buffer.unpin(page_id, dirty=dirty)
        self.latches.release(page_id)

    def relatch(self, page_id: int, mode: LatchMode) -> Page:
        """Drop and re-take the latch in a different mode (not atomic)."""
        self.release_page(page_id)
        return self.get_latched(page_id, mode)

    # ---------------------------------------------------------------- logging

    def log_page_change(
        self, txn: Transaction, record: LogRecord, page: Page
    ) -> int:
        """WAL a change to ``page``: stamp old ts, append, advance page ts."""
        record.page_id = page.page_id
        record.index_id = page.index_id
        record.old_ts = page.page_lsn
        lsn = self.txns.append(txn, record)
        page.page_lsn = lsn
        self.buffer.mark_dirty(page.page_id)
        return lsn

"""The online index rebuild driver (§3).

``OnlineRebuild.run`` walks the leaf chain left to right as *a sequence of
transactions*, each performing up to ``xactsize / ntasize`` multipage
rebuild top actions.  At every transaction boundary the protocol of §3 is
observed exactly:

1. the new pages generated in the transaction are **forced to disk**
   (through large physical I/Os — the chunk allocator made them
   contiguous);
2. the transaction commits;
3. the old pages it deallocated are **freed** (made available for fresh
   allocation) by scanning the transaction's log records for deallocations
   — the order that lets the keycopy record omit key contents.

If the rebuild aborts (user interrupt, injected fault), the in-flight top
action is rolled back, but completed top actions stay: their new pages are
flushed and their deallocated old pages freed during the rollback
(§4.1.3), so an aborted rebuild still keeps all the progress it made.
User transactions are never aborted by the rebuild (§7).

Position tracking is by key, not by page: after each top action the
highest copied unit is remembered, and the next top action re-discovers
the first leaf holding anything greater.  This makes the rebuild immune to
concurrent splits and shrinks rearranging the chain between top actions.

**One driver, one copy thread.**  Every run — full, range-restricted,
sliced, resumed — is this one transaction loop (``_drive``) on the calling
thread, from a probe to the end of the chain or of the requested range.
The only other threads are the I/O scheduler's readers and writers, which
hide the device from the copy thread.  The run starts them itself, as soon
as the device proves slow enough to be worth hiding
(:data:`PIPELINE_MIN_SERVICE`); on a fast one it stays synchronous.

**One failure channel.**  Every run has one :class:`_RunState`; the first
crash or error recorded in it wins.  A :class:`CrashPoint` (simulated
power failure) stops the run with no cleanup at all.  An ordinary failure
inside a top action aborts the transaction under §4.1.3;
:meth:`OnlineRebuild.fail` from another thread records the error without
touching a transaction, and the run winds down at its next top-action
boundary — completed top actions forced, committed, their old pages
freed.  Either way ``run`` raises
:class:`~repro.errors.RebuildAbortedError` chained from the cause.
"""

from __future__ import annotations

import functools
import threading
import time

from dataclasses import dataclass, field

from repro.btree import keys as K
from repro.btree import node
from repro.btree.traversal import AccessMode, Traversal
from repro.btree.tree import BTree
from repro.concurrency.latch import LatchMode
from repro.concurrency.syncpoints import CrashPoint
from repro.concurrency.txn import Transaction
from repro.context import EngineContext
from repro.core.config import RebuildConfig
from repro.core.copy_phase import (
    PositionLost,
    copy_multipage,
    give_back,
    level1_leaf_order,
)
from repro.core.propagation import PropagationState, run_propagation
from repro.errors import RebuildAbortedError, RebuildError
from repro.stats.counters import Timer
from repro.storage.io_scheduler import IOScheduler
from repro.storage.page import NO_PAGE, Page
from repro.storage.page_manager import ChunkAllocator, PageState
from repro.wal.records import (
    PROGRESS_COMPLETE,
    PROGRESS_RUNNING,
    LogRecord,
    RecordType,
)
from repro.wal.recovery import RebuildCheckpoint

PIPELINE_MIN_SERVICE = 0.0002
"""Seconds per device call at or above which a run hides the device behind
the I/O threads; below it their hand-offs cost more than the waits they
hide.  Ten times a call into the in-memory disk (≈ 0.02 ms), a fifth of the
1 ms simulated device; compared with the *smallest* of the pool's last few
samples, so one stalled call cannot flip a job on a fast device
(docs/performance.md, "How a rebuild picks its I/O mode")."""
PIPELINE_WINDOW = 4
"""Top actions of read-ahead a pipelined run keeps requested beyond its
position (the scheduler caps it by what the pool's ring holds)."""


@dataclass
class RebuildReport:
    """What one rebuild run did (inputs to EXPERIMENTS.md)."""

    leaf_pages_rebuilt: int = 0
    new_leaf_pages: int = 0
    transactions: int = 0
    top_actions: int = 0
    pages_freed: int = 0
    log_bytes: int = 0
    log_records: int = 0
    log_bytes_by_type: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    counter_deltas: dict[str, int] = field(default_factory=dict)
    aborted: bool = False
    completed: bool = True
    resume_unit: bytes | None = None
    """Highest leaf unit copied: everything at or below it sits in a
    rebuilt page.  When ``completed`` is False (a
    ``max_pages`` slice ended early, a run failed), pass this as
    ``resume_after`` to the next ``run`` call to continue where this one
    stopped — the §7 "incremental reorganization" mode that sidefile
    schemes cannot do."""


class _RunState:
    """Stop/failure state of one run.

    ``stop`` tells the copy thread to wind down at its next top-action
    boundary.  The first crash (simulated power failure) or error to be
    recorded wins; later ones are dropped.
    """

    def __init__(self) -> None:
        self.stop = threading.Event()
        self.crash: CrashPoint | None = None
        self.error: BaseException | None = None
        self._lock = threading.Lock()

    def record(self, exc: BaseException) -> None:
        with self._lock:
            if isinstance(exc, CrashPoint):
                self.crash = self.crash or exc
            else:
                self.error = self.error or exc
        self.stop.set()


class OnlineRebuild:
    """One online rebuild of one index.  Not reentrant per index."""

    def __init__(self, tree: BTree, config: RebuildConfig | None = None) -> None:
        self.tree = tree
        self.ctx: EngineContext = tree.ctx
        self.config = config if config is not None else RebuildConfig()
        self._scheduler: IOScheduler | None = None
        # Supervision hooks (all idle unless a RebuildSupervisor drives
        # this instance — unsupervised they cost two attribute checks
        # per top action and nothing else).
        self.throttle_sleep: float = 0.0
        """Seconds slept at each top-action boundary; the supervisor's
        monitor widens and decays it at runtime to degrade gracefully."""
        self.last_report: RebuildReport | None = None
        """The report of the most recent ``run`` (kept current even when
        the run raised — its ``resume_unit`` seeds a supervised retry)."""
        self.heartbeat: float | None = None
        """``time.monotonic()`` of the last completed top action while the
        copy loop runs, None when none runs (what the supervisor's
        watchdog reads)."""
        self._state = _RunState()  # of the next run; replaced when it ends
        self._epoch = 0
        self._resume_seam = False
        self._progress_enabled = False

    # ------------------------------------------------------------ supervision

    def fail(self, exc: BaseException) -> None:
        """Fail the run cleanly from another thread (supervisor watchdog):
        it winds down at its next top-action boundary and ``run`` raises
        :class:`RebuildAbortedError` chained from ``exc``."""
        self._state.record(exc)

    def run(
        self,
        start_key: bytes | None = None,
        end_key: bytes | None = None,
        max_pages: int | None = None,
        resume_after: bytes | None = None,
        resume_checkpoint: RebuildCheckpoint | None = None,
    ) -> RebuildReport:
        """Rebuild the index online; returns a measurement report.

        The default rebuilds everything.  Three restrictions compose for
        incremental / range-restricted operation (§7: "incremental
        reorganization is difficult" for copy-based schemes; inline
        reorganization makes it trivial):

        * ``start_key`` / ``end_key`` — rebuild only leaves holding keys
          in ``[start_key, end_key]`` (whole leaves: the boundary leaves
          are included);
        * ``max_pages`` — stop after roughly this many old leaves (at top
          action granularity) and report ``completed=False`` plus a
          ``resume_unit``;
        * ``resume_after`` — a previous report's ``resume_unit``;
          continues from its successor.

        ``resume_checkpoint`` — a :class:`RebuildCheckpoint` recovered
        from durable ``REBUILD_PROGRESS`` records — continues an
        interrupted rebuild after its last durable unit.  A checkpoint for
        another index, or one whose rebuild completed, is ignored (the
        epoch check already happened at recovery: only the highest
        epoch's records survive reconstruction).

        A failure — in a top action, or posted through :meth:`fail` —
        raises :class:`RebuildAbortedError` chained from its cause after
        the run has wound down; ``last_report.resume_unit`` then seeds a
        retry.
        """
        tree, ctx = self.tree, self.ctx
        if getattr(tree, "_rebuild_active", False):
            raise RebuildError(
                f"index {tree.index_id} already has a rebuild in progress"
            )
        if start_key is not None and len(start_key) != tree.key_len:
            raise RebuildError(
                f"start_key must be {tree.key_len} bytes"
            )
        if end_key is not None and len(end_key) != tree.key_len:
            raise RebuildError(f"end_key must be {tree.key_len} bytes")
        if resume_checkpoint is not None and (
            resume_checkpoint.completed
            or resume_checkpoint.index_id != tree.index_id
        ):
            resume_checkpoint = None
        if resume_checkpoint is not None:
            # Superseded-epoch guard: resuming from a stale checkpoint
            # would re-copy units a newer rebuild already moved (and log
            # progress records recovery would then prefer).  Recovery
            # itself only reconstructs the highest epoch, so this can
            # only happen when a caller holds on to an old checkpoint
            # object — reject it loudly instead of corrupting progress.
            # An epoch is the log's next LSN when its run started, so a
            # newer epoch's records all lie past this one:
            # from_lsn=resume_checkpoint.epoch reads only the tail.
            for rec in ctx.log.scan(
                from_lsn=resume_checkpoint.epoch,
                types=(RecordType.REBUILD_PROGRESS,),
            ):
                if (
                    rec.index_id == tree.index_id
                    and rec.epoch > resume_checkpoint.epoch
                ):
                    raise RebuildError(
                        f"stale rebuild checkpoint for index "
                        f"{tree.index_id}: epoch {resume_checkpoint.epoch} "
                        f"superseded by epoch {rec.epoch} in the log"
                    )
        if (
            resume_checkpoint is not None
            and resume_after is None
            and start_key is None
            and end_key is None
        ):
            # Restart after the last durable unit.
            resume_after = resume_checkpoint.resume_key()
        # A start_key probe includes its boundary leaf whole; a resume
        # probe never re-copies the leaf it lands in (see
        # _discover_position).
        self._resume_seam = resume_after is not None or start_key is None
        self._end_unit = (
            K.search_ceiling(end_key) if end_key is not None else None
        )
        self._max_pages = max_pages
        # The epoch (the log's next LSN — unique and monotone even across
        # crashes) stamps this run's progress records; recovery keeps only
        # the highest epoch, which is the §7 "superseded rebuild" check.
        self._epoch = ctx.log.next_lsn
        # One durable REBUILD_PROGRESS record per committed batch (it rides
        # the commit's flush) lets recovery resume this run instead of
        # restarting it; a range-restricted run is a repair, not a rebuild
        # to resume, and logs none.
        self._progress_enabled = start_key is None and end_key is None
        ctx.progress.rebuild_started(tree.index_id, self._epoch)
        run_span = ctx.tracer.begin(
            "rebuild.run", index_id=tree.index_id, epoch=self._epoch
        )
        tree._rebuild_active = True  # type: ignore[attr-defined]
        report = RebuildReport()
        self.last_report = report  # kept current even when the run raises
        counters_before = ctx.counters.snapshot()
        log_before = ctx.log.usage_snapshot()
        timer = Timer()
        try:
            with timer:
                probe = (
                    # Strictly after the last copied unit.
                    resume_after + b"\x00"
                    if resume_after is not None
                    else K.search_floor(start_key)
                    if start_key is not None
                    else None
                )
                self._run_to_end(probe, report)
                if self._progress_enabled and report.completed:
                    # Terminal marker: recovery must not resume this epoch.
                    self._log_progress(
                        report.resume_unit or b"", PROGRESS_COMPLETE,
                        flush=True,
                    )
        finally:
            self._state = _RunState()
            if self._scheduler is not None:
                self._scheduler.close()
                self._scheduler = None
                ctx.log.release_window()
            tree._rebuild_active = False  # type: ignore[attr-defined]
            ctx.progress.rebuild_finished(aborted=report.aborted)
            ctx.tracer.finish(
                run_span, completed=report.completed, aborted=report.aborted
            )
        report.wall_seconds = timer.wall_seconds
        report.cpu_seconds = timer.cpu_seconds
        report.counter_deltas = ctx.counters.diff(counters_before)
        usage = ctx.log.usage_diff(log_before, ctx.log.usage_snapshot())
        report.log_bytes = sum(usage["bytes"].values())
        report.log_records = sum(usage["counts"].values())
        report.log_bytes_by_type = dict(usage["bytes"])
        return report

    # ------------------------------------------------------------------ drive

    def _drive(
        self,
        probe: bytes | None,
        chunk_alloc: ChunkAllocator,
        traversal: Traversal,
        report: RebuildReport,
    ) -> None:
        """The transaction loop: from ``probe`` (None = the leftmost
        leaf) to the end of the chain or of the requested range."""
        ctx, config, state = self.ctx, self.config, self._state
        tracer = ctx.tracer
        seam = self._resume_seam
        progress_logged: bytes | None = None
        self.heartbeat = time.monotonic()
        done = False
        while not done:
            txn = ctx.txns.begin()
            txn_new_pages: list[int] = []
            # Old PP pages that absorbed seam rows this transaction: they
            # are keycopy *targets*, so the §3 force must cover them too —
            # a stale target makes redo re-read the source pages, which a
            # repair rebuild may have been launched precisely because they
            # are unreadable on disk.
            txn_force_pages: set[int] = set()
            # What write-behind was handed in its final state; the barrier
            # carries the rest.
            txn_behind: set[int] = set()
            pages_this_txn = 0
            try:
                while pages_this_txn < config.xactsize and not done:
                    # Supervision hooks, at a boundary where no locks or
                    # latches are held: a throttled run sleeps, a failed
                    # one winds down.
                    if self.throttle_sleep:
                        time.sleep(self.throttle_sleep)
                    if state.stop.is_set():
                        if state.crash is not None:
                            # A simulated power failure posted through
                            # fail(): no cleanup.
                            raise CrashPoint(state.crash.name)
                        report.completed = False
                        done = True
                        break
                    if (
                        self._max_pages is not None
                        and report.leaf_pages_rebuilt >= self._max_pages
                    ):
                        report.completed = False
                        done = True
                        break
                    p1 = self._discover_position(txn, probe, seam=seam)
                    if p1 is None:
                        done = True
                        break
                    if self._scheduler is None:
                        self._maybe_pipeline()
                    if self._scheduler is not None:
                        # Publish the position before the run is read:
                        # read-ahead keeps its window beyond it requested.
                        self._scheduler.advance(p1, probe or b"")
                    with tracer.span("rebuild.top_action"):
                        outcome = self._one_top_action(
                            txn, chunk_alloc, traversal, p1, txn_new_pages,
                            report, txn_force_pages, txn_behind,
                        )
                    if outcome is None:
                        continue  # position lost; rediscover and retry
                    resume_unit, reached_end, rebuilt = outcome
                    report.resume_unit = resume_unit
                    probe = resume_unit + b"\x00"
                    seam = True  # in-run probes are resume probes
                    pages_this_txn += rebuilt
                    ctx.progress.add_units(rebuilt)
                    self.heartbeat = time.monotonic()
                    done = reached_end
                    if (
                        self._end_unit is not None
                        and resume_unit >= self._end_unit
                    ):
                        done = True  # the requested range is finished
                # §3 transaction boundary: force new pages, commit, free
                # old.  Pipelined, the force is a barrier on the
                # write-behind queue — the wait below IS the durability
                # point; a writer failure must take the abort path
                # (synchronous flush) before anything is freed, so the
                # invariant is enforced, never assumed.
                force_pages = txn_new_pages + sorted(
                    txn_force_pages.difference(txn_new_pages)
                )
                with tracer.span("rebuild.force", pages=len(force_pages)):
                    if self._scheduler is not None:
                        # The barrier adds what write-behind was not
                        # handed: the last leaf (the PP to be), the
                        # nonleaf pages later top actions kept adding
                        # entries to, a PP that was not this
                        # transaction's own page.
                        self._scheduler.force(
                            [p for p in force_pages if p not in txn_behind]
                        ).wait()
                    else:
                        ctx.buffer.flush_pages(force_pages)
            except CrashPoint:
                raise  # simulated power failure: skip the abort protocol
            except BaseException as exc:
                self._abort(
                    txn,
                    txn_new_pages
                    + sorted(txn_force_pages.difference(txn_new_pages)),
                    report,
                )
                raise RebuildAbortedError(
                    f"online rebuild aborted: {exc}"
                ) from exc
            ctx.syncpoints.fire(
                "rebuild.txn_flushed", new_pages=list(force_pages)
            )
            if (
                self._progress_enabled
                and report.resume_unit is not None
                and report.resume_unit != progress_logged
            ):
                # Durable progress: appended standalone (txn id 0) *after*
                # the §3 force and *before* the commit record, so the
                # commit's flush makes it durable for free and rollback /
                # undo never see it.  Every NTA_END it summarizes precedes
                # it in LSN order — prefix durability keeps it honest even
                # if this commit record itself never reaches disk.
                self._log_progress(report.resume_unit, PROGRESS_RUNNING)
                progress_logged = report.resume_unit
            with tracer.span("rebuild.commit"):
                # The window is held for the foreground's committers; this
                # commit rides along with a round in progress but does not
                # sleep one out on its own.
                ctx.txns.commit(txn, gather=False)
            report.pages_freed += self._free_deallocated_of(txn)
            report.transactions += 1
            ctx.counters.add("rebuild_transactions")
            report.new_leaf_pages += len(txn_new_pages)
            ctx.syncpoints.fire(
                "rebuild.txn_committed", pages=pages_this_txn
            )

    def _maybe_pipeline(self) -> None:
        """Start the I/O threads — and hold the log's group-commit window
        until the run ends — if the device is slow enough to hide.

        Asked before every top action until it says yes: a cold run's own
        descent supplies the samples before its first one, a later pass on
        the same engine finds the previous pass's.  Starting late is safe:
        the transaction boundary's barrier forces whatever write-behind
        was not handed.  Once started a run stays pipelined.
        """
        ctx = self.ctx
        samples = ctx.buffer.service_samples()
        if min(samples, default=0.0) < PIPELINE_MIN_SERVICE:
            return
        self._scheduler = IOScheduler(
            ctx.buffer, counters=ctx.counters,
            window=PIPELINE_WINDOW * self.config.ntasize,
            leaf_order=functools.partial(level1_leaf_order, ctx, self.tree),
            tracer=ctx.tracer,
        ).start()
        ctx.log.hold_window()
        ctx.counters.add("rebuild_pipeline_starts")
        ctx.syncpoints.fire("rebuild.pipeline_started", samples=samples)

    def _run_to_end(self, probe: bytes | None, report: RebuildReport) -> None:
        """Drive the copy loop from ``probe`` and raise what the run's
        state recorded: whatever escapes the loop goes through the same
        channel as a failure posted by :meth:`fail`."""
        ctx, state = self.ctx, self._state
        chunk_alloc = ChunkAllocator(ctx.page_manager)
        try:
            self._drive(
                probe, chunk_alloc, Traversal(ctx, self.tree, scan=True),
                report,
            )
        except BaseException as exc:  # noqa: BLE001 - the one channel
            state.record(exc)
        finally:
            # A finished run has no heartbeat to go stale.
            self.heartbeat = None
            chunk_alloc.close()
        if state.crash is not None:
            # After a simulated power failure no runtime cleanup at all.
            raise state.crash
        if state.error is not None:
            report.aborted, report.completed = True, False
            if isinstance(state.error, RebuildAbortedError):
                raise state.error
            raise RebuildAbortedError(
                f"online rebuild aborted: {state.error}"
            ) from state.error

    # ------------------------------------------------------- progress logging

    def _log_progress(
        self, last_unit: bytes, state: int, flush: bool = False
    ) -> None:
        """Append one standalone ``REBUILD_PROGRESS`` record (txn id 0 —
        invisible to rollback, analysis, and undo).  Only terminal records
        flush explicitly; running records ride the next commit's flush."""
        ctx = self.ctx
        rec = LogRecord(
            type=RecordType.REBUILD_PROGRESS,
            index_id=self.tree.index_id,
            epoch=self._epoch,
            progress_state=state,
            last_unit=last_unit,
        )
        lsn = ctx.log.append(rec)
        ctx.counters.add("rebuild_progress_records")
        if flush:
            ctx.log.flush_to(lsn)

    def _one_top_action(
        self,
        txn: Transaction,
        chunk_alloc: ChunkAllocator,
        traversal: Traversal,
        p1: int,
        txn_new_pages: list[int],
        report: RebuildReport,
        txn_force_pages: set[int],
        txn_behind: set[int],
    ) -> tuple[bytes, bool, int] | None:
        """Run one multipage rebuild top action starting at leaf ``p1``.

        Returns (resume_unit, reached_end, pages_rebuilt), or None when the
        position was lost before any work was logged (caller rediscovers).
        """
        ctx, config, tree = self.ctx, self.config, self.tree
        cleanup: list[int] = []
        held: dict[int, Page] = {}  # of ``cleanup``: PP and sources, pinned
        deallocated: list[int] = []
        nta_new_pages: list[int] = []
        ctx.txns.begin_nta(txn)
        try:
            result = copy_multipage(
                ctx, tree, txn, config, chunk_alloc, p1, cleanup, held,
                deallocated, stop_unit=self._end_unit,
            )
            nta_new_pages.extend(result.new_pages)
            state = PropagationState(
                pp_page=result.pp_page,
                pp_low_unit=result.pp_low_unit,
            )
            run_propagation(
                ctx, tree, txn, result.prop_entries, traversal,
                cleanup, deallocated, nta_new_pages, config, state,
            )
        except PositionLost:
            ctx.txns.abort_nta(txn)
            return None
        except CrashPoint:
            raise  # simulated power failure: no runtime cleanup at all
        except BaseException:
            ctx.latches.release_all()
            ctx.txns.abort_nta(txn)
            give_back(ctx, txn, cleanup, held, aborted=True)
            raise
        ctx.txns.end_nta(txn)
        give_back(ctx, txn, cleanup, held)
        # The deallocated source pages are never latched again and carry
        # no unflushed change but the unlogged bit set + clear: retire them
        # rather than let eviction rewrite pages about to be freed (see
        # BufferPool.retire_page on why no recovery path needs the write).
        # The still-allocated ones (parent, PP, root) stay dirty: the next
        # top action re-dirties them; §3 forces new pages and the seam PP.
        for pid in deallocated:
            ctx.buffer.retire_page(pid)
        if self._scheduler is not None and result.new_pages:
            # Eager write-behind of the leaves this thread is done with,
            # so the writers can clean them while the next top action
            # copies: the new leaves but the last — the next top action's
            # PP, which this thread goes on filling, and a writer
            # serializes a page without its latch — and, filled now, the
            # PP the previous top action of this transaction kept back
            # the same way (the ids are one contiguous stretch).  The
            # transaction boundary's barrier still guarantees durability
            # before any old page is freed.
            behind = result.new_pages[:-1]
            if result.pp_page in txn_new_pages:
                behind.insert(0, result.pp_page)
            self._scheduler.submit_write(behind)
            txn_behind.update(behind)
        txn_new_pages.extend(nta_new_pages)
        if result.pp_page != NO_PAGE:
            # PP received this top action's seam rows (and its next-link
            # flip) through the keycopy record; §3 forces it with the new
            # pages so redo never needs the — possibly unreadable — old
            # source images.
            txn_force_pages.add(result.pp_page)
        report.top_actions += 1
        report.leaf_pages_rebuilt += len(result.old_pages)
        ctx.syncpoints.fire(
            "rebuild.nta_end",
            old_pages=list(result.old_pages),
            new_pages=list(result.new_pages),
            low_unit=result.low_unit,
            resume_unit=result.resume_unit,
        )
        return result.resume_unit, result.reached_end, len(result.old_pages)

    # -------------------------------------------------------------- position

    def _discover_position(
        self,
        txn: Transaction,
        probe: bytes | None,
        seam: bool,
    ) -> int | None:
        """Find the leaf holding the first unit >= ``probe`` (or the
        leftmost leaf when ``probe`` is None); None when past the end or
        past the requested range.

        ``seam`` marks a *resume* probe (``<copied unit> + b"\\x00"``):
        every unit below it already sits in a rebuilt page, so a probe
        leaf that still holds such units is the partially-filled seam
        page — it must become the next top action's PP (continuing to
        fill it), never its P1 (which would re-copy the units below the
        probe).  A range-restricted ``start_key`` probe is the opposite
        case: the boundary leaf is included whole.

        Position tracking is by key, never by page id, which makes the
        rebuild immune to concurrent splits/shrinks between top actions
        and is also what lets a later run resume an interrupted one.
        """
        ctx, tree = self.ctx, self.tree
        if probe is None:
            # Start of the rebuild: the leftmost leaf, unless the index is
            # a single root leaf (nothing to relocate — the root id is
            # stable, so a one-page index is already as packed as it gets).
            first = self._leftmost_leaf(txn)
            if first == tree.root_page_id:
                return None
            return first
        leaf = Traversal(ctx, tree, scan=True).traverse(
            probe, AccessMode.READER, 0, txn
        )
        pos, _found = node.leaf_search(leaf, probe, ctx.counters)
        if pos < leaf.nrows and not (seam and pos > 0):
            low = leaf.rows[pos]
            leaf_id = leaf.page_id
            ctx.release_page(leaf_id)
            if self._end_unit is not None and low > self._end_unit:
                return None  # the remaining leaves are past the range
            if leaf_id == tree.root_page_id:
                return None  # single-leaf tree: nothing to relocate
            return leaf_id
        # Past this leaf's units — or (``seam``) parked on the rebuilt
        # seam page, whose prefix below the probe is already copied: the
        # next leaf is P1 and this one naturally becomes its PP.
        next_id = leaf.next_page
        ctx.release_page(leaf.page_id)
        if next_id == NO_PAGE:
            return None
        nxt = ctx.get_latched(next_id, LatchMode.S, large_io=True, scan=True)
        low = nxt.rows[0] if nxt.rows else None
        ctx.release_page(next_id)
        if (
            self._end_unit is not None
            and low is not None
            and low > self._end_unit
        ):
            return None
        return next_id

    def _leftmost_leaf(self, txn: Transaction) -> int:
        """Latched descent along first children to the leftmost leaf."""
        ctx, tree = self.ctx, self.tree
        trav = Traversal(ctx, tree, scan=True)
        # An empty key unit routes to the leftmost path at every level.
        lo = b"\x00" * (tree.key_len + 6)
        leaf = trav.traverse(lo, AccessMode.READER, 0, txn)
        leaf_id = leaf.page_id
        ctx.release_page(leaf_id)
        return leaf_id

    # ----------------------------------------------------------------- abort

    def _abort(
        self,
        txn: Transaction,
        txn_new_pages: list[int],
        report: RebuildReport,
    ) -> None:
        """§4.1.3 abort path: keep completed top actions, free their pages.

        The in-flight top action was already rolled back by the caller;
        here the transaction itself aborts (a no-op for completed NTAs,
        which rollback skips via their dummy CLRs), new pages are flushed,
        and pages deallocated by completed top actions are freed.

        If the flush itself fails (the disk is the reason we are aborting —
        e.g. a PermanentIOError), the §3 ordering still holds: the old
        pages stay DEALLOCATED, *not* freed, because freeing them before
        the new pages are durable is exactly what the paper forbids.
        Recovery (or the next checkpoint's flush) makes the new pages
        durable and then releases them.
        """
        ctx = self.ctx
        ctx.latches.release_all()
        flushed = False
        try:
            ctx.buffer.flush_pages(txn_new_pages)
            flushed = True
        except CrashPoint:
            raise
        except BaseException:
            pass  # keep aborting; see docstring — old pages are not freed
        ctx.txns.abort(txn)
        if flushed:
            report.pages_freed += self._free_deallocated_of(txn)
        report.aborted = True
        ctx.syncpoints.fire("rebuild.aborted")

    # ---------------------------------------------------------------- freeing

    def _free_deallocated_of(self, txn: Transaction) -> int:
        """§4.1.3: free this transaction's deallocated pages via a log scan."""
        ctx = self.ctx
        freed = 0
        for rec in ctx.log.scan(
            from_lsn=txn.begin_lsn,
            types=(RecordType.DEALLOC,),
            txn_id=txn.txn_id,
        ):
            for pid in rec.page_ids or [rec.page_id]:
                if ctx.page_manager.state(pid) is PageState.DEALLOCATED:
                    ctx.page_manager.free(pid)
                    freed += 1
        return freed

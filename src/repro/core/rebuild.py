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

**One driver, any number of segments.**  Every run is a list of
:class:`~repro.core.partition.ResumeSegment` specs, each driven by this
same transaction loop (``_worker_main`` → ``_drive``) under its own
transactions, all sharing the one I/O scheduler: a single unbounded spec
for ``parallel_workers == 1`` and for any restricted, sliced or
``resume_after`` run; the level-1 plan of :mod:`repro.core.partition` for
a fresh parallel run; the recorded tiling for one resumed from a
checkpoint.  One pending spec runs on the calling thread, several on one
thread each.  Safety needs nothing new — address locks, SPLIT/SHRINK bits
and the §3 flush-then-free ordering already make top actions on disjoint
ranges independent; the only coordination is at partition seams:

* a worker's copy run never crosses its ``stop_before`` bound (checked on
  the next leaf before it is locked or bitted — see
  :func:`~repro.core.copy_phase._acquire_page`);
* the worker *owning* the left seam page finishes the boundary top action;
  its right-hand neighbor, finding its PP busy, waits on the owner's
  :class:`~repro.storage.io_scheduler.CompletionToken` instead of camping
  in the lock manager;
* each non-leftmost worker leaves its first PP's content untouched
  (``fill_pp=False``) so seam pages have exactly one packer.

Cross-worker propagation cannot deadlock: within a top action levels are
processed strictly bottom-up and, within a level, groups left-to-right, so
two neighbors can contend only on a single seam parent per level — a
one-resource wait, never a cycle (and the §5.5 left-sibling redirection is
strictly conditional).

**One failure channel.**  Every run has one :class:`_RunState`; the first
crash or error recorded in it wins.  A :class:`CrashPoint` (simulated
power failure) in any segment stops the whole run with no cleanup at all.
An ordinary failure inside a top action aborts that segment's transaction
under §4.1.3; :meth:`OnlineRebuild.fail` from another thread records the
error without touching a transaction.  Either way every segment winds
down at its next top-action boundary — completed top actions forced,
committed, their old pages freed — and ``run`` raises
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
from repro.core.partition import (
    ResumeSegment,
    plan_partitions,
    segments_from_checkpoint,
)
from repro.core.propagation import PropagationState, run_propagation
from repro.errors import RebuildAbortedError, RebuildError
from repro.stats.counters import Timer
from repro.storage.io_scheduler import CompletionToken, IOScheduler
from repro.storage.page import NO_PAGE, Page
from repro.storage.page_manager import ChunkAllocator, PageState
from repro.wal.records import (
    PROGRESS_COMPLETE,
    PROGRESS_RUNNING,
    PROGRESS_SEGMENT_DONE,
    LogRecord,
    RecordType,
)
from repro.wal.recovery import RebuildCheckpoint

WATCHDOG_TIMEOUT = 60.0
"""Seconds without top-action progress before a worker is considered
stuck: the seam-handoff wait raises cleanly past this deadline, and the
:class:`~repro.core.supervisor.RebuildSupervisor` watchdog fails a worker
whose heartbeat is older than this."""


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
    """Highest leaf unit of the contiguous copied prefix: everything at or
    below it sits in a rebuilt page.  When ``completed`` is False (a
    ``max_pages`` slice ended early, a run failed), pass this as
    ``resume_after`` to the next ``run`` call to continue where this one
    stopped — the §7 "incremental reorganization" mode that sidefile
    schemes cannot do."""
    parallel_workers: int = 1
    """Segments the run actually drove (1 = on the calling thread)."""
    partition_segments: int = 0
    """Segments of the tiling the planner or the checkpoint produced (0:
    no tiling — one worker, or a restricted / sliced run)."""
    worker_reports: list["RebuildReport"] = field(default_factory=list)
    """Per-segment sub-reports; the counts above are their sums."""


class _RunState:
    """Stop/failure state of one run, shared by all its segments.

    ``stop`` tells every segment to wind down at its next top-action
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
        # this instance — unsupervised they cost three attribute checks
        # per top action and nothing else).
        self.throttle_sleep: float = 0.0
        """Seconds slept at each top-action boundary; the supervisor's
        ladder sets it per attempt and its monitor widens and decays it at
        runtime to degrade gracefully."""
        self.last_report: RebuildReport | None = None
        """The report of the most recent ``run`` (kept current even when
        the run raised — its ``resume_unit`` seeds a supervised retry)."""
        self._gate = threading.Event()
        self._gate.set()  # set = running; cleared = paused by the supervisor
        self._beats: dict[int, float] = {}
        """Ordinal of each segment still running → ``time.monotonic()`` of
        its last completed top action (the supervisor watchdog's heartbeat
        source)."""
        self._state = _RunState()  # of the next run; replaced when it ends
        self._epoch = 0
        self._resume_seam = False
        self._progress_enabled = False
        self._run_span = None  # root trace span of the current run

    # ------------------------------------------------------------ supervision

    def fail(self, exc: BaseException) -> None:
        """Fail the run cleanly from another thread (supervisor watchdog):
        every segment winds down at its next top-action boundary and
        ``run`` raises :class:`RebuildAbortedError` chained from ``exc``."""
        self._state.record(exc)

    def pause(self) -> None:
        """Suspend the copy phase at the next top-action boundary (locks
        and latches are never held across the gate)."""
        self._gate.clear()

    def unpause(self) -> None:
        """Resume a paused copy phase."""
        self._gate.set()

    @property
    def paused(self) -> bool:
        return not self._gate.is_set()

    def heartbeats(self) -> dict[int, float]:
        """Snapshot of per-partition last-progress timestamps
        (``time.monotonic()`` clock)."""
        return dict(self._beats)

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

        ``config.parallel_workers > 1`` tiles a *full* rebuild into that
        many segments.  Any of the restrictions above makes the run one
        segment (a restricted range is one segment already, and slice
        accounting is inherently sequential).

        ``resume_checkpoint`` — a :class:`RebuildCheckpoint` recovered
        from durable ``REBUILD_PROGRESS`` records — continues an
        interrupted rebuild: a one-worker run restarts after the
        checkpoint's contiguous covered prefix, and a tiled one relaunches
        the recorded tiling, every unfinished segment from its own highest
        durable unit.  A checkpoint for another index, or one whose
        rebuild completed, is ignored (the epoch check already happened at
        recovery: only the highest epoch's records survive
        reconstruction).

        A failure — in a top action, or posted through :meth:`fail` —
        raises :class:`RebuildAbortedError` chained from its cause after
        every segment has wound down; ``last_report.resume_unit`` then
        seeds a retry.
        """
        tree, ctx, config = self.tree, self.ctx, self.config
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
            for rec in ctx.log.scan(types=(RecordType.REBUILD_PROGRESS,)):
                if (
                    rec.index_id == tree.index_id
                    and rec.epoch > resume_checkpoint.epoch
                ):
                    raise RebuildError(
                        f"stale rebuild checkpoint for index "
                        f"{tree.index_id}: epoch {resume_checkpoint.epoch} "
                        f"superseded by epoch {rec.epoch} in the log"
                    )
        tiled = config.parallel_workers > 1 and all(
            v is None for v in (start_key, end_key, max_pages, resume_after)
        )
        if (
            resume_checkpoint is not None
            and not tiled
            and resume_after is None
            and start_key is None
            and end_key is None
        ):
            # One-segment resume: restart after the durable contiguous
            # prefix.
            resume_after = resume_checkpoint.resume_key()
        # A start_key probe includes its boundary leaf whole; every other
        # probe (a resume's, a segment's) never re-copies the leaf it
        # lands in (see _discover_position).
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
        tracer = ctx.tracer
        self._run_span = (
            tracer.begin(
                "rebuild.run",
                index_id=tree.index_id,
                epoch=self._epoch,
                workers=config.parallel_workers if tiled else 1,
            )
            if tracer.enabled
            else None
        )
        tree._rebuild_active = True  # type: ignore[attr-defined]
        report = RebuildReport()
        self.last_report = report  # kept current even when the run raises
        counters_before = ctx.counters.snapshot()
        log_before = ctx.log.usage_snapshot()
        timer = Timer()
        # A nonzero group_commit_window lets the rebuild's commits (and any
        # concurrent user commits) share physical log flushes.
        ctx.group_commit_hold.acquire(config.group_commit_window)
        # Scan resistance (issue 8): enable the pool's probationary ring
        # for the rebuild's duration so this scan's reads, prefetches, and
        # new-page allocations recycle ring frames instead of sweeping the
        # OLTP working set out of the protected LRU.
        ctx.ring_hold.acquire(config.ring_frames)
        try:
            with timer:
                if tiled:
                    specs = self._plan(resume_checkpoint, report)
                else:
                    specs = [
                        ResumeSegment(
                            ordinal=0,
                            probe=(
                                # Strictly after the last copied unit.
                                resume_after + b"\x00"
                                if resume_after is not None
                                else K.search_floor(start_key)
                                if start_key is not None
                                else None
                            ),
                        )
                    ]
                pending = [spec for spec in specs if not spec.done]
                # Pipelining (issue 3): a nonzero pipeline_depth runs the
                # §3 forces through a background writer and read-ahead
                # through background readers.  Each segment driven is one
                # read-ahead consumer with a window of pipeline_depth top
                # actions, which the scheduler caps by what the pool's
                # ring holds.
                if config.pipeline_depth > 0:
                    self._scheduler = IOScheduler(
                        ctx.buffer, counters=ctx.counters,
                        window=config.pipeline_depth * config.ntasize,
                        consumers=max(1, len(pending)),
                        leaf_order=functools.partial(
                            level1_leaf_order, ctx, tree
                        ),
                        tracer=tracer,
                    ).start()
                self._launch(specs, pending, report)
                if self._progress_enabled and report.completed:
                    # Terminal marker: recovery must not resume this epoch.
                    self._log_progress(
                        0, b"", report.resume_unit or b"",
                        PROGRESS_COMPLETE, flush=True,
                    )
        finally:
            self._state = _RunState()
            if self._scheduler is not None:
                self._scheduler.close()
                self._scheduler = None
            ctx.group_commit_hold.release(config.group_commit_window)
            ctx.ring_hold.release(config.ring_frames)
            tree._rebuild_active = False  # type: ignore[attr-defined]
            ctx.progress.rebuild_finished(aborted=report.aborted)
            if self._run_span is not None:
                self._run_span.attrs = dict(
                    self._run_span.attrs or {},
                    completed=report.completed,
                    aborted=report.aborted,
                )
                tracer.finish(self._run_span)
                self._run_span = None
        report.wall_seconds = timer.wall_seconds
        report.cpu_seconds = timer.cpu_seconds
        report.counter_deltas = ctx.counters.diff(counters_before)
        usage = ctx.log.usage_diff(log_before, ctx.log.usage_snapshot())
        report.log_bytes = sum(usage["bytes"].values())
        report.log_records = sum(usage["counts"].values())
        report.log_bytes_by_type = dict(usage["bytes"])
        return report

    def _plan(
        self, checkpoint: RebuildCheckpoint | None, report: RebuildReport
    ) -> list[ResumeSegment]:
        """The tiling of a full ``parallel_workers > 1`` run: the one a
        ``checkpoint`` recorded, or — without one, or when the recorded
        tiling has a coverage gap (a worker that never reported), which is
        correct to replan, just not incremental — a fresh level-1 plan.
        """
        ctx = self.ctx
        specs = (
            segments_from_checkpoint(checkpoint)
            if checkpoint is not None
            else None
        )
        if specs is not None:
            # Seed with the durable contiguous prefix so a fully-copied
            # resume (every segment done, only the COMPLETE record
            # missing) still reports an honest resume_unit.
            report.resume_unit = checkpoint.resume_key()
            ctx.syncpoints.fire(
                "rebuild.partition.resumed",
                segments=len(specs),
                pending=sum(1 for spec in specs if not spec.done),
                epoch=checkpoint.epoch,
            )
        else:
            with ctx.tracer.span("rebuild.plan"):
                specs = plan_partitions(
                    ctx, self.tree, self.config.parallel_workers
                )
            ctx.syncpoints.fire(
                "rebuild.partition.planned", segments=len(specs)
            )
            ctx.counters.add("partition_segments", len(specs))
        report.partition_segments = len(specs)
        return specs

    # ------------------------------------------------------------------ drive

    def _drive(
        self,
        spec: ResumeSegment,
        seam_token: CompletionToken | None,
        chunk_alloc: ChunkAllocator,
        traversal: Traversal,
        report: RebuildReport,
    ) -> None:
        """The transaction loop over one segment: from ``spec.probe`` up
        to ``spec.stop_before``.  ``seam_token`` is the left neighbor's
        completion token, waited on (briefly, repeatedly) when the seam PP
        is busy."""
        ctx, config, state = self.ctx, self.config, self._state
        tracer = ctx.tracer
        partition, stop_before = spec.ordinal, spec.stop_before
        probe = spec.probe
        seam = self._resume_seam
        # The leftmost segment owns its first PP outright; every other
        # segment's first PP is the left neighbor's seam page, whose
        # content the first top action leaves to that neighbor's packing
        # — unless this segment resumes past durable progress of its own,
        # in which case its first PP is a page it itself already rebuilt
        # and packing it further is the standard resume situation.
        filled_one = partition == 0 or probe != spec.start_unit
        progress_logged: bytes | None = None
        self._beats[partition] = time.monotonic()
        ctx.progress.phase_change("copy")
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
                    # latches are held: a throttled run sleeps, a paused
                    # one waits on the gate, a failed one winds down.
                    if self.throttle_sleep:
                        time.sleep(self.throttle_sleep)
                    if not self._gate.is_set():
                        ctx.syncpoints.fire("rebuild.paused")
                        while not (
                            self._gate.wait(0.05) or state.stop.is_set()
                        ):
                            pass  # a crash or a failure cuts the wait short
                    if state.stop.is_set():
                        if state.crash is not None:
                            # A peer hit a simulated power failure: this
                            # worker's power is out too — no cleanup.
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
                    p1 = self._discover_position(
                        txn, probe, stop_before, seam=seam
                    )
                    if p1 is None:
                        done = True
                        break
                    if self._scheduler is not None:
                        # Publish the position before the run is read:
                        # read-ahead keeps its window beyond it requested.
                        self._scheduler.advance(partition, p1, probe or b"")
                    with tracer.span(
                        "rebuild.top_action", partition=partition
                    ):
                        outcome = self._one_top_action(
                            txn, chunk_alloc, traversal, p1, txn_new_pages,
                            report, txn_force_pages, txn_behind,
                            stop_before=stop_before,
                            fill_pp=filled_one,
                            pp_busy_wait=(
                                # Only the seam top action (the worker's
                                # first) can find its PP held by the left
                                # neighbor; afterwards PP is this worker's
                                # own page and the default instant-lock
                                # wait applies.
                                self._seam_wait(seam_token)
                                if not filled_one
                                else None
                            ),
                        )
                    if outcome is None:
                        continue  # position lost; rediscover and retry
                    filled_one = True
                    resume_unit, reached_end, rebuilt = outcome
                    report.resume_unit = resume_unit
                    probe = resume_unit + b"\x00"
                    seam = True  # in-run probes are resume probes
                    pages_this_txn += rebuilt
                    ctx.progress.add_units(rebuilt, worker=partition)
                    self._beats[partition] = time.monotonic()
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
                with tracer.span(
                    "rebuild.force", pages=len(force_pages),
                    partition=partition,
                ):
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
                self._log_progress(
                    partition, spec.start_unit or b"", report.resume_unit,
                    PROGRESS_RUNNING,
                )
                progress_logged = report.resume_unit
            with tracer.span("rebuild.commit", partition=partition):
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

    # --------------------------------------------------------------- segments

    def _launch(
        self,
        specs: list[ResumeSegment],
        pending: list[ResumeSegment],
        report: RebuildReport,
    ) -> None:
        """Drive every ``pending`` spec of the tiling ``specs`` — on the
        calling thread when there is one, on a thread each otherwise —
        merge their reports, and raise what the run's state recorded."""
        ctx, state = self.ctx, self._state
        tokens = [CompletionToken() for _ in specs]
        reports = [RebuildReport() for _ in specs]
        for spec in specs:
            if spec.done:
                # Finished segment: nothing to run; its right-hand
                # neighbor must not wait on the seam.
                tokens[spec.ordinal].complete()
        report.parallel_workers = max(1, len(pending))
        if len(pending) == 1:
            (spec,) = pending
            self._worker_main(spec, tokens, reports[spec.ordinal])
        else:
            threads = [
                threading.Thread(
                    target=self._worker_main,
                    args=(spec, tokens, reports[spec.ordinal]),
                    name=f"rebuild-worker-{spec.ordinal}",
                    daemon=True,
                )
                for spec in pending
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        ctx.progress.phase_change("merge")
        merge_span = (
            ctx.tracer.begin("rebuild.merge", workers=len(pending))
            if ctx.tracer.enabled
            else None
        )
        for sub in reports:  # in key order
            report.leaf_pages_rebuilt += sub.leaf_pages_rebuilt
            report.new_leaf_pages += sub.new_leaf_pages
            report.transactions += sub.transactions
            report.top_actions += sub.top_actions
            report.pages_freed += sub.pages_freed
            report.aborted = report.aborted or sub.aborted
            # resume_unit ends the *contiguous* copied prefix: it advances
            # through segments in key order up to the first unfinished
            # one — a retry resumes after it, so progress a later segment
            # made beyond a gap must not count.
            if (
                report.completed
                and sub.resume_unit is not None
                and (
                    report.resume_unit is None
                    or sub.resume_unit > report.resume_unit
                )
            ):
                report.resume_unit = sub.resume_unit
            report.completed = report.completed and sub.completed
        if state.error is not None:
            report.aborted, report.completed = True, False
        report.worker_reports = reports
        ctx.syncpoints.fire(
            "rebuild.partition.merged",
            completed=report.completed,
            aborted=report.aborted,
        )
        if merge_span is not None:
            ctx.tracer.finish(merge_span)
        if state.crash is not None:
            raise state.crash
        if state.error is not None:
            if isinstance(state.error, RebuildAbortedError):
                raise state.error
            raise RebuildAbortedError(
                f"online rebuild aborted: {state.error}"
            ) from state.error

    def _worker_main(
        self,
        spec: ResumeSegment,
        tokens: list[CompletionToken],
        report: RebuildReport,
    ) -> None:
        """Drive one segment (``spec.ordinal``): the body of a worker
        thread, or of ``run`` itself when no other segment is pending.
        Nothing escapes — a crash or an error goes to the run's state."""
        ctx, state = self.ctx, self._state
        ordinal = spec.ordinal
        chunk_alloc = ChunkAllocator(ctx.page_manager)
        traversal = Traversal(ctx, self.tree, scan=True)
        tracer = ctx.tracer
        # Cross-thread parenting: a worker thread's span stack is empty, so
        # the worker span is parented explicitly under the driver's
        # rebuild.run span; everything the worker emits nests under it.
        worker_span = (
            tracer.begin(
                "rebuild.worker", parent=self._run_span, worker=ordinal
            )
            if tracer.enabled
            else None
        )
        try:
            ctx.syncpoints.fire(
                "rebuild.partition.worker_start", worker=ordinal
            )
            self._drive(
                spec,
                tokens[ordinal - 1] if ordinal > 0 else None,
                chunk_alloc, traversal, report,
            )
            if (
                self._progress_enabled
                and len(tokens) > 1
                and report.completed
            ):
                # Durable (at the next flush) marker: this segment needs
                # no further work even though the run as a whole may not
                # have finished.  A lone segment needs none: the run's
                # COMPLETE record follows at once.
                self._log_progress(
                    ordinal, spec.start_unit or b"",
                    report.resume_unit or b"", PROGRESS_SEGMENT_DONE,
                )
            ctx.syncpoints.fire(
                "rebuild.partition.worker_done", worker=ordinal
            )
        except BaseException as exc:  # noqa: BLE001 - thread boundary
            # After a simulated power failure no runtime cleanup at all:
            # peers see it in the state and "lose power" at their next
            # top-action boundary.
            state.record(exc)
        finally:
            # A finished segment has no heartbeat to go stale.
            self._beats.pop(ordinal, None)
            # The right-hand neighbor may be waiting on this token;
            # complete it on *every* exit (a failed worker released its
            # locks during abort, and a crashed one stops the run).
            tokens[ordinal].complete()
            if tracer.enabled:
                tracer.event("rebuild.seam_release", worker=ordinal)
            try:
                ctx.syncpoints.fire(
                    "rebuild.partition.seam_released", worker=ordinal
                )
            except BaseException as exc:  # noqa: BLE001 - thread boundary
                state.record(exc)
            chunk_alloc.close()
            if worker_span is not None:
                tracer.finish(worker_span)

    def _seam_wait(self, token: CompletionToken | None):
        """Build the ``pp_busy_wait`` callable for a segment's seam top
        action: while the left neighbor still owns the seam PP, wait on
        its completion token (briefly, re-checking for a crash elsewhere
        in the run) instead of camping in the lock manager's instant-wait
        loop.

        The wait carries a deadline (``WATCHDOG_TIMEOUT`` from the first
        busy poll): if the left neighbor dies without completing its token
        *and* without posting a crash or error, this segment fails cleanly
        instead of hanging the run forever."""
        ctx, state = self.ctx, self._state
        tracer = ctx.tracer
        deadline = 0.0
        span = None

        def _finish_span() -> None:
            nonlocal span
            if span is not None:
                done, span = span, None
                tracer.finish(done)
                ctx.metrics.histogram("seam_wait_seconds").record(
                    done.duration
                )

        def busy_wait() -> bool:
            nonlocal deadline, span
            if state.crash is not None:
                raise CrashPoint(state.crash.name)
            if token is None or token.done:
                # Left neighbor finished (or aborted and released its
                # locks): the ordinary instant-lock wait takes over.
                _finish_span()
                return False
            now = time.monotonic()
            if not deadline:
                deadline = now + WATCHDOG_TIMEOUT
                if tracer.enabled:
                    # The seam wait is a series of discrete busy polls;
                    # one span covers the whole episode, opened at the
                    # first busy poll and closed when the token is done.
                    span = tracer.begin("rebuild.seam_wait")
            elif now >= deadline:
                ctx.counters.add("seam_wait_timeouts")
                _finish_span()
                raise RebuildError(
                    f"seam wait exceeded WATCHDOG_TIMEOUT "
                    f"({WATCHDOG_TIMEOUT:.1f}s) without the left neighbor "
                    "completing its segment"
                )
            ctx.counters.add("partition_seam_waits")
            token.wait_done(0.05)
            return True

        return busy_wait

    # ------------------------------------------------------- progress logging

    def _log_progress(
        self,
        partition: int,
        start_unit: bytes,
        last_unit: bytes,
        state: int,
        flush: bool = False,
    ) -> None:
        """Append one standalone ``REBUILD_PROGRESS`` record (txn id 0 —
        invisible to rollback, analysis, and undo).  Only terminal records
        flush explicitly; running records ride the next commit's flush."""
        ctx = self.ctx
        rec = LogRecord(
            type=RecordType.REBUILD_PROGRESS,
            index_id=self.tree.index_id,
            epoch=self._epoch,
            partition=partition,
            progress_state=state,
            start_unit=start_unit,
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
        stop_before: bytes | None,
        fill_pp: bool,
        pp_busy_wait,
    ) -> tuple[bytes, bool, int] | None:
        """Run one multipage rebuild top action starting at leaf ``p1``.

        Returns (resume_unit, reached_end, pages_rebuilt), or None when the
        position was lost before any work was logged (caller rediscovers).
        ``stop_before`` / ``fill_pp`` / ``pp_busy_wait`` are the seam
        knobs, passed through to :func:`copy_multipage`.
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
                stop_before=stop_before,
                fill_pp=fill_pp,
                pp_busy_wait=pp_busy_wait,
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
        stop_before: bytes | None,
        seam: bool,
    ) -> int | None:
        """Find the leaf holding the first unit >= ``probe`` (or the
        leftmost leaf when ``probe`` is None); None when past the end,
        past the requested range, or at/past the partition seam
        (``stop_before``, exclusive — a leaf whose first unit reaches it
        belongs to the right-hand worker).

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
            first = leaf.rows[0]
            leaf_id = leaf.page_id
            ctx.release_page(leaf_id)
            if self._end_unit is not None and low > self._end_unit:
                return None  # the remaining leaves are past the range
            if stop_before is not None and first >= stop_before:
                return None  # the segment is finished
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
        if (
            stop_before is not None
            and low is not None
            and low >= stop_before
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
            if rec.txn_id != txn.txn_id or rec.type is not RecordType.DEALLOC:
                continue
            for pid in rec.page_ids or [rec.page_id]:
                if ctx.page_manager.state(pid) is PageState.DEALLOCATED:
                    ctx.page_manager.free(pid)
                    freed += 1
        return freed

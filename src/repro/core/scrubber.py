"""Online integrity scrubber: detect page rot early, heal it in place.

The paper's protocols keep the index *structurally* correct under any
interleaving of splits, shrinks and the online rebuild — but a disk that
rots a committed page underneath a correct structure is outside their
scope.  This module closes that gap with a background **scrubber** that
walks the leaf level the way a §2.5 scan does — short S latches,
repositioning by key whenever a concurrent split, shrink or rebuild seam
moves the ground under it.  It takes the leaves a level-1 page at a time
from :meth:`~repro.btree.traversal.Traversal.level1`, the read the
rebuild's read-ahead uses too, and goes on to the next page at the bound
each read returns.  For every leaf it visits it verifies:

* the stored slot's CRC trailer (the disk's own ``verdict`` of what its
  ``read_physical`` hook returns, so rot hiding behind a clean resident
  frame is found *before* eviction makes it user-visible);
* the page's local invariants (level, strictly increasing units) and its
  key-range containment against a latched parent snapshot — the same
  checks :func:`repro.btree.verify.leaf_local_problems` runs offline.

A concurrent verifier must never cry wolf: pages in protocol states
(SPLIT / SHRINK / OLDPGOFSPLIT bits) are skipped, stale snapshot entries
(a child freed or recycled between the parent snapshot and the child
latch) cause repositioning rather than reports, and a containment
suspect is only reported after re-confirmation against a *fresh* parent
snapshot with parent and child latched together — closing the window
where a deleted separator legitimately widens a child's range.

On a confirmed defect the scrubber escalates through a repair ladder:

1. **transient / absent** — an image that re-reads clean, or was never
   written (WAL still covers it), is not a defect at all;
2. **WAL replay** — if the durable log still holds the page's birth
   (``ALLOC``/``ALLOCRUN``) and every later record touching it is
   single-page redo, the page is reconstructed in place under an X latch
   via the recovery machinery and re-flushed;
3. **quarantine + write-back** — otherwise the damaged key range is
   fenced in the engine's :class:`~repro.quarantine.QuarantineMap`
   (reads/writes fail fast with ``QuarantinedRangeError``), durably,
   before anything else is tried.  If the page still has a resident
   frame — the good copy the rot was hiding behind — the frame is
   marked dirty under an X latch, forced after the latch is released,
   and the stored image re-read and verified; the fence lifts only once
   that verdict is clean.  With no resident frame, or a write-back that
   does not reach the device, the fence *stands* (bounded degradation).
   The write-back logs nothing and copies nothing out of the rotted
   slot, so recovery never needs that slot to be readable, and nothing
   in it is specific to leaves.

The walk is paced by the :class:`~repro.core.pacer.Pacer` it is
given: between parent batches it steps the pacer and sleeps its delay,
which widens while the concurrent OLTP workload's p99 breaches the
pacer's budget and decays back when calm — the scrubber sheds before it
is shed.  ``scrub.*`` syncpoints make every decision crash-schedulable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.btree import node
from repro.btree.traversal import AccessMode, Level1, Traversal
from repro.btree.verify import leaf_local_problems
from repro.concurrency.latch import LatchMode
from repro.concurrency.syncpoints import CrashPoint
from repro.core.pacer import Pacer
from repro.errors import (
    ChecksumError,
    RebuildError,
    ScrubError,
    StorageError,
)
from repro.storage.page import NO_PAGE, PageFlag, PageType
from repro.storage.page_manager import PageState
from repro.testing import invariants
from repro.wal.apply import (
    BARRIER_REDO,
    SINGLE_PAGE_REDO,
    ApplyContext,
    redo_page_queue,
    redo_record,
)
from repro.wal.records import LogRecord, RecordType

# Fresh parent snapshots a persistently-stale child survives before the
# walk calls the reference dangling instead of retrying forever.
_STALE_RETRIES = 3
# Physical re-reads before a CRC mismatch counts as rot (absorbs races
# with a concurrent flush of the same page), and the sleep between them.
CRC_RETRIES = 3
CRC_RETRY_SLEEP = 0.001
# Background mode: seconds between full passes.
PASS_INTERVAL = 0.25
# Safety cap: a pass gives up after this many times ``allocated_pages``
# parent batches (a pathological churn storm, not a hang).
MAX_LOOP_FACTOR = 6


@dataclass(frozen=True)
class ScrubConfig:
    """Policy of one :class:`Scrubber`."""

    repair: bool = True
    """Run the repair ladder on confirmed defects (False = detect and
    report only)."""


@dataclass
class ScrubDefect:
    """One confirmed integrity defect and what the ladder did about it."""

    page_id: int
    index_id: int
    kind: str
    """``checksum`` (stored image fails its CRC), ``unreadable`` (a
    required read raised), or ``structure`` (local invariant violation
    that survived re-confirmation)."""
    problems: list[str]
    start_sep: bytes
    """Low separator of the damaged child's range (``b""`` = unbounded)."""
    end_sep: bytes
    """High separator (``b""`` = unbounded above)."""
    action: str = "reported"
    """``replayed`` / ``flushed`` (ladder 2), ``repaired`` (ladder 3
    write-back verified, quarantine lifted), ``quarantine-stands`` (ladder
    3 had no good copy to write back; the fence remains), ``unrepaired``
    (already handled this pass), or ``reported`` (repair disabled, or
    structural defect — never auto-repaired)."""
    error: str = ""


@dataclass
class ScrubReport:
    """What one scrub pass saw and did."""

    epoch: int = 0
    pages_checked: int = 0
    pages_skipped: int = 0
    crc_checked: int = 0
    crc_absent: int = 0
    repositions: int = 0
    throttles: int = 0
    batches: int = 0
    complete: bool = False
    """True when the pass reached the rightmost leaf."""
    defects: list[ScrubDefect] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.defects


class Scrubber:
    """Pacing-aware online integrity scrubber for one index.

    One scrubber serves one tree; ``run_pass`` drives a single full walk
    synchronously, :meth:`start` / :meth:`stop` run passes on a
    background thread.  Repairs run inline on the scrub thread.
    """

    def __init__(
        self,
        tree,
        config: ScrubConfig | None = None,
        pacer: Pacer | None = None,
    ) -> None:
        self.tree = tree
        self.ctx = tree.ctx
        self.config = config if config is not None else ScrubConfig()
        self.pacer = pacer if pacer is not None else Pacer()
        """Steps between parent batches."""
        self.passes: list[ScrubReport] = []
        self.segment_epochs: dict[bytes, int] = {}
        """Low separator of each parent segment -> epoch of the last pass
        that scrubbed it (staleness map for monitoring)."""
        self.last_error: BaseException | None = None
        self._epoch = 0
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Run passes on a background thread until :meth:`stop`."""
        if self._thread is not None:
            raise ScrubError("scrubber already running")
        self._halt.clear()
        self._thread = threading.Thread(
            target=self._loop, name="integrity-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._halt.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    def _loop(self) -> None:
        while not self._halt.is_set():
            try:
                self.run_pass()
            except CrashPoint:
                raise
            except Exception as exc:  # noqa: BLE001 - scrubbing must not die
                self.last_error = exc
            self._halt.wait(PASS_INTERVAL)

    # ----------------------------------------------------------------- pass

    def run_pass(self) -> ScrubReport:
        """Walk the whole leaf level once; returns the pass report."""
        ctx = self.ctx
        self._epoch += 1
        report = ScrubReport(epoch=self._epoch)
        ctx.counters.add("scrub_passes")
        ctx.progress.scrub_pass_started()
        pass_span = ctx.tracer.begin("scrub.pass", epoch=self._epoch)
        ctx.syncpoints.fire("scrub.pass_start", epoch=self._epoch)
        handled: set[int] = set()
        stale_counts: dict[int, int] = {}
        position = b""
        cap = MAX_LOOP_FACTOR * (
            len(ctx.page_manager.allocated_pages()) + 8
        )
        walk = Traversal(ctx, self.tree, scan=True)
        batches = 0
        while batches < cap:
            batches += 1
            report.batches = batches
            txn = ctx.txns.begin()  # owns the instant waits, logs nothing
            try:
                snap = walk.level1(position, txn)
            finally:
                ctx.txns.commit(txn)
            if snap is None:
                self._scrub_root_leaf(report, handled)
                report.complete = True
                break
            ctx.syncpoints.fire(
                "scrub.batch", parent=snap.page_id, children=len(snap.entries)
            )
            segment = node.entry_key(snap.entries[0])
            self.segment_epochs[segment] = self._epoch
            position = self._scrub_children(
                report, handled, stale_counts, snap, position
            )
            if position is None:
                report.complete = True
                break
            self._pace(report)
        if report.complete and report.clean:
            # A complete pass that saw no defects just re-confirmed every
            # standing fence clean — lift them.  This is how a quarantine
            # re-fenced by recovery (its LIFT record missed the last
            # flush before a crash) gets released after the fact.
            for qrange in ctx.quarantine.ranges(self.tree.index_id):
                ctx.quarantine.lift(qrange)
                ctx.counters.add("scrub_quarantine_lifts")
                ctx.syncpoints.fire(
                    "scrub.lift", page=NO_PAGE, start=qrange.start_unit
                )
        self.passes.append(report)
        ctx.progress.scrub_leaves(report.pages_checked)
        ctx.progress.scrub_pass_finished()
        ctx.tracer.finish(
            pass_span,
            checked=report.pages_checked,
            defects=len(report.defects),
            complete=report.complete,
        )
        ctx.syncpoints.fire(
            "scrub.pass_done",
            epoch=self._epoch,
            checked=report.pages_checked,
            defects=len(report.defects),
            complete=report.complete,
        )
        return report

    # ------------------------------------------------------------- the walk

    def _scrub_children(
        self,
        report: ScrubReport,
        handled: set[int],
        stale_counts: dict[int, int],
        snap: Level1,
        position: bytes,
    ) -> bytes | None:
        """Scrub the children of one level-1 read against its bounds.

        The bounds are *supersets* of each child's true range under later
        concurrent splits (splits only narrow), which is what makes
        checking children against a released read sound.  Returns the
        position of the next read — the level-1 read's ``bound`` once the
        last child is done — or ``None`` past the right edge of the
        index.  Staleness and in-place repairs return the *unchanged*
        position, so the next read re-verifies the same range against
        fresh structure.
        """
        keys, children = snap.keys, snap.children
        n = len(children)
        for i in range(n):
            lo_sep = keys[i]
            # A separator is, in unit space, the exact resume point:
            # every unit of the next child compares >= its raw bytes.
            hi_sep = keys[i + 1] if i + 1 < n else snap.bound or b""
            status = self._scrub_one(report, handled, children[i], lo_sep, hi_sep)
            if status == "stale":
                count = stale_counts.get(children[i], 0) + 1
                stale_counts[children[i]] = count
                if count <= _STALE_RETRIES:
                    report.repositions += 1
                    return position
                # Several *fresh* level-1 reads in a row still list this
                # child while it stays something other than an allocated
                # leaf of this index.  A concurrently shrunk or rebuilt
                # child vanishes from the next read, so persistence means
                # the reference dangles — report it and step past instead
                # of livelocking the pass.
                self._handle_defect(
                    report,
                    handled,
                    children[i],
                    lo_sep,
                    hi_sep,
                    kind="structure",
                    problems=[
                        f"page {children[i]}: parent references a page "
                        f"that is not an allocated leaf of index "
                        f"{self.tree.index_id} (dangling reference)"
                    ],
                )
            elif status == "repaired":
                return position
            position = hi_sep
        return snap.bound

    # ------------------------------------------------------------ one page

    def _scrub_one(
        self,
        report: ScrubReport,
        handled: set[int],
        page_id: int,
        lo_sep: bytes,
        hi_sep: bytes,
    ) -> str:
        """Check one leaf under a brief S latch; dispatch the ladder on a
        confirmed defect."""
        ctx = self.ctx
        if ctx.page_manager.state(page_id) is not PageState.ALLOCATED:
            return "stale"
        try:
            page = ctx.get_latched(page_id, LatchMode.S, scan=True)
        except ChecksumError:
            report.pages_checked += 1
            ctx.counters.add("scrub_pages_checked")
            return self._handle_defect(
                report,
                handled,
                page_id,
                lo_sep,
                hi_sep,
                kind="unreadable",
                problems=[f"page {page_id}: required read failed its CRC"],
            )
        except StorageError:
            # Transient / permanent I/O trouble is the retry layer's
            # problem (ladder rung 1), not evidence of rot.
            report.pages_skipped += 1
            ctx.counters.add("scrub_pages_skipped")
            return "skipped"
        try:
            if (
                page.index_id != self.tree.index_id
                or page.page_type is not PageType.LEAF
            ):
                return "stale"
            if page.flags != PageFlag.NONE:
                # Protocol bits: an in-flight top action owns this page.
                report.pages_skipped += 1
                ctx.counters.add("scrub_pages_skipped")
                return "skipped"
            report.pages_checked += 1
            ctx.counters.add("scrub_pages_checked")
            problems = leaf_local_problems(
                page, lo_sep or None, hi_sep or None
            )
        finally:
            ctx.release_page(page_id)
        # The stored image's re-reads and retry sleeps run unlatched.
        if not self._crc_ok(page_id, report):
            return self._handle_defect(
                report,
                handled,
                page_id,
                lo_sep,
                hi_sep,
                kind="checksum",
                problems=problems
                + [f"page {page_id}: stored image fails its CRC trailer"],
            )
        if problems and self._confirm_structure(page_id):
            return self._handle_defect(
                report,
                handled,
                page_id,
                lo_sep,
                hi_sep,
                kind="structure",
                problems=problems,
            )
        return "ok"

    def _crc_ok(self, page_id: int, report: ScrubReport) -> bool:
        """Verify the stored physical image's CRC trailer, with retries
        to absorb a race against a concurrent flush of the same page."""
        disk = self.ctx.disk
        for attempt in range(CRC_RETRIES + 1):
            why = disk.verdict(disk.read_physical(page_id))
            if why == "ok":
                report.crc_checked += 1
                return True
            if why != "crc":
                # Never flushed (or torn away entirely): the WAL, not the
                # image, is the authority — rung 1 of the ladder.
                report.crc_absent += 1
                return True
            if attempt < CRC_RETRIES:
                if invariants.hook is not None:
                    invariants.hook.unlatched(self.ctx.latches, "CRC retry")
                time.sleep(CRC_RETRY_SLEEP)
        return False

    def _confirm_structure(self, page_id: int) -> bool:
        """Re-check a containment/ordering suspect against a *fresh*
        parent snapshot with parent and child latched together.

        A suspect from a released snapshot can be legitimate: if the
        right neighbor shrank away, its separator was deleted and this
        child's true range widened past our stale bound.  Holding both
        latches closes that window, so a confirmed problem is real.
        """
        ctx, tree = self.ctx, self.tree
        try:
            probe = ctx.get_latched(page_id, LatchMode.S, scan=True)
        except StorageError:
            return False
        try:
            if (
                probe.page_type is not PageType.LEAF
                or probe.index_id != tree.index_id
                or probe.flags != PageFlag.NONE
                or not probe.nrows
            ):
                return False
            unit = probe.rows[0]
        finally:
            ctx.release_page(page_id)
        txn = ctx.txns.begin()
        try:
            root = ctx.get_latched(tree.root_page_id, LatchMode.S, scan=True)
            root_is_leaf = root.page_type is PageType.LEAF
            ctx.release_page(root.page_id)
            if root_is_leaf:
                if page_id != tree.root_page_id:
                    return False
                child = ctx.get_latched(page_id, LatchMode.S, scan=True)
                try:
                    return bool(leaf_local_problems(child, None, None))
                finally:
                    ctx.release_page(page_id)
            parent = Traversal(ctx, tree, scan=True).traverse(
                unit, AccessMode.READER, 1, txn
            )
            try:
                entries = node.entries(parent)
                pos = next(
                    (
                        j
                        for j, e in enumerate(entries)
                        if e.child == page_id
                    ),
                    None,
                )
                if pos is None:
                    return False  # moved out from under us: not confirmed
                lo = entries[pos].key if pos else None
                hi = (
                    entries[pos + 1].key
                    if pos + 1 < len(entries)
                    else None
                )
                child = ctx.get_latched(page_id, LatchMode.S, scan=True)
                try:
                    if child.flags != PageFlag.NONE:
                        return False
                    return bool(
                        leaf_local_problems(child, lo or None, hi)
                    )
                finally:
                    ctx.release_page(page_id)
            finally:
                ctx.release_page(parent.page_id)
        except StorageError:
            return False
        finally:
            ctx.txns.commit(txn)

    # -------------------------------------------------------- repair ladder

    def _handle_defect(
        self,
        report: ScrubReport,
        handled: set[int],
        page_id: int,
        lo_sep: bytes,
        hi_sep: bytes,
        kind: str,
        problems: list[str],
    ) -> str:
        ctx = self.ctx
        ctx.counters.add("scrub_defects_found")
        defect = ScrubDefect(
            page_id=page_id,
            index_id=self.tree.index_id,
            kind=kind,
            problems=problems,
            start_sep=lo_sep,
            end_sep=hi_sep,
        )
        report.defects.append(defect)
        ctx.syncpoints.fire(
            "scrub.defect", page=page_id, kind=kind, epoch=self._epoch
        )
        if kind == "structure":
            # Structure is the protocols' jurisdiction: report loudly,
            # never rewrite a page whose bytes are intact.
            return "defect"
        if not self.config.repair or page_id in handled:
            defect.action = "unrepaired" if page_id in handled else "reported"
            handled.add(page_id)
            return "defect"
        handled.add(page_id)
        repair_span = ctx.tracer.begin("scrub.repair", page=page_id, kind=kind)
        try:
            if self._try_replay(page_id, defect):
                ctx.syncpoints.fire(
                    "scrub.repair", page=page_id, action=defect.action
                )
                return "repaired"
            return self._quarantine_and_write_back(defect)
        finally:
            # The rung the ladder ended on (flushed / replayed / repaired
            # / quarantine-stands) is the span's verdict.
            ctx.tracer.finish(repair_span, action=defect.action)

    def _try_replay(self, page_id: int, defect: ScrubDefect) -> bool:
        """Ladder rung 2: rebuild the page image from WAL history alone.

        Eligible iff the durable log still holds the page's birth record
        and everything after it touching the page is single-page redo —
        a rollback's compensations included, since each is logged as the
        change it made to its page.  A ``KEYCOPY`` target (needs live
        source pages) would replay against *today's* sources, not
        history's — go on to rung 3.  The birth record is redone as
        recovery redoes it, and the page's single-page records go, as
        encoded, through crash recovery's page-queue kernel
        (:func:`~repro.wal.apply.redo_page_queue`).
        """
        ctx = self.ctx
        birth = None
        queue: list[tuple[int, int, bytes]] = []
        for data in ctx.log.raw_records(durable_only=True):
            t, _, _, lsn, _, _, _, _, rec_page, _ = LogRecord.peek(data)
            if t in SINGLE_PAGE_REDO:
                if birth is not None and rec_page == page_id:
                    queue.append((lsn, t, data))
                continue
            if t not in BARRIER_REDO:
                continue
            rec = LogRecord.decode(data)
            if (t == RecordType.ALLOC and rec.page_id == page_id) or (
                t == RecordType.ALLOCRUN and page_id in rec.page_ids
            ):
                birth, queue = rec, []
            elif t == RecordType.DEALLOC and (
                rec.page_id == page_id or page_id in rec.page_ids
            ):
                birth, queue = None, []
            elif birth is None:
                continue
            elif t == RecordType.KEYCOPY and (
                rec.pp_page == page_id
                or any(e.tgt_page == page_id for e in rec.entries)
                or any(link.page_id == page_id for link in rec.links)
            ):
                return False
        if birth is None:
            return False
        # Redo under the X latch; force after releasing it.
        ctx.latches.acquire(page_id, LatchMode.X)
        try:
            resident = ctx.buffer.is_resident(page_id)
            apply_ctx = ApplyContext(ctx.buffer, ctx.page_manager)
            redo_record(birth, apply_ctx)
            redo_page_queue(page_id, queue, apply_ctx)
            ctx.buffer.fetch(page_id)
            ctx.buffer.unpin(page_id, dirty=True)
        except (StorageError, RebuildError):
            return False
        finally:
            ctx.latches.release(page_id)
        if self._force(page_id):
            return False
        # A resident frame gated every redo to a no-op and the repair was
        # really a re-flush of newer truth; count the two distinctly.
        if resident:
            defect.action = "flushed"
            ctx.counters.add("scrub_repairs_flush")
        else:
            defect.action = "replayed"
            ctx.counters.add("scrub_repairs_replay")
        return True

    def _quarantine_and_write_back(self, defect: ScrubDefect) -> str:
        """Ladder rung 3: fence the damaged range, then store the
        resident frame again and lift the fence once the device holds
        it.  Without a good copy to write, the fence stands."""
        ctx, tree = self.ctx, self.tree
        qrange = ctx.quarantine.covering(tree.index_id, defect.start_sep)
        if qrange is None:
            qrange = ctx.quarantine.set_range(
                tree.index_id, defect.start_sep, defect.end_sep
            )
            ctx.counters.add("scrub_quarantines")
            ctx.syncpoints.fire(
                "scrub.quarantine",
                page=defect.page_id,
                start=defect.start_sep,
                end=defect.end_sep,
            )
        # else: already fenced (an earlier pass, or recovery re-fenced
        # it) — reuse the standing range rather than stacking a
        # duplicate, but still attempt the repair again.
        error = self._write_back(defect.page_id)
        if error:
            # No good copy reached the device: the fence stands and the
            # rest of the index keeps serving (bounded degradation).
            defect.action = "quarantine-stands"
            defect.error = error
            return "defect"
        ctx.quarantine.lift(qrange)
        defect.action = "repaired"
        ctx.counters.add("scrub_quarantine_lifts")
        ctx.syncpoints.fire(
            "scrub.lift", page=defect.page_id, start=defect.start_sep
        )
        return "repaired"

    def _write_back(self, page_id: int) -> str:
        """Store the resident frame of ``page_id`` over its rotted slot;
        returns why the stored image is still not good, or ``""``.  The
        frame is marked dirty under an X latch, once the page is known to
        be still an allocated page of this index, and forced after."""
        ctx = self.ctx
        if not ctx.buffer.is_resident(page_id):
            return f"page {page_id}: no resident frame to write back"
        try:
            # Evicted since the check, the fetch reads the rot and raises.
            page = ctx.get_latched(page_id, LatchMode.X, scan=True)
        except StorageError as exc:
            return f"{type(exc).__name__}: {exc}"
        ours = (
            ctx.page_manager.state(page_id) is PageState.ALLOCATED
            and page.index_id == self.tree.index_id
        )
        ctx.release_page(page_id, dirty=ours)
        if not ours:
            return f"page {page_id} left index {self.tree.index_id}"
        return self._force(page_id)

    def _force(self, page_id: int) -> str:
        """Force ``page_id`` (WAL-first, with no latch held: no thread
        forces a page while it holds one) and re-read its stored image;
        returns why it does not verify, or ``""``.  The re-read decides,
        not the write's return: a device can drop a write."""
        try:
            self.ctx.buffer.flush_page(page_id)
        except StorageError as exc:
            return f"{type(exc).__name__}: {exc}"
        if not self.ctx.disk.exists(page_id):  # the CRC verdict, as a probe
            return f"page {page_id}: the write did not reach the device"
        return ""

    # -------------------------------------------------------------- pacing

    def _pace(self, report: ScrubReport) -> None:
        """Step the pacer and sleep its delay between parent batches."""
        ctx, pacer = self.ctx, self.pacer
        if pacer.step():
            report.throttles += 1
            ctx.counters.add("scrub_throttles")
            ctx.syncpoints.fire("scrub.throttle", pause=pacer.delay)
        if pacer.delay > 0.0 and ctx.tracer.enabled:
            ctx.metrics.histogram("scrub_pause_seconds").record(pacer.delay)
        pacer.pause(ctx.latches)

    # ------------------------------------------------------- height-1 trees

    def _scrub_root_leaf(self, report: ScrubReport, handled: set[int]) -> None:
        """Scrub a single-leaf tree (the root is the only page)."""
        self._scrub_one(report, handled, self.tree.root_page_id, b"", b"")

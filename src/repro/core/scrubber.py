"""Online integrity scrubber: detect page rot early, heal it in place.

The paper's protocols keep the index *structurally* correct under any
interleaving of splits, shrinks and the online rebuild — but a disk that
rots a committed page underneath a correct structure is outside their
scope.  This module closes that gap with a background **scrubber** that
walks the leaf level the way a §2.5 scan does — short S latches,
repositioning by key whenever a concurrent split, shrink or rebuild seam
moves the ground under it — and verifies, for every leaf it visits:

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
   (``ALLOC``/``ALLOCRUN``) and every later record touching it is simple
   physical redo, the page is reconstructed in place under an X latch
   via the recovery machinery and re-flushed;
3. **quarantine + targeted rebuild** — otherwise the damaged key range
   is fenced in the engine's :class:`~repro.quarantine.QuarantineMap`
   (reads/writes fail fast with ``QuarantinedRangeError``) and a
   range-scoped online rebuild of just that segment is dispatched
   through :class:`~repro.core.supervisor.RebuildSupervisor`;
   the quarantine lifts when the repair commits, and *stands* (bounded
   degradation) if even the rebuild cannot read the data back.

The walk is paced by the :class:`~repro.core.supervisor.Pacer` it is
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
from repro.btree.traversal import AccessMode, Traversal
from repro.btree.verify import leaf_local_problems
from repro.concurrency.latch import LatchMode
from repro.concurrency.syncpoints import CrashPoint
from repro.core.supervisor import Pacer, RebuildSupervisor, SupervisorConfig
from repro.errors import (
    ChecksumError,
    RebuildError,
    ScrubError,
    StorageError,
)
from repro.storage.page import NO_PAGE, PageFlag, PageType
from repro.storage.page_manager import PageState
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
    rebuild committed, quarantine lifted), ``quarantine-stands`` (ladder
    3 repair failed; the fence remains), ``unrepaired`` (already
    dispatched this pass), or ``reported`` (repair disabled, or
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


@dataclass
class _PageResult:
    status: str  # ok | stale | skipped | defect | repaired
    next_page: int = NO_PAGE
    has_next: bool = False


class Scrubber:
    """Pacing-aware online integrity scrubber for one index.

    One scrubber serves one tree; ``run_pass`` drives a single full walk
    synchronously, :meth:`start` / :meth:`stop` run passes on a
    background thread.  Repairs are dispatched inline from the scrub
    thread (the targeted rebuild brings its own supervision).
    """

    def __init__(
        self,
        tree,
        config: ScrubConfig | None = None,
        supervisor_policy: SupervisorConfig | None = None,
        pacer: Pacer | None = None,
    ) -> None:
        self.tree = tree
        self.ctx = tree.ctx
        self.config = config if config is not None else ScrubConfig()
        self.supervisor_policy = supervisor_policy
        self.pacer = pacer if pacer is not None else Pacer()
        """Steps between parent batches, and paces the repair rebuilds
        the scrubber dispatches."""
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
        batches = 0
        while batches < cap:
            batches += 1
            report.batches = batches
            batch = self._snapshot_parent(position)
            if batch is None:
                self._scrub_root_leaf(report, handled)
                report.complete = True
                break
            parent_id, seps, children, start = batch
            ctx.syncpoints.fire(
                "scrub.batch", parent=parent_id, children=len(children)
            )
            self.segment_epochs[seps[start] if start else b""] = self._epoch
            position, outcome = self._scrub_children(
                report, handled, stale_counts, seps, children, start, position
            )
            if outcome == "end":
                report.complete = True
                break
            if outcome == "stop":
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

    def _snapshot_parent(
        self, position: bytes
    ) -> tuple[int, list[bytes], list[int], int] | None:
        """S-latch the level-1 parent covering ``position`` and snapshot
        its separators and children; None when the root is a leaf.

        The snapshot bounds are *supersets* of each child's true range
        under later concurrent splits (splits only narrow), which is what
        makes checking children against a released snapshot sound.
        """
        ctx, tree = self.ctx, self.tree
        root = ctx.get_latched(tree.root_page_id, LatchMode.S, scan=True)
        is_leaf = root.page_type is PageType.LEAF
        ctx.release_page(root.page_id)
        if is_leaf:
            return None
        txn = ctx.txns.begin()
        try:
            parent = Traversal(ctx, tree, scan=True).traverse(
                position, AccessMode.READER, 1, txn
            )
            try:
                entries = node.entries(parent)
                seps = [e.key for e in entries]
                children = [e.child for e in entries]
                start, _child = node.child_search(
                    parent, position, ctx.counters
                )
            finally:
                ctx.release_page(parent.page_id)
        finally:
            ctx.txns.commit(txn)
        return parent.page_id, seps, children, start

    def _scrub_children(
        self,
        report: ScrubReport,
        handled: set[int],
        stale_counts: dict[int, int],
        seps: list[bytes],
        children: list[int],
        start: int,
        position: bytes,
    ) -> tuple[bytes, str]:
        """Scrub ``children[start:]`` against the snapshot bounds.

        Returns ``(next position, outcome)`` where outcome is
        ``"continue"`` (take another parent snapshot at the position),
        ``"end"`` (the rightmost leaf was reached — the pass is
        complete), or ``"stop"`` (the tail of the index is unreachable
        this pass, e.g. behind a standing quarantine).  Staleness and
        in-place repairs return the *unchanged* position, so the next
        snapshot re-verifies the same range against fresh structure.
        """
        n = len(children)
        for i in range(start, n):
            lo_sep = seps[i]
            hi_sep = seps[i + 1] if i + 1 < n else b""
            result = self._scrub_one(report, handled, children[i], lo_sep, hi_sep)
            if result.status == "stale":
                count = stale_counts.get(children[i], 0) + 1
                stale_counts[children[i]] = count
                if count <= _STALE_RETRIES:
                    report.repositions += 1
                    return position, "continue"
                # Several *fresh* parent snapshots in a row still list
                # this child while it stays something other than an
                # allocated leaf of this index.  A concurrently shrunk
                # or rebuilt child vanishes from the next snapshot, so
                # persistence means the reference dangles — report it
                # and step past instead of livelocking the pass.
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
                if i + 1 < n:
                    position = hi_sep
                    continue
                return position, "stop"
            if result.status == "repaired":
                return position, "continue"
            if i + 1 < n:
                # The next child's low separator is, in unit space, the
                # exact resume point: every unit of the next child
                # compares >= its raw separator bytes.
                position = hi_sep
                continue
            # Last child of the snapshot: the parent's high bound is not
            # knowable from here, so cross into the next subtree along
            # the leaf chain (the §2.5 move) and let the next parent
            # snapshot supply bounds.
            if result.has_next and result.next_page == NO_PAGE:
                return position, "end"
            if result.has_next:
                hop = self._chain_hop(result.next_page)
                if hop is None:
                    report.repositions += 1
                    return position, "continue"
                if hop == b"":
                    return position, "end"  # chain ended on empty leaves
                return hop, "continue"
            # Damaged or fenced last child with no known upper bound:
            # nothing to the right can be reached safely this pass.
            return position, "stop"
        return position, "continue"

    def _chain_hop(self, page_id: int) -> bytes | None:
        """The low unit of the first non-empty leaf at/after ``page_id``
        along the next chain; ``b""`` if the chain ends empty, None when
        the chain went stale under us (reposition by key instead)."""
        ctx = self.ctx
        for _ in range(16):
            if ctx.page_manager.state(page_id) is not PageState.ALLOCATED:
                return None
            try:
                page = ctx.get_latched(page_id, LatchMode.S, scan=True)
            except StorageError:
                return None  # unreadable: the by-key walk will find it
            try:
                if (
                    page.page_type is not PageType.LEAF
                    or page.index_id != self.tree.index_id
                ):
                    return None
                if page.nrows:
                    return page.rows[0]
                next_id = page.next_page
            finally:
                ctx.release_page(page_id)
            if next_id == NO_PAGE:
                return b""
            page_id = next_id
        return None

    # ------------------------------------------------------------ one page

    def _scrub_one(
        self,
        report: ScrubReport,
        handled: set[int],
        page_id: int,
        lo_sep: bytes,
        hi_sep: bytes,
    ) -> _PageResult:
        """Check one leaf under a brief S latch; dispatch the ladder on a
        confirmed defect."""
        ctx = self.ctx
        if ctx.page_manager.state(page_id) is not PageState.ALLOCATED:
            return _PageResult("stale")
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
            return _PageResult("skipped")
        try:
            if (
                page.index_id != self.tree.index_id
                or page.page_type is not PageType.LEAF
            ):
                return _PageResult("stale")
            next_page = page.next_page
            if page.flags != PageFlag.NONE:
                # Protocol bits: an in-flight top action owns this page.
                report.pages_skipped += 1
                ctx.counters.add("scrub_pages_skipped")
                return _PageResult("skipped", next_page, True)
            report.pages_checked += 1
            ctx.counters.add("scrub_pages_checked")
            problems = leaf_local_problems(
                page, lo_sep or None, hi_sep or None
            )
            crc_ok = self._crc_ok(page_id, report)
        finally:
            ctx.release_page(page_id)
        if not crc_ok:
            return self._handle_defect(
                report,
                handled,
                page_id,
                lo_sep,
                hi_sep,
                kind="checksum",
                problems=problems
                + [f"page {page_id}: stored image fails its CRC trailer"],
                next_page=next_page,
                has_next=True,
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
                next_page=next_page,
                has_next=True,
            )
        return _PageResult("ok", next_page, True)

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
        next_page: int = NO_PAGE,
        has_next: bool = False,
    ) -> _PageResult:
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
            return _PageResult("defect", next_page, has_next)
        if not self.config.repair or page_id in handled:
            defect.action = "unrepaired" if page_id in handled else "reported"
            handled.add(page_id)
            return _PageResult("defect", next_page, has_next)
        handled.add(page_id)
        repair_span = ctx.tracer.begin("scrub.repair", page=page_id, kind=kind)
        try:
            if self._try_replay(page_id, defect):
                ctx.syncpoints.fire(
                    "scrub.repair", page=page_id, action=defect.action
                )
                return _PageResult("repaired")
            return self._quarantine_and_rebuild(defect)
        finally:
            # The rung the ladder ended on (flushed / replayed / repaired
            # / quarantine-stands) is the span's verdict.
            ctx.tracer.finish(repair_span, action=defect.action)

    def _try_replay(self, page_id: int, defect: ScrubDefect) -> bool:
        """Ladder rung 2: rebuild the page image from WAL history alone.

        Eligible iff the durable log still holds the page's birth record
        and everything after it touching the page is simple physical
        redo.  A ``KEYCOPY`` target (needs live source pages) or a CLR
        (logical leaf undo re-descends the live tree) would replay
        against *today's* structure, not history's — bail to rung 3.
        The birth record is redone as recovery redoes it, and the page's
        single-page records go, as encoded, through crash recovery's
        page-queue kernel (:func:`~repro.wal.apply.redo_page_queue`).
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
            elif (
                t == RecordType.KEYCOPY
                and (
                    rec.pp_page == page_id
                    or any(e.tgt_page == page_id for e in rec.entries)
                    or any(link.page_id == page_id for link in rec.links)
                )
            ) or (t == RecordType.CLR and rec.page_id == page_id):
                return False
        if birth is None:
            return False
        ctx.latches.acquire(page_id, LatchMode.X)
        try:
            resident = ctx.buffer.is_resident(page_id)
            apply_ctx = ApplyContext(
                ctx.buffer, ctx.page_manager, ctx.index_roots
            )
            redo_record(birth, apply_ctx)
            redo_page_queue(page_id, queue, apply_ctx)
            page = ctx.buffer.fetch(page_id)
            ctx.log.flush_to(page.page_lsn)
            ctx.buffer.unpin(page_id, dirty=True)
            ctx.buffer.flush_page(page_id)
            if not ctx.disk.exists(page_id):
                return False
        except (StorageError, RebuildError):
            return False
        finally:
            ctx.latches.release(page_id)
        # A resident frame gated every redo to a no-op and the repair was
        # really a re-flush of newer truth; count the two distinctly.
        if resident:
            defect.action = "flushed"
            ctx.counters.add("scrub_repairs_flush")
        else:
            defect.action = "replayed"
            ctx.counters.add("scrub_repairs_replay")
        return True

    def _quarantine_and_rebuild(self, defect: ScrubDefect) -> _PageResult:
        """Ladder rung 3: fence the damaged range, rebuild just it."""
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
        defect.action = "quarantined"
        start_key, end_key = repair_key_bounds(
            tree.key_len, defect.start_sep, defect.end_sep
        )
        supervisor = RebuildSupervisor(
            tree, policy=self.supervisor_policy, pacer=self.pacer
        )
        try:
            supervisor.run(start_key=start_key, end_key=end_key)
        except CrashPoint:
            raise
        except (RebuildError, StorageError) as exc:
            # The data truly cannot be read back: the fence stands and
            # the rest of the index keeps serving (bounded degradation).
            defect.action = "quarantine-stands"
            defect.error = f"{type(exc).__name__}: {exc}"
            return _PageResult("defect")
        ctx.quarantine.lift(qrange)
        defect.action = "repaired"
        ctx.counters.add("scrub_quarantine_lifts")
        ctx.syncpoints.fire(
            "scrub.lift", page=defect.page_id, start=defect.start_sep
        )
        return _PageResult("repaired")

    # -------------------------------------------------------------- pacing

    def _pace(self, report: ScrubReport) -> None:
        """Step the pacer and sleep its delay between parent batches."""
        ctx, pacer = self.ctx, self.pacer
        if pacer.step():
            report.throttles += 1
            ctx.counters.add("scrub_throttles")
            ctx.syncpoints.fire("scrub.throttle", pause=pacer.delay)
        if pacer.delay > 0.0:
            if ctx.tracer.enabled:
                ctx.metrics.histogram("scrub_pause_seconds").record(
                    pacer.delay
                )
            time.sleep(pacer.delay)

    # ------------------------------------------------------- height-1 trees

    def _scrub_root_leaf(self, report: ScrubReport, handled: set[int]) -> None:
        """Scrub a single-leaf tree (the root is the only page)."""
        self._scrub_one(report, handled, self.tree.root_page_id, b"", b"")


def repair_key_bounds(
    key_len: int, start_sep: bytes, end_sep: bytes
) -> tuple[bytes | None, bytes | None]:
    """Convert a separator interval ``[start_sep, end_sep)`` into the
    ``(start_key, end_key)`` arguments of a range-scoped rebuild.

    The scrubber quarantines a damaged child by the separator bounds its
    latched parent snapshot assigns to it; this translates those
    *unit-space prefixes* (separators are suffix-compressed) into the
    inclusive full-length key bounds ``OnlineRebuild.run`` /
    ``RebuildSupervisor.run`` accept, such that the rebuilt leaves cover
    every unit in the quarantined interval:

    * ``start_key`` — ``start_sep`` zero-padded: its search floor is the
      smallest unit at/above the separator, so the start probe lands on
      the damaged leaf itself.  An empty separator (first child) means
      "from the beginning" → None.
    * ``end_key`` — ``end_sep`` zero-padded minus one: its search ceiling
      is the largest unit strictly below the separator.  An empty
      separator (last child, parent bound unknown) means "to the end" →
      None.
    """
    start_key: bytes | None = None
    if start_sep:
        start_key = start_sep[:key_len].ljust(key_len, b"\x00")
    end_key: bytes | None = None
    if end_sep:
        padded = end_sep[:key_len].ljust(key_len, b"\x00")
        as_int = int.from_bytes(padded, "big")
        if as_int > 0:
            end_key = (as_int - 1).to_bytes(key_len, "big")
        # An all-zero end separator bounds an empty interval; leave the
        # rebuild unbounded rather than underflow (harmlessly wider).
    return start_key, end_key

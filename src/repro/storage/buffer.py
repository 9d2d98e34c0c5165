"""Scan-resistant buffer pool with WAL enforcement (§3, §6.3).

The pool caches :class:`~repro.storage.page.Page` objects by page id.  Two
protocol points from the paper are load-bearing:

* **WAL.**  Before a dirty page reaches disk, the log is flushed up to that
  page's ``page_lsn``.  The engine installs the hook via
  :meth:`BufferPool.set_wal_hook` once the log manager exists.
* **Forced write before freeing old pages.**  At each rebuild transaction
  boundary the new pages are flushed (:meth:`flush_pages`, which coalesces
  contiguous ids into large physical I/Os) *before* the old pages become
  available for fresh allocation (§3).  The keycopy log record can then omit
  key contents, because redo can always re-read the source page.

``large_io=True`` on :meth:`fetch` reads the whole io-size-aligned run
containing the page in one physical call, modelling the paper's 16 KB
buffer-pool reads of the old index.

**Scan resistance (2Q-style scan ring).**  A rebuild's sequential
leaf-chain scan would sweep the OLTP working set out of an LRU pool, so
frames are tagged by admission class — the pool's one admission policy.
Demand (OLTP) fetches go to the *protected* LRU.  Scan-class reads
(``fetch(..., scan=True)``, scan prefetches, and the rebuild's new-page
allocations) go to a bounded probationary *ring* of a quarter of the
pool that recycles its own frames first — a 50k-leaf scan can displace
at most that quarter of the hot set.  A ring page re-referenced by a
demand fetch is *promoted* to the protected region (``ring_promotions``).
Ring recycling keeps the scan fed: the oldest consumed frames go first
(clean before dirty; a dirty victim is written together with the dirty
frames of its io-size-aligned disk run in one coalesced call), then the
current top action's young ones; the not-yet-consumed read-ahead window
goes last, because evicting it re-buys its reads.  Pages the rebuild
has deallocated never reach that write path at all: :meth:`retire_page`
drops them unwritten, and what is still resident of a freed page when its
id is handed out again is a dead image :meth:`new_page` drops, dirty or
not.  Under global pressure the ring is evicted before the protected
LRU; a scan-class admission that does evict a protected frame is counted
under ``hot_evictions_by_scan``.

A simulated **crash** (:meth:`crash`) discards every frame without writing —
the disk keeps only what was explicitly flushed, which is what recovery
tests exercise.

**I/O concurrency.**  The pool's one lock protects its frame tables, but
is *released* around every physical disk call — miss reads, aligned-run
reads, prefetch reads, batch flushes, and dirty-eviction writes — so
threads overlap their disk time instead of serializing on the pool.
Entering the lock probes it non-blockingly first, so contention is
visible in ``pool_shard_conflicts``.  Every write — force, single-page
flush, eviction — is one code path (:meth:`BufferPool._write_batch`),
and ``tools/lint_no_io_under_lock.py`` enforces statically that no disk
call is issued under the lock.  Two pieces of bookkeeping make the
unlocked I/O safe:

* an *in-flight read table* — a miss registers the page id before
  dropping the lock (a large-I/O read also claims the run neighbors it
  will admit); a second fetch of the same page waits on the pool's
  condition variable instead of issuing a duplicate read, and every
  admission point re-checks residency after reacquiring the lock;
* a per-frame *version counter*, bumped whenever a frame becomes dirty —
  any unlocked write snapshots (frame, version), writes without the lock,
  and clears the dirty bit only for frames still resident at the same
  version, so a change that lands mid-write is never lost.  The
  *in-flight write table* orders overlapping writes of the same page, so
  a slower writer holding an older image can never land after a newer one.

**Device service time.**  :meth:`BufferPool.retrying`, which every
physical call goes through, times each successful attempt and keeps the
last few per-device-call figures (:meth:`BufferPool.service_samples`):
what a rebuild decides from whether the device is worth hiding behind
I/O threads (:mod:`repro.core.rebuild`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Callable

from repro.errors import BufferError_, TransientIOError
from repro.stats.counters import Counters
from repro.storage.disk import Disk, write_calls
from repro.storage.page import Page


_NEVER_STORED = -1
_RETRY_BACKOFF = 0.0005  # seconds before the first retry, doubled per attempt
_RETRY_BACKOFF_CAP = 0.01
_SERVICE_SAMPLES = 3
"""Per-device-call service times :meth:`BufferPool.service_samples` keeps.
Three is the descent of a cold run (root, level 1, leaf): a rebuild on a
slow device knows it before its first top action, while a fast device
has to stall on three calls in a row to be mistaken for a slow one."""


class _Frame:
    __slots__ = (
        "page", "dirty", "pin_count", "prefetched", "version", "ring", "seq",
        "clean_lsn",
    )

    def __init__(self, page: Page) -> None:
        self.page = page
        self.dirty = False
        self.pin_count = 0
        # Admitted speculatively (run neighbor or read-ahead) and not yet
        # fetched: the first fetch counts a prefetch hit and clears it.
        self.prefetched = False
        # ``page_lsn`` of the image last read from or written to disk
        # (``_NEVER_STORED`` for a fresh allocation): while the page's LSN
        # equals it, the stored image carries every logged change.
        self.clean_lsn = page.page_lsn
        # Ring admission ticket: a frame within the last eighth of the
        # ring's quota is the current top action's working set.
        self.seq = 0
        # Bumped on every dirtying; lets an unlocked flush detect that the
        # frame changed mid-write and must stay dirty.
        self.version = 0
        # Lives in the probationary ring (scan-class admission) rather
        # than the protected LRU.
        self.ring = False


class _CountedLock:
    """The pool's lock as a ``with`` target: entering probes it
    non-blockingly first and counts ``pool_shard_conflicts`` when it has
    to wait.  ``acquire`` / ``release`` are the raw lock's — retaking it
    after an unlocked disk call is not the contention the counter is
    after."""

    __slots__ = ("acquire", "release", "_counters")

    def __init__(self, lock: threading.Lock, counters: Counters) -> None:
        self.acquire = lock.acquire
        self.release = lock.release
        self._counters = counters

    def __enter__(self) -> None:
        if not self.acquire(False):
            self._counters.add("pool_shard_conflicts")
            self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


class BufferPool:
    """Page cache over a :class:`Disk`.

    Recency in ``_frames`` (the protected LRU) and ``_ring`` is insertion
    order — least recent / first-out at the front — so a hit is an O(1)
    ``move_to_end`` and eviction pops from the front (skipping pinned
    frames), instead of the tick-counter full scan a naive LRU needs.
    See the module docstring for the scan-resistance design.
    """

    # Optional observability hooks (set by EngineContext when tracing is
    # on): miss reads emit buffer.read spans + buffer_read_seconds
    # samples, ring run writes emit buffer.gang_flush spans.
    tracer = None
    metrics = None

    def __init__(
        self,
        disk: Disk,
        capacity: int = 1024,
        counters: Counters | None = None,
        retry_limit: int = 12,
    ) -> None:
        if capacity < 8:
            raise BufferError_("buffer pool needs at least 8 frames")
        self.disk = disk
        self.capacity = capacity
        self.ring_quota = capacity // 4  # the scan ring's share of the pool
        self.retry_limit = retry_limit
        self.counters = counters if counters is not None else Counters()
        lock = threading.Lock()
        self._lock = _CountedLock(lock, self.counters)
        self._cond = threading.Condition(lock)
        self._frames: OrderedDict[int, _Frame] = OrderedDict()  # protected
        self._ring: OrderedDict[int, _Frame] = OrderedDict()    # probationary
        # Page ids with a disk read in progress (lock released); fetches of
        # the same page wait here instead of duplicating the read.
        self._inflight: set[int] = set()
        # Page ids with an unlocked *write* in progress.  A second write of
        # an overlapping page waits for it; pages in here are always
        # resident (flushes keep the frame, evictions wait), so read paths
        # never see a half-updated disk image either.
        self._writing: set[int] = set()
        self._admit_seq = 0  # the last ring admission ticket handed out
        self._wal_hook: Callable[[int], None] | None = None
        self._service: deque[float] = deque(maxlen=_SERVICE_SAMPLES)
        self._service_lock = threading.Lock()

    def set_wal_hook(self, hook: Callable[[int], None]) -> None:
        """Install ``flush_log_to(lsn)``, called before any dirty write."""
        self._wal_hook = hook

    def _lookup(self, page_id: int) -> _Frame | None:
        frame = self._frames.get(page_id)
        return frame if frame is not None else self._ring.get(page_id)

    def _pop(self, page_id: int) -> None:
        if self._frames.pop(page_id, None) is None:
            self._ring.pop(page_id, None)

    # ------------------------------------------------------------------ retry

    def retrying(  # noqa: ANN201
        self,
        fn: Callable[[], object],
        calls: int = 1,
        histogram=None,  # noqa: ANN001
    ):
        """Run a disk call, absorbing :class:`TransientIOError` with capped
        exponential backoff (``_RETRY_BACKOFF * 2**attempt``, capped).

        After ``retry_limit`` retries the error propagates — at a 30%
        injected failure rate, the default 12 retries (13 attempts) leave
        0.3**13 ≈ 1.6e-7 per call, so a transient storm slows the rebuild
        but does not abort it.  This is the engine's one retry budget; the
        write-behind writers add none of their own.  Anything
        that is not a :class:`TransientIOError` (PermanentIOError,
        ChecksumError, CrashPoint) passes straight through.

        The attempt that succeeds is timed: its duration goes to
        ``histogram`` when one is given, and, divided by the ``calls``
        device calls ``fn`` makes, to :meth:`service_samples`.  The pool
        lock is not held here.
        """
        attempt = 0
        while True:
            start = time.perf_counter()
            try:
                result = fn()
            except TransientIOError:
                attempt += 1
                if attempt > self.retry_limit:
                    raise
                self.counters.add("io_retries")
                time.sleep(
                    min(
                        _RETRY_BACKOFF * (1 << (attempt - 1)),
                        _RETRY_BACKOFF_CAP,
                    )
                )
                continue
            seconds = time.perf_counter() - start
            with self._service_lock:
                self._service.append(seconds / calls)
            if histogram is not None:
                histogram.record(seconds)
            return result

    def service_samples(self) -> tuple[float, ...]:
        """Seconds per device call of the last few physical calls, oldest
        first (empty before the first one)."""
        with self._service_lock:
            return tuple(self._service)

    # ------------------------------------------------------------------ fetch

    def _io_unlocked(  # noqa: ANN201
        self,
        fn: Callable[[], object],
        histogram=None,  # noqa: ANN001
    ):
        """Run a (retried, timed) one-call disk read with the pool lock
        released.

        Must be called with the lock held; it is reacquired before
        returning or raising, so callers resume with their invariants —
        except frame-table contents, which they must re-check.
        """
        self._lock.release()
        try:
            return self.retrying(fn, histogram=histogram)
        finally:
            self._lock.acquire()

    def fetch(self, page_id: int, large_io: bool = False, scan: bool = False) -> Page:
        """Pin and return the page, reading it from disk on a miss.

        With ``large_io`` a miss reads the io-size-aligned run containing
        ``page_id`` in one physical call and caches (unpinned) every page of
        the run that exists on disk.  Miss reads run with the pool lock
        released; a concurrent fetch of the same page waits for the first
        read instead of duplicating it.

        ``scan=True`` tags the access as scan-class (the rebuild's
        sequential read of the old index): the page is admitted to — and
        re-referenced within — the probationary ring instead of the
        protected LRU.  A demand (``scan=False``) hit on a ring-resident
        page promotes it to the protected region.
        """
        missed = False
        with self._lock:
            self.counters.add("page_reads")
            while True:
                frame = self._lookup(page_id)
                if frame is not None:
                    break
                if page_id in self._inflight:
                    self._cond.wait()
                    continue
                self._inflight.add(page_id)
                try:
                    if large_io and self.disk.pages_per_io > 1:
                        self._read_aligned_run(page_id, scan)
                        frame = self._lookup(page_id)
                    if frame is None:
                        tracer = self.tracer
                        read_span = histogram = None
                        if tracer is not None:
                            read_span = tracer.begin(
                                "buffer.read", page_id=page_id, scan=scan
                            )
                            histogram = self.metrics.histogram(
                                "buffer_read_seconds"
                            )
                        try:
                            image = self._io_unlocked(
                                lambda: self.disk.read(page_id), histogram
                            )
                        except BaseException as exc:
                            if read_span is not None:
                                read_span.attrs["error"] = type(exc).__name__
                            raise
                        finally:
                            if read_span is not None:
                                tracer.finish(read_span)
                        # The lock was released: a prefetch or run read may
                        # have admitted the page meanwhile.
                        frame = self._lookup(page_id)
                        if frame is None:
                            frame = self._admit(
                                Page.from_bytes(image, self.disk.page_size),
                                scan=scan,
                            )
                finally:
                    self._inflight.discard(page_id)
                    self._cond.notify_all()
                missed = True
                if scan and large_io:
                    # A source-leaf read the scan had to issue itself:
                    # read-ahead did not have the run resident in time.
                    self.counters.add("rebuild_demand_reads")
                break
            if frame.prefetched:
                self.counters.add("prefetch_hits")
            frame.prefetched = False
            if not scan:
                self.counters.add(
                    "pool_demand_misses" if missed else "pool_demand_hits"
                )
            if frame.ring:
                if scan:
                    # Consumed by the scan: recency-ordered with the other
                    # used ring frames, behind the read-ahead window.  The
                    # age refresh (no ticket consumed) keeps the frame in
                    # the eviction order's young class: the top action
                    # that just consumed it will re-latch it once more
                    # for the protocol-bit clear before retiring it.
                    self._ring.move_to_end(page_id)
                    frame.seq = self._admit_seq
                else:
                    # 2Q promotion: a demand re-reference earns the page a
                    # place in the protected region.
                    del self._ring[page_id]
                    frame.ring = False
                    self._frames[page_id] = frame
                    self.counters.add("ring_promotions")
            else:
                self._frames.move_to_end(page_id)  # O(1) LRU touch
            frame.pin_count += 1
            return frame.page

    def new_page(self, page_id: int, scan: bool = False) -> Page:
        """Create a pinned, dirty, empty page image for a fresh allocation.

        A recycled page id may still be resident (its previous incarnation)
        or have a stale image on disk.  The stale disk image is deliberately
        *kept*: redo replays history in LSN order, and records that predate
        the page's freeing must find the old incarnation to apply against
        (their effects are later overwritten by this allocation's FORMAT).

        A resident previous incarnation is a **dead image** and is dropped,
        never written, however dirty it is (``pool_dead_images_dropped``;
        a pinned one is a caller bug and raises, a write of it already in
        the device is waited out so the ``writing`` table keeps naming
        resident pages only).  Why no path needs that write:

        (a) ``new_page`` is reached only for an id the page manager just
            took from FREE (the copy phase, split, propagation, tree
            creation, the offline and side-tree builders) or that redo is
            re-creating (``apply._redo_fresh_page``, which drops a
            resident older incarnation itself first).  A page reaches
            FREE at the end of the shrink that emptied it (which
            flushes it first) or after the rebuild transaction that
            deallocated it committed, and §3 puts that commit after the
            force of the pages that replaced it — so no KEYCOPY redo
            reads the dead page as a source and no undo touches it;
        (b) every logged change the dead frame carries beyond its stored
            image lies after the last checkpoint (``Engine.checkpoint``
            flushes every frame before it logs the record and truncates
            only before that record), so after a crash redo re-derives
            it from the stored image and the log — exactly the state of
            a crash that lost the frame a moment earlier — and this
            allocation's ALLOC / FORMAT then overwrites it;
        (c) a stale reader that still holds the id re-checks allocation
            and the frame's identity under the latch
            (:meth:`image_version`) and meets the new incarnation or a
            retraverse, never the dead rows.

        A page that is only DEALLOCATED — its transaction not committed
        yet — is a different matter: :meth:`retire_page` clause (d) keeps
        a pending logged change of it.

        ``scan=True`` admits the fresh frame to the ring: the rebuild's
        new pages are written once, forced, and not re-referenced, so
        they should recycle ahead of the hot set.
        """
        with self._lock:
            while (dead := self._lookup(page_id)) is not None:
                if dead.pin_count > 0:
                    raise BufferError_(
                        f"page {page_id} is pinned; cannot reallocate"
                    )
                if page_id not in self._writing:
                    self._pop(page_id)
                    self.counters.add("pool_dead_images_dropped")
                    break
                self._cond.wait()
            frame = self._admit(Page(page_id, self.disk.page_size), scan=scan)
            frame.pin_count += 1
            frame.dirty = True
            frame.version += 1
            frame.clean_lsn = _NEVER_STORED
            return frame.page

    def unpin(self, page_id: int, dirty: bool = False) -> None:
        with self._lock:
            frame = self._lookup(page_id)
            if frame is None or frame.pin_count <= 0:
                raise BufferError_(f"page {page_id} is not pinned")
            frame.pin_count -= 1
            if dirty:
                frame.dirty = True
                frame.version += 1

    def mark_dirty(self, page_id: int) -> None:
        with self._lock:
            frame = self._lookup(page_id)
            if frame is None:
                raise BufferError_(f"page {page_id} is not resident")
            frame.dirty = True
            frame.version += 1

    def is_resident(self, page_id: int) -> bool:
        with self._lock:
            return self._lookup(page_id) is not None

    def pin_count(self, page_id: int) -> int:
        with self._lock:
            frame = self._lookup(page_id)
            return frame.pin_count if frame else 0

    def image_version(self, page: Page) -> int | None:
        """Change counter of the frame holding exactly this ``Page``
        object, or ``None`` when the pool no longer holds it.

        Read-only, pool lock only — no latch, no pin.  A reader notes the
        value while it holds the page's latch; as long as later calls
        return the same value, what it read under the latch is still the
        page: every mutator dirties the frame (bumping the counter) before
        it drops its X latch, and an evicted-and-re-read or dropped-and-
        reallocated page id comes back as a different ``Page`` object
        whose counter starts over, which is why the identity is compared
        and not the number alone.
        """
        with self._lock:
            frame = self._lookup(page.page_id)
            if frame is None or frame.page is not page:
                return None
            return frame.version

    # ------------------------------------------------------------------ flush

    def flush_page(self, page_id: int) -> None:
        """Force one page to disk (WAL-first)."""
        self._write_batch([page_id], force=True)

    def flush_pages(self, page_ids: list[int]) -> None:
        """Force a set of pages to disk, batching contiguous ids (§3).

        This is the rebuild's transaction-boundary force of its new pages;
        the chunk allocator makes the ids contiguous, so the batch goes out
        through large physical I/Os — a single ``write_many``.
        """
        self._write_batch(page_ids, force=True)

    def _write_batch(self, page_ids: list[int], force: bool) -> int:
        """Write the dirty frames among ``page_ids`` in one ``write_many``,
        WAL-first, with the pool lock released across the I/O.

        With ``force`` every dirty frame is written, after waiting out
        in-flight writes that overlap the batch.  Without it (an
        eviction cleaning its victim's disk run) the batch is
        opportunistic: pinned frames and frames another writer has
        claimed are skipped, so the call never waits on the ``writing``
        table.  Returns the number of pages written.
        """
        ids = set(page_ids)
        # Pass 1 — under the lock: find the dirty frames, serialize them,
        # and claim them in the write table.  Clean frames are never
        # serialized.
        images: dict[int, bytes] = {}
        max_lsn = 0
        claimed: dict[int, tuple[_Frame, int, int]] = {}
        wrote = False
        try:
            with self._lock:
                while force and not self._writing.isdisjoint(ids):
                    self._cond.wait()
                for pid in ids:
                    frame = self._lookup(pid)
                    if frame is None or not frame.dirty:
                        continue
                    if not force and (
                        frame.pin_count > 0 or pid in self._writing
                    ):
                        continue
                    lsn = frame.page.page_lsn
                    claimed[pid] = (frame, frame.version, lsn)
                    images[pid] = frame.page.to_bytes()
                    if lsn > max_lsn:
                        max_lsn = lsn
                self._writing.update(claimed)
            if not images:
                return 0
            # Pass 2 — WAL-flush and write with the lock released (both can
            # block on physical I/O).  Each dirty frame is written exactly
            # once even if its id repeats in ``page_ids``.

            def _wal_then_write() -> None:
                if self._wal_hook is not None:
                    self._wal_hook(max_lsn)
                if len(images) == 1:
                    self.disk.write(*next(iter(images.items())))
                else:
                    self.disk.write_many(images)

            self.retrying(
                _wal_then_write,
                write_calls(sorted(images), self.disk.pages_per_io),
            )
            wrote = True
            self.counters.add("page_writes", len(images))
            return len(images)
        finally:
            # Pass 3 — release the write claims; clear dirty only for
            # frames still resident at the version we serialized (anything
            # redirtied or evicted-and-re-read mid-write keeps its state).
            if claimed:
                with self._lock:
                    self._writing.difference_update(claimed)
                    self._cond.notify_all()
                    if wrote:
                        for pid, (frame, version, lsn) in claimed.items():
                            if self._lookup(pid) is frame:
                                frame.clean_lsn = lsn
                                if frame.version == version:
                                    frame.dirty = False

    def flush_all(self) -> None:
        """Force every dirty resident page (checkpoint / clean shutdown)."""
        self.flush_pages(self._resident_ids())

    def _resident_ids(self) -> list[int]:
        with self._lock:
            return [*self._frames, *self._ring]

    def retire_page(self, page_id: int) -> bool:
        """Drop a page the caller has made unreachable, without writing
        it when its stored image is already logically current.

        The rebuild calls this for each source page of a finished top
        action that is in ``DEALLOCATED`` state: unlinked, protocol bits
        cleared, address lock released, freed at commit.  Such a frame
        is dirty only from the *unlogged* SHRINK-bit set + clear, so
        writing it — which eviction would otherwise do, one old page
        per new page — buys nothing.  The frame is dropped (True) when
        it is unpinned, no write of it is in flight, and it is clean or
        its ``page_lsn`` still equals the LSN of the image last read
        from or written to disk.  Why that is safe:

        (a) the page is unreachable; a stale reader that re-fetches it
            reads the rows a write-then-evict would have left on disk
            (a stored SHRINK bit sends it to retraverse, as it would
            have mid-top-action);
        (b) a crash before commit keeps a completed top action (the
            page stays deallocated and recovery frees it) or undoes an
            incomplete one (the page is re-allocated and re-read, and
            recovery's bit sweep clears a stored SHRINK bit) — the
            outcome when an asynchronous write had not reached the
            page yet, so no recovery path depends on that write;
        (c) keycopy redo needs only the source *rows*, which the stored
            image plus the log reconstruct; §3's force of the new pages
            is untouched;
        (d) a frame with a pending logged change (a foreground insert
            before the copy point) or one never stored is *not*
            dropped: it is aged to the ring's first-out end and takes
            the normal write path (False).  The page is only
            DEALLOCATED here — its transaction can still abort — so the
            change stays until eviction or a checkpoint writes it; if
            neither has by the time the page was freed and its id is
            handed out again, :meth:`new_page` drops the by then dead
            image under its own argument.
        """
        with self._lock:
            frame = self._lookup(page_id)
            if frame is None:
                return False
            if (
                frame.pin_count == 0
                and page_id not in self._writing
                and (
                    not frame.dirty
                    or frame.page.page_lsn == frame.clean_lsn
                )
            ):
                self._pop(page_id)
                if frame.dirty:
                    self.counters.add("pool_retired_unwritten")
                return True
            if frame.ring:
                frame.seq = 0  # out of the young band: evict (and write) early
                self._ring.move_to_end(page_id, last=False)
            return False

    def drop_page(self, page_id: int) -> None:
        """Evict a page without writing (its id was freed and recycled)."""
        with self._lock:
            frame = self._lookup(page_id)
            if frame is not None and frame.pin_count > 0:
                raise BufferError_(f"page {page_id} is pinned; cannot drop")
            self._pop(page_id)

    def crash(self) -> None:
        """Simulate a crash: lose every frame, flush nothing."""
        with self._lock:
            self._frames.clear()
            self._ring.clear()
            self._inflight.clear()
            self._writing.clear()
            self._cond.notify_all()

    # --------------------------------------------------------------- internals

    def _admit(
        self,
        page: Page,
        scan: bool = False,
        required: bool = True,
        prefetched: bool = False,
        clean_only: bool = False,
    ) -> _Frame | None:
        """Insert a frame, evicting if the pool is full.

        Scan-class admissions go to the ring, recycling the ring's own
        frames first.  With ``required=False`` (opportunistic
        admission) a pool full of pinned frames returns ``None`` instead
        of raising; ``clean_only`` additionally forbids writing a dirty
        victim (the prefetch paths must never write).  A ``prefetched``
        (speculative) admission never evicts a not-yet-consumed
        speculative ring frame: it must not cannibalize the live
        read-ahead window — that is how a prefetcher running ahead of the
        scan turns into re-reading the whole chain.  Evicting a dirty
        victim drops the lock, so residency is re-checked afterwards — if
        the page was admitted meanwhile, the existing frame is returned.
        """
        existing = self._lookup(page.page_id)
        if existing is not None:
            return existing
        if scan:
            while len(self._ring) >= self.ring_quota:
                if not self._evict_ring(clean_only, prefetched):
                    if clean_only:
                        return None
                    break  # every ring frame pinned: admit over quota
                existing = self._lookup(page.page_id)
                if existing is not None:
                    return existing
        while len(self._frames) + len(self._ring) >= self.capacity:
            # 2Q budget rule: until the ring has consumed its quota, a
            # scan admission takes a frame from the protected region
            # (coldest first) to grow the ring — so the scan's total toll
            # on the hot set is bounded by its quota, paid once, instead
            # of dripping out of a starved ring for the whole scan.  At
            # quota the ring recycles itself; everyone else recycles the
            # ring before touching protected.
            if not self._evict_one(
                required=required and not clean_only,
                scan=scan,
                clean_only=clean_only,
                prefer_protected=scan and len(self._ring) < self.ring_quota,
                spare_window=prefetched,
            ):
                return None
            existing = self._lookup(page.page_id)
            if existing is not None:
                return existing
        frame = _Frame(page)
        frame.prefetched = prefetched
        if scan:
            frame.ring = True
            self._admit_seq += 1
            frame.seq = self._admit_seq
            self._ring[page.page_id] = frame
            self.counters.add("ring_admits")
        else:
            self._frames[page.page_id] = frame
        return frame

    def _evict_ring(self, clean_only: bool, spare_window: bool) -> bool:
        """Recycle one ring frame.

        Victim priority: the oldest consumed frame (the scan is done with
        it), and only as a last resort the oldest not-yet-consumed
        speculative frame — evicting the read-ahead window re-buys its
        reads, so it goes last (and is forbidden entirely with
        ``spare_window``, a speculative admission's flag); such a frame
        is counted ``prefetch_unused`` when it goes.

        Within the consumed frames, two refinements: *old before young*
        — a recently admitted frame is the current top action's working
        set (a target still being appended to, a source its bit-clear
        will re-latch), and evicting it re-buys a read or pays a
        premature write, so frames admitted within the last eighth of
        the ring's quota yield to anything older — and *clean before
        dirty* within each age class (a clean frame evicts for free; a
        dirty one costs a write the write-behind batcher would
        otherwise coalesce).

        A dirty victim is written with its disk run (:meth:`_write_run`);
        the write drops the lock, so the victim is revalidated
        afterwards.  With ``clean_only`` dirty frames are skipped
        instead of written.
        """
        while True:
            young_floor = self._admit_seq - max(8, self.ring_quota // 8)
            old = old_dirty = young = young_dirty = window = None
            for pid, frame in self._ring.items():
                if frame.pin_count != 0 or (clean_only and frame.dirty):
                    continue
                if frame.prefetched:
                    if window is None:
                        window = (pid, frame)
                elif frame.seq > young_floor:
                    if frame.dirty:
                        if young_dirty is None:
                            young_dirty = (pid, frame)
                    elif young is None:
                        young = (pid, frame)
                elif frame.dirty:
                    if old_dirty is None:
                        old_dirty = (pid, frame)
                else:
                    old = (pid, frame)
                    break  # the first choice: nothing later can beat it
            choice = old or old_dirty or young or young_dirty or (
                None if spare_window else window
            )
            if choice is None:
                return False
            victim_id, victim = choice
            if victim.dirty:
                self._write_run(victim_id, victim)
                if (
                    self._ring.get(victim_id) is not victim
                    or victim.pin_count > 0
                    or victim.dirty
                ):
                    continue  # changed during the wait; pick again
            if victim.prefetched:
                self.counters.add("prefetch_unused")
            del self._ring[victim_id]
            return True

    def _evict_one(
        self,
        required: bool,
        scan: bool,
        clean_only: bool,
        prefer_protected: bool,
        spare_window: bool,
    ) -> bool:
        """Evict one frame: the ring first, then the protected LRU.

        ``prefer_protected`` inverts the order (a scan admission growing
        the ring toward its quota takes from the protected region first).
        Returns False (or raises, when ``required``) when nothing is
        evictable.
        """
        if prefer_protected and self._evict_protected(scan, clean_only):
            return True
        if self._evict_ring(clean_only, spare_window):
            return True
        if not prefer_protected and self._evict_protected(scan, clean_only):
            return True
        if required:
            raise BufferError_(
                f"buffer pool exhausted: all {self.capacity} frames pinned"
            )
        return False

    def _evict_protected(self, scan: bool, clean_only: bool) -> bool:
        """Evict one frame from the protected LRU, coldest first.

        The walk goes from the LRU end past any pinned frames — O(pinned
        prefix), O(1) in the common case.  A dirty victim's write drops
        the lock, so the victim is revalidated afterwards; with
        ``clean_only`` dirty frames are skipped instead of written.  A
        scan-class admission that reaches the protected region is counted
        under ``hot_evictions_by_scan``.
        """
        while True:
            victim_id = None
            victim = None
            for pid, frame in self._frames.items():
                if frame.pin_count == 0 and not (clean_only and frame.dirty):
                    victim_id, victim = pid, frame
                    break
            if victim_id is None or victim is None:
                return False
            if victim.dirty:
                self._write_unlocked([victim_id], force=True)
                if (
                    self._frames.get(victim_id) is not victim
                    or victim.pin_count > 0
                    or victim.dirty
                ):
                    continue  # changed during the wait; pick again
            if victim.prefetched:
                self.counters.add("prefetch_unused")
            del self._frames[victim_id]
            if scan:
                self.counters.add("hot_evictions_by_scan")
            return True

    def readahead_room(self) -> int:
        """Bound on speculative frames: what the I/O scheduler sizes its
        read-ahead window from — half the ring.  The other half is the
        copy loop's working room (current targets, just-consumed
        sources); a window beyond it is read only to be evicted
        unconsumed (``prefetch_unused``) and read again."""
        return self.ring_quota // 2

    def pin_room(self) -> int:
        """Bound on frames the rebuild may keep pinned across a top action
        (the locked source leaves): a quarter of the pool.  The rest is
        for what a top action pins on top of them — targets, PP, the
        propagation path — and for everyone else's fetches."""
        return self.capacity // 4

    def _write_run(self, page_id: int, frame: _Frame) -> None:
        """Write a dirty ring victim *and* the dirty frames of its
        io-size-aligned disk run in one physical call.

        The device moves ``pages_per_io`` consecutive pages per call, so
        the run-mates ride along for free and stay resident, clean —
        their own evictions then cost nothing.  Called with the lock
        held; it is released while :meth:`_write_batch` runs, which never
        waits on the ``writing`` table here.
        """
        while page_id in self._writing:
            self._cond.wait()
        if self._ring.get(page_id) is not frame or not frame.dirty:
            return
        ppio = self.disk.pages_per_io
        start = ((page_id - 1) // ppio) * ppio + 1
        tracer = self.tracer
        span = tracer.begin("buffer.gang_flush") if tracer is not None else None
        pages = 0
        try:
            pages = self._write_unlocked(
                list(range(start, start + ppio)), force=False
            )
        finally:
            if span is not None:
                span.attrs = {"pages": pages}
                tracer.finish(span)

    def _write_unlocked(self, page_ids: list[int], force: bool) -> int:
        """:meth:`_write_batch` with the (held) lock released around it.
        The world may have moved on by the time the lock is back: callers
        revalidate the frame they meant to clean."""
        self._lock.release()
        try:
            return self._write_batch(page_ids, force)
        finally:
            self._lock.acquire()

    def _read_run(self, page_id: int) -> tuple[int, list, list[int]]:
        """Read the aligned run containing ``page_id`` in one physical
        call, with the lock not held and ``page_id`` claimed in-flight by
        the caller.  Returns (run start, images, claimed neighbors).

        Before the read every run neighbor that is neither resident nor
        being read is claimed in the ``inflight`` table, and only claimed
        neighbors may be admitted from the images afterwards
        (:meth:`_admit_run`, which also releases the claims).  A page
        resident at claim time may hold a newer image than the disk's; if
        an evict-write of it lands during the read, the image read
        before is stale and must not shadow it.  A claimed page cannot
        become resident (fetches wait on the claim), so it cannot be
        written either — its image is current.
        """
        ppio = self.disk.pages_per_io
        start = ((page_id - 1) // ppio) * ppio + 1
        claimed: list[int] = []
        with self._lock:
            for pid in range(start, start + ppio):
                if (
                    pid != page_id
                    and pid not in self._inflight
                    and self._lookup(pid) is None
                ):
                    self._inflight.add(pid)
                    claimed.append(pid)
        try:
            images = self.retrying(lambda: self.disk.read_run(start, ppio))
        except BaseException:
            self._admit_run(claimed, start, [None] * ppio, scan=False)
            raise
        return start, images, claimed

    def _admit_run(
        self,
        claimed: list[int],
        start: int,
        images: list,
        scan: bool,
        clean_only: bool = True,
    ) -> None:
        """Release the neighbor claims of :meth:`_read_run` (lock not
        held), admitting each claimed page that has an image as an
        opportunistic prefetch — skipped when no frame is evictable."""
        claims = iter(claimed)
        with self._lock:
            try:
                for pid in claims:
                    self._inflight.discard(pid)
                    self._cond.notify_all()
                    image = images[pid - start]
                    if image is None or self._lookup(pid) is not None:
                        continue
                    admitted = self._admit(
                        Page.from_bytes(image, self.disk.page_size),
                        scan=scan,
                        required=False,
                        prefetched=True,
                        clean_only=clean_only,
                    )
                    if admitted is not None:
                        self.counters.add("prefetch_admitted")
            finally:
                # An admission raised (its eviction's write failed): nobody
                # may be left waiting on the claims not reached.
                self._inflight.difference_update(claims)
                self._cond.notify_all()

    def _read_aligned_run(self, page_id: int, scan: bool) -> None:
        """Miss path for large_io: read the aligned run containing the page.

        The physical read and the neighbors' admission run with the lock
        released — the caller holds the in-flight claim on ``page_id`` —
        so the target's residency is re-checked before it is admitted.
        """
        self._lock.release()
        try:
            start, images, claimed = self._read_run(page_id)
            self._admit_run(claimed, start, images, scan, clean_only=False)
        finally:
            self._lock.acquire()
        image = images[page_id - start]
        if image is None and self._lookup(page_id) is None:
            # read_run treats an invalid slot as absent; re-read the
            # required page directly so the disk raises the precise
            # error (never written vs ChecksumError).
            image = self._io_unlocked(lambda: self.disk.read(page_id))
        if self._lookup(page_id) is None:
            self._admit(Page.from_bytes(image, self.disk.page_size), scan=scan)

    # --------------------------------------------------------------- prefetch

    def prefetch(
        self, page_id: int, scan: bool = False
    ) -> tuple[bool, int | None]:
        """Opportunistically cache a page without pinning it (read-ahead).

        Used by the I/O scheduler's reader threads to pull upcoming source
        leaves into the pool while the copy loop is busy elsewhere.  Best
        effort on every axis: an already-resident page, one another thread
        is reading, a missing page, or a pool with no *clean* evictable
        frame all end the attempt quietly — a prefetch never writes a
        dirty page (that is the write path's job) and never pins.  What
        the device raises for the read (a :class:`PermanentIOError`, a
        transient error past the retry budget) propagates with every
        claim released; the reader counts it and drops the hint.

        Returns ``(read, next_page)``: whether a physical read was issued
        — the aligned run is then as cached as it will get, so the caller
        asks for none of its other pages — and the page's ``next_page``
        sibling pointer when the page is resident on return (``None``
        otherwise), so a caller without a better source of leaf order can
        chain along the leaf level.

        An already-resident page costs no frame and no I/O: the chain
        pointer is answered from the pool and the skip is counted under
        ``prefetch_skipped_resident``; a page with a read in flight is
        counted under ``prefetch_skipped_inflight``.  A target the run
        read brings back without a valid image (never written, or failing
        its CRC) is counted under ``prefetch_errors``; the demand fetch
        that follows raises the precise error.

        Misses read the whole aligned physical run (§6.3 large I/O), the
        same batching — and the same neighbor claims, see
        :meth:`_read_run` — the demand-fetch miss path uses.  The target
        stays claimed in-flight until it is admitted.  ``scan=True``
        admissions go to the ring and recycle only consumed ring frames
        — a prefetch storm can neither touch the protected region nor
        evict the read-ahead window it is filling.  The scheduler keeps
        the window within :meth:`readahead_room`.
        """
        start, images, claimed = page_id, [], []
        next_page: int | None = None
        try:
            with self._lock:
                frame = self._lookup(page_id)
                if frame is not None:
                    self.counters.add("prefetch_skipped_resident")
                    return False, frame.page.next_page
                if page_id in self._inflight:
                    self.counters.add("prefetch_skipped_inflight")
                    return False, None
                self._inflight.add(page_id)
                try:
                    self._lock.release()
                    try:
                        start, images, claimed = self._read_run(page_id)
                    finally:
                        self._lock.acquire()
                    image = images[page_id - start]
                    if image is None:
                        self.counters.add("prefetch_errors")
                    elif self._lookup(page_id) is None:
                        page = Page.from_bytes(image, self.disk.page_size)
                        if self._admit(
                            page, scan=scan, required=False,
                            prefetched=True, clean_only=True,
                        ) is not None:
                            self.counters.add("prefetch_admitted")
                            next_page = page.next_page
                finally:
                    self._inflight.discard(page_id)
                    self._cond.notify_all()
        finally:
            # The lock is dropped now: the target went first (when the
            # pool fills, the neighbors are the ones to skip).  Runs on
            # the error path too — it is what releases the neighbor
            # claims.
            self._admit_run(claimed, start, images, scan)
        return True, next_page

    def evict_all(self) -> None:
        """Flush every dirty page, then drop all unpinned frames.

        Cold-cache helper for benchmarks: the next phase starts with an
        empty pool but a consistent disk image.
        """
        self.flush_all()
        with self._lock:
            for table in (self._frames, self._ring):
                for pid in [
                    pid for pid, f in table.items() if f.pin_count == 0
                ]:
                    del table[pid]

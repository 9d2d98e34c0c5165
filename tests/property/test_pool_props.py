"""Property-based tests: buffer-pool replacement invariants (issue 8).

Random interleavings of demand fetches, scan fetches, prefetches, pins,
dirtying, and new-page allocations against pools of varying capacity
(hence ring quota: a quarter of the pool) must never (a) evict a pinned
frame, (b) exceed capacity, or (c) let a scan through the ring change a
pure-OLTP workload's hit pattern.  With logged row appends, unlogged
bit flips, flushes, large-I/O reads, ``retire_page``, pages freed and
their ids handed out again (``new_page`` drops the dead image) and
truncating checkpoints in the mix, (d) every fetch still sees every
logged change, and after a crash the stored images plus redo of what is
left of the log reproduce the model.  And (e) a write takes every
image under its page's S latch: what it stores is a state the page had
between two X-latched mutations, never one half done.
"""

import threading
import time
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency.latch import LatchManager, LatchMode
from repro.concurrency.syncpoints import SyncPoints
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page, PageFlag

PAGE_IDS = list(range(1, 61))

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["fetch", "scan", "prefetch", "pin", "new"]),
        st.sampled_from(PAGE_IDS),
        st.booleans(),  # dirty-on-unpin for fetch/pin ops
    ),
    min_size=1,
    max_size=120,
)

capacities = st.sampled_from([8, 16, 24, 32, 48])


def _make_pool(capacity: int) -> BufferPool:
    counters = Counters()
    disk = Disk(counters=counters)
    for pid in PAGE_IDS:
        disk.write(pid, Page(pid, disk.page_size).to_bytes())
    return BufferPool(disk, capacity=capacity, counters=counters)


@given(ops=op_strategy, capacity=capacities)
@settings(max_examples=120, deadline=None)
def test_pins_capacity_and_shard_quotas_hold(ops, capacity):
    pool = _make_pool(capacity)
    pinned: dict[int, int] = {}
    try:
        for op, pid, dirty in ops:
            if op == "fetch":
                pool.fetch(pid)
                pool.unpin(pid, dirty=dirty)
            elif op == "scan":
                pool.fetch(pid, scan=True)
                pool.unpin(pid, dirty=dirty)
            elif op == "prefetch":
                pool.prefetch(pid)
            elif op == "pin":
                # Hold a pin across later operations (bounded so the pool
                # cannot legitimately exhaust: < 8 frames pinned at once).
                if len(pinned) < 7 and pid not in pinned:
                    pool.fetch(pid)
                    pinned[pid] = 1
            elif op == "new":
                target = pid + 100  # fresh ids, never pinned elsewhere
                if not pool.is_resident(target):
                    pool.new_page(target, scan=dirty)
                    pool.unpin(target, dirty=True)

            # Invariant: a pinned page is always resident.
            for held in pinned:
                assert pool.is_resident(held), f"pinned {held} evicted"
                assert pool.pin_count(held) >= 1
            # Invariant: the pool never holds more frames than it has.
            assert len(pool._resident_ids()) <= capacity
    finally:
        for held in pinned:
            pool.unpin(held)
    # Everything still flushes and survives a reread.
    pool.flush_all()


@given(
    hot=st.lists(
        st.sampled_from(PAGE_IDS[:12]), min_size=5, max_size=60
    ),
    scan_pages=st.lists(
        st.sampled_from(PAGE_IDS[20:]), min_size=0, max_size=60
    ),
)
@settings(max_examples=80, deadline=None)
def test_oltp_hit_pattern_unchanged_by_scan_with_ring(hot, scan_pages):
    # Run the OLTP sequence alone, then the same sequence with a synthetic
    # scan interleaved after every op, through a pool big enough for the
    # OLTP working set beside its ring.  The demand hit/miss totals must
    # be identical: the ring absorbed the scan completely.
    def run(with_scan: bool) -> tuple[int, int]:
        pool = _make_pool(capacity=16)
        scans = iter(scan_pages if with_scan else [])
        for pid in hot:
            pool.fetch(pid)
            pool.unpin(pid)
            nxt = next(scans, None)
            if nxt is not None:
                pool.fetch(nxt, scan=True)
                pool.unpin(nxt)
        snap = pool.counters.snapshot()
        return snap["pool_demand_hits"], snap["pool_demand_misses"]

    assert run(False) == run(True)


# ------------------------------------------------- stored image + redo == model

WAL_IDS = PAGE_IDS[:12]

wal_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["logged", "logged", "bits", "retire", "flush", "scan",
             "large", "prefetch", "new", "free", "checkpoint"]
        ),
        # Few ids, so ops collide on a page: 1..12 are on disk from the
        # start (three 4-page runs), 101..104 exist once "new"ed.
        st.sampled_from(WAL_IDS + list(range(101, 105))),
    ),
    min_size=40,  # long enough for log-retire-refetch chains on one page
    max_size=150,
)


def run_wal_ops(ops, capacity: int) -> None:
    # The model is a durable log of row appends, each stamped into its
    # page's page_lsn the way log_page_change does.  Bit flips are the
    # rebuild's unlogged protocol state.  retire_page may drop a frame at
    # any time, and "free" ends a page's life: whatever of it is resident
    # when "new" hands the id out again is dropped by new_page, whose
    # first logged record formats the page.  "checkpoint" flushes every
    # frame and truncates the log.  Whatever is dropped, no logged change
    # may be lost — neither to a later fetch (a stale image shadowing a
    # newer one) nor to recovery (stored image + redo of what is left of
    # the log above its page_lsn).
    counters = Counters()
    disk = Disk(io_size=4 * 2048, counters=counters)
    for pid in WAL_IDS:
        disk.write(pid, Page(pid, disk.page_size).to_bytes())
    pool = BufferPool(disk, capacity=capacity, counters=counters)
    log: list[tuple[int, int, bytes | None]] = []  # (lsn, page id, row)
    truncated = 0  # records up to this LSN are gone from the log
    model: dict[int, list[bytes]] = {pid: [] for pid in WAL_IDS}

    def append_logged(pid: int, page: Page, formats: bool = False) -> None:
        lsn = len(log) + 1
        row = None if formats else b"r%d" % lsn
        if row is not None:
            page.append_row(row)
            model[pid].append(row)
        page.page_lsn = lsn
        log.append((lsn, pid, row))

    for op, pid in ops:
        if op == "checkpoint":
            pool.flush_all()
            truncated = len(log)
            continue
        if (op == "new") == (pid in model):
            continue  # only fresh or freed ids are allocated, live ones used
        if op == "new":
            model[pid] = []
            page = pool.new_page(pid, scan=bool(pid % 2))
            append_logged(pid, page, formats=True)
            append_logged(pid, page)
            pool.unpin(pid, dirty=True)
        elif op == "free":
            del model[pid]
        elif op == "retire":
            pool.retire_page(pid)
        elif op == "flush":
            pool.flush_page(pid)
        elif op == "prefetch":
            pool.prefetch(pid)
        else:
            page = pool.fetch(
                pid, large_io=op == "large", scan=op in ("scan", "bits")
            )
            assert page.rows == model[pid], f"{op} of {pid} lost a change"
            if op == "logged":
                append_logged(pid, page)
            elif op == "bits":
                page.set_flag(PageFlag.SHRINK)
                pool.mark_dirty(pid)
                page.clear_flag(PageFlag.SHRINK)
            pool.unpin(pid, dirty=op in ("logged", "bits"))

    pool.crash()  # every frame is lost; what is left of the log is durable
    for pid, rows in model.items():
        if disk.exists(pid):
            stored = Page.from_bytes(disk.read(pid), disk.page_size)
        else:
            stored = Page(pid, disk.page_size)
            stored.page_lsn = -1
        redone = list(stored.rows)
        for lsn, p, row in log[truncated:]:
            if p == pid and lsn > stored.page_lsn:
                if row is None:
                    redone = []
                else:
                    redone.append(row)
        assert redone == rows, f"page {pid}: stored image + redo != model"


@given(ops=wal_ops, capacity=capacities)
@settings(max_examples=100, deadline=None)
def test_stored_image_plus_redo_equals_model_with_retire(ops, capacity):
    run_wal_ops(ops, capacity)


def test_dropping_a_deallocated_pages_pending_change_is_told(monkeypatch):
    """Mutant: ``retire_page`` drops like ``new_page`` does — whatever the
    frame carries.  A page that is only deallocated can come back (its
    top action rolled back, its transaction a loser at restart), and the
    frame was the one place its last logged change lived."""

    def retire_dropping_anything(pool, page_id):
        pool.drop_page(page_id)
        return True

    ops = [("logged", 1), ("retire", 1), ("scan", 1)]
    run_wal_ops(ops, 8)
    monkeypatch.setattr(BufferPool, "retire_page", retire_dropping_anything)
    with pytest.raises(AssertionError, match="scan of 1 lost a change"):
        run_wal_ops(ops, 8)


# ------------------------------------------------ lock-free image_version


class _Watched(OrderedDict):
    """A frame table that calls ``probe`` after each change, so the
    lock-free reader is asked in every state between two table writes
    (a frame between the ring and the protected LRU, say)."""

    def __init__(self, table: OrderedDict, probe) -> None:
        super().__init__(table)
        self.probe = probe

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.probe()

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self.probe()

    def pop(self, key, *default):
        out = super().pop(key, *default)
        self.probe()
        return out


def locked_image_version(pool: BufferPool, page: Page) -> int | None:
    """The answer under the pool lock: what ``image_version`` read before
    it read without the lock."""
    with pool._lock:
        frame = pool._lookup(page.page_id)
        if frame is None or frame.page is not page:
            return None
        return frame.version


def watch_image_versions(pool: BufferPool):
    """Wrap both frame tables; returns (pages to ask about, answers)."""
    pages: list[Page] = []
    answers: list[tuple[Page, int | None]] = []

    def probe() -> None:
        answers.extend((page, pool.image_version(page)) for page in pages)

    pool._frames = _Watched(pool._frames, probe)
    pool._ring = _Watched(pool._ring, probe)
    return pages, answers


image_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["fetch", "scan", "promote", "prefetch", "evict", "realloc"]
        ),
        st.sampled_from(PAGE_IDS[:16]),
        st.booleans(),  # dirty on unpin
    ),
    min_size=1,
    max_size=80,
)


@given(ops=image_ops, capacity=capacities)
@settings(max_examples=80, deadline=None)
def test_lock_free_image_version_is_the_locked_answer_or_none(ops, capacity):
    """At rest the lock-free answer is the locked one; between two table
    writes it is the answer before the operation, the one after, or
    ``None`` — never the counter of a different ``Page`` (a re-read or
    reallocated id comes back as a new object)."""
    pool = _make_pool(capacity)
    watched, answers = watch_image_versions(pool)
    seen: dict[int, Page] = {}
    for op, pid, dirty in ops:
        watched[:] = seen.values()
        before = {id(p): locked_image_version(pool, p) for p in watched}
        answers.clear()
        page = None
        if op in ("fetch", "scan", "promote"):
            page = pool.fetch(pid, scan=op != "fetch")
            pool.unpin(pid, dirty=dirty)
            if op == "promote":
                page = pool.fetch(pid)  # a demand hit on a ring frame
                pool.unpin(pid)
        elif op == "prefetch":
            pool.prefetch(pid)
        elif op == "evict":
            pool.drop_page(pid)
        else:
            page = pool.new_page(pid, scan=dirty)  # drops the old image
            pool.unpin(pid, dirty=True)
        for p, answer in answers:
            assert answer in (
                None, before[id(p)], locked_image_version(pool, p)
            ), f"{op} {pid}: mid-operation answer matches no state"
        if page is not None:
            seen[id(page)] = page
        for p in seen.values():
            assert pool.image_version(p) == locked_image_version(pool, p)
            if pool.image_version(p) is not None:
                assert pool._lookup(p.page_id).page is p


def test_a_frame_caught_mid_promotion_reads_as_none():
    pool = _make_pool(16)
    watched, answers = watch_image_versions(pool)
    page = pool.fetch(5, scan=True)
    pool.unpin(5, dirty=True)
    noted = pool.image_version(page)
    watched.append(page)
    assert pool.fetch(5) is page  # the demand hit promotes the ring frame
    pool.unpin(5)
    assert (page, None) in answers  # between the ring and the LRU
    assert {answer for _p, answer in answers} <= {None, noted}
    assert pool.image_version(page) == noted


# ------------------------------------------------ images taken under latches

latched_ops = st.lists(
    st.tuples(
        st.sampled_from(PAGE_IDS[:8]),
        st.integers(min_value=2, max_value=4),  # rows one mutation appends
        # What writes while the mutation is half done: a forced write of
        # the page, a checkpoint's flush of every page, an eviction storm
        # over the pool (opportunistic writes), or nothing.
        st.sampled_from(["flush", "flush_all", "evict", "none"]),
    ),
    min_size=1,
    max_size=12,
)


def run_latched_writes(ops, capacity: int) -> None:
    """Each op mutates a page in several steps under its X latch, and a
    write starts while the mutation is half done.  Every image any write
    stores must be a state the page had when no X latch was held on it:
    the write waits for the latch, or skips the page."""
    pool = _make_pool(capacity)
    latches = LatchManager(counters=pool.counters, timeout=10.0)
    latches.syncpoints = SyncPoints()
    pool.set_latches(latches)
    states = {
        pid: {Page(pid, pool.disk.page_size).to_bytes()} for pid in PAGE_IDS
    }
    stored: list[tuple[int, bytes]] = []
    write, write_many = pool.disk.write, pool.disk.write_many

    def recording_write(pid, image):
        stored.append((pid, image))
        write(pid, image)

    def recording_write_many(images):
        stored.extend(images.items())
        write_many(images)

    pool.disk.write, pool.disk.write_many = recording_write, recording_write_many
    waited = threading.Event()
    latches.syncpoints.on("latch.wait", lambda ctx: waited.set())
    for step, (pid, rows, writer) in enumerate(ops):
        half, go = threading.Event(), threading.Event()
        errors: list[BaseException] = []

        def mutate() -> None:
            try:
                latches.acquire(pid, LatchMode.X)
                page = pool.fetch(pid)
                for row in range(rows):
                    page.append_row(b"s%d.%d" % (step, row))
                    page.page_lsn += 1
                    if row == 0:
                        pool.mark_dirty(pid)
                        half.set()
                        assert go.wait(10)
                states[pid].add(page.to_bytes())
                pool.unpin(pid, dirty=True)
                latches.release(pid)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                half.set()

        def write_now() -> None:
            try:
                if writer == "flush":
                    pool.flush_page(pid)
                elif writer == "flush_all":
                    pool.flush_all()
                else:
                    for other in PAGE_IDS:
                        if other != pid:
                            pool.fetch(other, scan=other % 2 == 0)
                            pool.unpin(other, dirty=other % 3 == 0)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        waited.clear()
        mutator = threading.Thread(target=mutate)
        mutator.start()
        assert half.wait(10)
        if writer != "none":
            writing = threading.Thread(target=write_now)
            writing.start()
            # A write that waits for the latch has shown it; one that does
            # not wait is done once the thread ends.
            deadline = time.monotonic() + 10
            while not waited.is_set() and writing.is_alive():
                assert time.monotonic() < deadline
                time.sleep(0.0005)
        go.set()
        mutator.join(10)
        if writer != "none":
            writing.join(10)
        assert not errors, errors
    pool.flush_all()
    for pid, image in stored:
        assert image in states[pid], f"page {pid}: a half-done state stored"


@given(ops=latched_ops, capacity=st.sampled_from([8, 16]))
@settings(max_examples=40, deadline=None)
def test_every_stored_image_is_a_latched_state(ops, capacity):
    run_latched_writes(ops, capacity)

"""Unit tests for the buffer pool: pinning, LRU, WAL hook, crash."""

import threading

import pytest

from repro.errors import BufferError_, StorageError
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page
from tests.storage.test_buffer_concurrency import GatedDisk


@pytest.fixture
def counters() -> Counters:
    return Counters()


@pytest.fixture
def disk(counters) -> Disk:
    return Disk(counters=counters)


@pytest.fixture
def pool(disk, counters) -> BufferPool:
    return BufferPool(disk, capacity=8, counters=counters)


def put_page(disk: Disk, pid: int, marker: bytes = b"") -> None:
    page = Page(pid)
    if marker:
        page.append_row(marker)
    disk.write(pid, page.to_bytes())


def test_fetch_miss_reads_from_disk(pool, disk):
    put_page(disk, 1, b"hello")
    page = pool.fetch(1)
    assert page.rows == [b"hello"]
    pool.unpin(1)


def test_fetch_missing_page_raises(pool):
    with pytest.raises(StorageError):
        pool.fetch(99)


def test_fetch_hit_returns_same_object(pool, disk):
    put_page(disk, 1)
    a = pool.fetch(1)
    b = pool.fetch(1)
    assert a is b
    pool.unpin(1)
    pool.unpin(1)


def test_unpin_without_pin_raises(pool, disk):
    put_page(disk, 1)
    pool.fetch(1)
    pool.unpin(1)
    with pytest.raises(BufferError_):
        pool.unpin(1)


def test_new_page_is_pinned_and_dirty(pool):
    page = pool.new_page(5)
    assert page.page_id == 5
    assert pool.pin_count(5) == 1
    pool.unpin(5)
    pool.flush_page(5)
    assert pool.disk.exists(5)


def test_new_page_replaces_stale_resident_incarnation(pool, disk, counters):
    """A resident previous incarnation is a dead image: dropped, however
    dirty, never written."""
    put_page(disk, 3, b"old")
    old = pool.fetch(3)
    old.append_row(b"pending change")  # what a write of it would store
    pool.unpin(3, dirty=True)
    calls = counters.disk_io_calls
    fresh = pool.new_page(3)
    assert fresh.rows == []
    assert fresh is not old
    assert counters.disk_io_calls == calls
    assert counters.page_writes == 0
    assert counters.pool_dead_images_dropped == 1
    # The stored image is still the old incarnation's, untouched.
    assert Page.from_bytes(disk.read(3)).rows == [b"old"]
    pool.unpin(3)
    # A clean one is dropped (and counted) the same way; no frame, nothing.
    put_page(disk, 4)
    pool.fetch(4)
    pool.unpin(4)
    pool.new_page(4)
    pool.unpin(4)
    pool.new_page(5)
    pool.unpin(5)
    assert counters.pool_dead_images_dropped == 2


def test_new_page_waits_out_a_write_of_the_dead_image_in_flight(counters):
    """The ``writing`` table names resident pages only: a write of the
    previous incarnation already in the device is let finish first."""
    disk = GatedDisk(Disk(counters=counters))
    pool = BufferPool(disk, capacity=8, counters=counters)
    put_page(disk, 3, b"old")
    pool.fetch(3).append_row(b"newer")
    pool.unpin(3, dirty=True)
    disk.write_gate.clear()
    flusher = threading.Thread(target=pool.flush_page, args=(3,))
    flusher.start()
    assert disk.write_entered.wait(10)
    cond = pool._cond
    parked, real_wait = threading.Event(), cond.wait

    def wait_noting_it(timeout=None):
        parked.set()
        return real_wait(timeout)

    cond.wait = wait_noting_it
    got: list[Page] = []
    allocator = threading.Thread(target=lambda: got.append(pool.new_page(3)))
    allocator.start()
    assert parked.wait(10) and not got  # parked behind the write
    disk.write_gate.set()
    flusher.join(10)
    allocator.join(10)
    assert not flusher.is_alive() and not allocator.is_alive()
    assert got and got[0].rows == []
    assert counters.pool_dead_images_dropped == 1
    assert Page.from_bytes(disk.read(3)).rows == [b"old", b"newer"]
    # The finished write did not clean the new incarnation's frame.
    writes = counters.page_writes
    pool.unpin(3)
    pool.flush_page(3)
    assert counters.page_writes == writes + 1


def test_new_page_on_pinned_frame_raises(pool, disk):
    put_page(disk, 3)
    pool.fetch(3)
    with pytest.raises(BufferError_):
        pool.new_page(3)
    pool.unpin(3)


def test_lru_eviction_prefers_oldest_unpinned(pool, disk):
    for pid in range(1, 9):
        put_page(disk, pid)
        pool.fetch(pid)
        pool.unpin(pid)
    pool.fetch(1)  # refresh page 1
    pool.unpin(1)
    put_page(disk, 9)
    pool.fetch(9)  # evicts page 2 (oldest untouched)
    pool.unpin(9)
    assert pool.is_resident(1)
    assert not pool.is_resident(2)


def test_eviction_writes_dirty_page(pool, disk):
    page = pool.new_page(1)
    page.append_row(b"dirty")
    pool.unpin(1, dirty=True)
    for pid in range(2, 11):
        put_page(disk, pid)
        pool.fetch(pid)
        pool.unpin(pid)
    assert not pool.is_resident(1)
    assert Page.from_bytes(disk.read(1)).rows == [b"dirty"]


def test_all_pinned_pool_exhaustion(disk, counters):
    pool = BufferPool(disk, capacity=8, counters=counters)
    for pid in range(1, 9):
        put_page(disk, pid)
        pool.fetch(pid)  # keep pinned
    put_page(disk, 9)
    with pytest.raises(BufferError_):
        pool.fetch(9)


def test_wal_hook_called_before_dirty_write(pool):
    flushed = []
    pool.set_wal_hook(flushed.append)
    page = pool.new_page(1)
    page.page_lsn = 777
    pool.unpin(1, dirty=True)
    pool.flush_page(1)
    assert flushed == [777]


def test_flush_pages_batches_and_cleans(pool, counters):
    for pid in (10, 11, 12):
        page = pool.new_page(pid)
        page.append_row(b"x")
        pool.unpin(pid, dirty=True)
    before = counters.disk_io_calls
    pool.flush_pages([10, 11, 12])
    assert pool.disk.exists(11)
    # Flushing again writes nothing: frames are clean now.
    mid = counters.disk_io_calls
    pool.flush_pages([10, 11, 12])
    assert counters.disk_io_calls == mid
    assert before < mid


def test_flush_pages_large_io_coalesces(counters):
    disk = Disk(io_size=2048 * 8, counters=counters)
    pool = BufferPool(disk, capacity=32, counters=counters)
    for pid in range(1, 17):
        page = pool.new_page(pid)
        pool.unpin(pid, dirty=True)
    before = counters.disk_io_calls
    pool.flush_pages(list(range(1, 17)))
    assert counters.disk_io_calls - before == 2  # 16 contiguous / 8 per IO


def test_crash_discards_unflushed(pool, disk):
    page = pool.new_page(1)
    page.append_row(b"lost")
    pool.unpin(1, dirty=True)
    pool.crash()
    assert not pool.is_resident(1)
    assert not disk.exists(1)


def test_drop_page_refuses_pinned(pool, disk):
    put_page(disk, 1)
    pool.fetch(1)
    with pytest.raises(BufferError_):
        pool.drop_page(1)
    pool.unpin(1)
    pool.drop_page(1)
    assert not pool.is_resident(1)


def test_large_io_fetch_populates_neighbors(counters):
    disk = Disk(io_size=2048 * 4, counters=counters)
    pool = BufferPool(disk, capacity=32, counters=counters)
    for pid in range(1, 9):
        put_page(disk, pid, b"p%d" % pid)
    before = counters.disk_io_calls
    pool.fetch(2, large_io=True)
    pool.unpin(2)
    assert counters.disk_io_calls - before == 1
    # Pages 1-4 (the aligned run) are now resident without further IO.
    assert pool.is_resident(1)
    assert pool.is_resident(4)
    assert not pool.is_resident(5)


def test_minimum_capacity_enforced(disk):
    with pytest.raises(BufferError_):
        BufferPool(disk, capacity=2)


def test_flush_pages_skips_clean_frames_entirely(pool, disk, monkeypatch):
    """Clean frames must not be serialized, let alone written."""
    put_page(disk, 1, b"clean")
    pool.fetch(1)
    pool.unpin(1)  # resident and clean
    page = pool.new_page(2)
    page.append_row(b"dirty")
    pool.unpin(2, dirty=True)

    serialized = []
    orig = Page.to_bytes

    def counting_to_bytes(self):
        serialized.append(self.page_id)
        return orig(self)

    monkeypatch.setattr(Page, "to_bytes", counting_to_bytes)
    before = pool.counters.page_writes
    pool.flush_pages([1, 2])
    assert serialized == [2]  # the clean frame was never touched
    assert pool.counters.page_writes - before == 1


def test_flush_pages_writes_duplicates_once(pool, counters):
    page = pool.new_page(5)
    page.append_row(b"x")
    pool.unpin(5, dirty=True)
    before = counters.page_writes
    pool.flush_pages([5, 5, 5])
    assert counters.page_writes - before == 1


def test_run_miss_survives_prefetch_eviction(counters):
    """Regression: when a demand run miss's run-mates fill the pool, their
    admissions must not evict the target page itself (which used to force
    a second, redundant physical read of the target): ``_miss`` admits
    the target first and pins it before any run-mate."""
    disk = Disk(io_size=2048 * 8, counters=counters)  # 8 pages per IO
    pool = BufferPool(disk, capacity=8, counters=counters)
    for pid in range(1, 17):
        put_page(disk, pid, b"p%d" % pid)
    # Pin 7 frames from the second run: one evictable slot remains.
    for pid in range(9, 16):
        pool.fetch(pid)
    before = counters.disk_io_calls
    page = pool.fetch(1, large_io=True)  # run 1-8 wants 8 frames
    assert counters.disk_io_calls - before == 1  # the run read, nothing more
    assert page.rows == [b"p1"]
    assert pool.is_resident(1)
    assert pool.pin_count(1) == 1
    pool.unpin(1)  # must not raise: the frame returned is the resident one
    for pid in range(9, 16):
        pool.unpin(pid)


def test_prefetch_resident_page_skips_io_and_counts(pool, disk, counters):
    put_page(disk, 1)
    pool.fetch(1)
    pool.unpin(1)
    before_io = counters.disk_io_calls
    before_skip = counters.prefetch_skipped_resident
    assert pool.prefetch(1) is False
    assert counters.disk_io_calls == before_io  # answered from the pool
    assert counters.prefetch_skipped_resident == before_skip + 1


def test_prefetch_reads_whole_aligned_run(counters):
    """A prefetch miss batches like the demand-miss path: one physical
    call pulls the full aligned run in, target plus neighbors, so one
    reader thread can stay ahead of several copy workers."""
    disk = Disk(io_size=2048 * 4, counters=counters)  # 4 pages per IO
    pool = BufferPool(disk, capacity=32, counters=counters)  # ring of 8
    for pid in range(1, 9):
        put_page(disk, pid, b"p%d" % pid)
    before = counters.disk_io_calls
    pool.prefetch(6)  # aligned run is 5..8
    assert counters.disk_io_calls - before == 1
    for pid in (5, 6, 7, 8):
        assert pool.is_resident(pid), pid
    # Neighbors were admitted unpinned to the ring: pressure reclaims
    # them first, and fetching one is a hit, not a second read.
    before = counters.disk_io_calls
    page = pool.fetch(7)
    assert counters.disk_io_calls == before
    assert page.rows == [b"p7"]
    pool.unpin(7)


def test_failed_miss_read_leaves_a_finished_span_that_names_the_error(counters):
    """A read that raises is the read a post-mortem wants: its
    ``buffer.read`` span is finished with the error's name, stays nobody's
    parent, and the read that then succeeds is the one timed sample.  A
    run read — a demand run or read-ahead — is one span and one sample
    too, whatever the number of pages it brings in."""
    from repro.errors import PermanentIOError
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.storage.faults import FaultKind, FaultPlan, FaultSpec, FaultyDisk

    plan = FaultPlan().at(FaultSpec(op="read", nth=1, kind=FaultKind.PERMANENT))
    disk = FaultyDisk(
        Disk(io_size=2048 * 4, counters=counters), plan, counters=counters
    )
    for pid in range(1, 13):
        put_page(disk, pid, b"p%d" % pid)
    pool = BufferPool(disk, capacity=32, counters=counters)
    pool.tracer = Tracer(capacity=16)
    pool.metrics = MetricsRegistry(counters)
    with pytest.raises(PermanentIOError):
        pool.fetch(1)
    assert pool.tracer.current() is None  # not left open on this thread
    assert pool.fetch(1).rows == [b"p1"]
    pool.unpin(1)
    histogram = pool.metrics.histogram("buffer_read_seconds")
    assert histogram.snapshot()["count"] == 1
    assert len(pool.service_samples()) == 1  # successful attempts only
    assert pool.fetch(6, large_io=True).rows == [b"p6"]  # run 5..8
    pool.unpin(6)
    pool.prefetch(10)  # run 9..12
    failed, read, run, ahead = [
        s for s in pool.tracer.spans() if s.name == "buffer.read"
    ]
    assert failed.attrs["error"] == "PermanentIOError" and failed.end is not None
    assert "error" not in read.attrs and read.parent_id is None
    assert (read.attrs["page_id"], read.attrs["pages"]) == (1, 1)
    assert (run.attrs["page_id"], run.attrs["pages"]) == (5, 4)
    assert not run.attrs["speculative"] and ahead.attrs["speculative"]
    assert (ahead.attrs["page_id"], ahead.attrs["pages"]) == (9, 4)
    assert histogram.snapshot()["count"] == 3

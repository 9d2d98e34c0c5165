"""One read pass, one write pass: retire, run-aligned eviction writes, and
the claimed run read.

* :meth:`BufferPool.retire_page` drops a deallocated page's frame without
  writing it when the stored image already carries every logged change —
  and only then (each clause of its safety argument has a test here).
* A dirty ring victim is written together with the dirty frames of its
  io-size-aligned disk run in one call.
* A large-I/O read admits only the neighbors it claimed before the read,
  so an image read before a concurrent evict-write never shadows it.
"""

import threading

import pytest

from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page, PageFlag
from tests.storage.test_buffer_concurrency import GatedDisk


@pytest.fixture
def counters() -> Counters:
    return Counters()


def put_page(disk, pid: int, marker: bytes = b"", lsn: int = 0) -> None:
    page = Page(pid, disk.page_size)
    if marker:
        page.append_row(marker)
    page.page_lsn = lsn
    disk.write(pid, page.to_bytes())


def stored_rows(disk, pid: int) -> list[bytes]:
    return Page.from_bytes(disk.read(pid), disk.page_size).rows


def set_and_clear_shrink(pool: BufferPool, pid: int, scan: bool = False) -> None:
    """What a top action does to a source leaf: two unlogged bit flips."""
    for flip in (Page.set_flag, Page.clear_flag):
        flip(pool.fetch(pid, scan=scan), PageFlag.SHRINK)
        pool.unpin(pid, dirty=True)


class HookedDisk(GatedDisk):
    """GatedDisk whose gate also holds ``write_many`` (every batch write),
    plus a one-shot callback between a ``read_run`` and its return."""

    after_read_run = None

    def write_many(self, items) -> None:  # noqa: ANN001
        self.write_entered.set()
        assert self.write_gate.wait(timeout=10), "write gate never released"
        self.inner.write_many(items)

    def read_run(self, start: int, count: int):  # noqa: ANN201
        images = self.inner.read_run(start, count)
        if self.after_read_run is not None:
            hook, self.after_read_run = self.after_read_run, None
            hook()
        return images


# ------------------------------------------------------------------ retire


def test_retire_drops_bits_only_dirty_frame_without_writing(counters):
    disk = Disk(counters=counters)
    put_page(disk, 1, b"row", lsn=7)
    pool = BufferPool(disk, capacity=8, counters=counters)
    set_and_clear_shrink(pool, 1)
    before = counters.snapshot()
    assert pool.retire_page(1) is True
    delta = counters.diff(before)
    assert not pool.is_resident(1)
    assert delta.get("disk_io_calls", 0) == 0
    assert delta.get("page_writes", 0) == 0
    assert delta["pool_retired_unwritten"] == 1
    # A stale reader re-fetches the rows a write-then-evict would have left.
    assert pool.fetch(1).rows == [b"row"]
    pool.unpin(1)


def test_retire_of_a_clean_or_absent_page_is_free_and_uncounted(counters):
    disk = Disk(counters=counters)
    put_page(disk, 1)
    pool = BufferPool(disk, capacity=8, counters=counters)
    pool.fetch(1)
    pool.unpin(1)
    assert pool.retire_page(1) is True
    assert pool.retire_page(1) is False  # nothing resident
    assert counters.pool_retired_unwritten == 0


def test_retire_keeps_a_pending_logged_change_and_eviction_writes_it(counters):
    disk = Disk(counters=counters)
    for pid in range(1, 14):
        put_page(disk, pid, lsn=3)
    pool = BufferPool(disk, capacity=8, counters=counters)  # a 2-frame ring
    for pid in range(4, 14):  # a scan well under way (ring tickets advance)
        pool.fetch(pid, scan=True)
        pool.unpin(pid)
    # A foreground insert below the copy point: logged, so page_lsn moves.
    page = pool.fetch(1, scan=True)
    page.append_row(b"insert")
    page.page_lsn = 9
    pool.unpin(1, dirty=True)
    pool.fetch(2, scan=True)
    pool.unpin(2)
    set_and_clear_shrink(pool, 1, scan=True)  # youngest ring frame again
    assert pool.retire_page(1) is False
    assert pool.is_resident(1)
    assert stored_rows(disk, 1) == []
    assert counters.pool_retired_unwritten == 0
    # Kept, but aged to the ring's first-out end: the next recycling takes
    # the normal write path for it and spares the scan's live page 2.
    pool.fetch(3, scan=True)
    pool.unpin(3)
    assert not pool.is_resident(1) and pool.is_resident(2)
    assert stored_rows(disk, 1) == [b"insert"]


def test_retire_after_the_change_was_stored_drops_the_frame(counters):
    disk = Disk(counters=counters)
    put_page(disk, 1, lsn=3)
    pool = BufferPool(disk, capacity=8, counters=counters)
    page = pool.fetch(1)
    page.append_row(b"insert")
    page.page_lsn = 9
    pool.unpin(1, dirty=True)
    pool.flush_page(1)  # stored image now at LSN 9
    set_and_clear_shrink(pool, 1)
    writes = counters.disk_pages_written
    assert pool.retire_page(1) is True
    assert counters.disk_pages_written == writes
    assert stored_rows(disk, 1) == [b"insert"]


def test_retire_never_drops_a_new_page_that_was_not_stored(counters):
    disk = Disk(counters=counters)
    pool = BufferPool(disk, capacity=8, counters=counters)
    page = pool.new_page(5)
    page.append_row(b"fresh")
    pool.unpin(5, dirty=True)
    assert pool.retire_page(5) is False  # page_lsn 0 is not "stored at 0"
    assert pool.is_resident(5)
    pool.flush_page(5)
    assert stored_rows(disk, 5) == [b"fresh"]
    set_and_clear_shrink(pool, 5)
    assert pool.retire_page(5) is True


def test_retire_refuses_pinned_and_writing_frames(counters):
    disk = HookedDisk(Disk(counters=counters))
    put_page(disk, 1, b"row", lsn=4)
    pool = BufferPool(disk, capacity=8, counters=counters)
    set_and_clear_shrink(pool, 1)
    pool.fetch(1)
    assert pool.retire_page(1) is False  # pinned
    pool.unpin(1)
    disk.write_gate.clear()
    flusher = threading.Thread(target=pool.flush_page, args=(1,))
    flusher.start()
    assert disk.write_entered.wait(timeout=10)
    try:
        assert pool.retire_page(1) is False  # a write of it is in flight
        assert pool.is_resident(1)
    finally:
        disk.write_gate.set()
        flusher.join(timeout=10)
    assert not flusher.is_alive()
    assert pool.retire_page(1) is True  # clean now


# ------------------------------------------------- run-aligned eviction write


def run_of_dirty_ring_frames(counters, disk=None):
    """8 pages per I/O: pages 1..8 (one disk run) resident, dirty, in the
    ring, which is at its quota (8 of 32 frames)."""
    disk = disk or Disk(io_size=8 * 2048, counters=counters)
    for pid in range(1, 9):
        put_page(disk, pid)
    pool = BufferPool(disk, capacity=32, counters=counters)
    for pid in range(1, 9):
        pool.fetch(pid, scan=True).append_row(b"dirty-%d" % pid)
        pool.unpin(pid, dirty=True)
    return disk, pool


def test_evicting_one_dirty_ring_frame_writes_its_whole_run_in_one_call(counters):
    disk, pool = run_of_dirty_ring_frames(counters)
    before = counters.snapshot()
    pool.new_page(9, scan=True)  # the ring is full: evicts page 1
    pool.unpin(9)
    delta = counters.diff(before)
    assert delta["disk_io_calls"] == 1
    assert delta["disk_pages_written"] == 8
    assert not pool.is_resident(1)
    assert all(pool.is_resident(pid) for pid in range(2, 9))
    # All eight are clean: forcing them again writes nothing.
    pool.flush_pages(list(range(1, 9)))
    assert counters.disk_pages_written == before["disk_pages_written"] + 8
    for pid in range(1, 9):
        assert stored_rows(disk, pid) == [b"dirty-%d" % pid]


def test_run_write_span_reports_pages(counters):
    from repro.obs.tracer import Tracer

    _disk, pool = run_of_dirty_ring_frames(counters)
    pool.tracer = Tracer(capacity=16)
    pool.new_page(9, scan=True)
    pool.unpin(9)
    (span,) = [s for s in pool.tracer.spans() if s.name == "buffer.gang_flush"]
    assert span.attrs == {"pages": 8}


def test_run_mate_redirtied_during_the_run_write_stays_dirty(counters):
    disk, pool = run_of_dirty_ring_frames(
        counters, HookedDisk(Disk(io_size=8 * 2048, counters=counters))
    )
    disk.write_gate.clear()

    def force_eviction() -> None:
        pool.new_page(9, scan=True)
        pool.unpin(9)

    evictor = threading.Thread(target=force_eviction)
    evictor.start()
    assert disk.write_entered.wait(timeout=10)
    try:
        pool.fetch(2, scan=True).append_row(b"late")
        pool.unpin(2, dirty=True)
    finally:
        disk.write_gate.set()
        evictor.join(timeout=10)
    assert not evictor.is_alive()
    assert stored_rows(disk, 2) == [b"dirty-2"]
    written = counters.disk_pages_written
    pool.flush_pages(list(range(2, 9)))
    assert counters.disk_pages_written == written + 1  # only page 2
    assert stored_rows(disk, 2) == [b"dirty-2", b"late"]


def test_run_write_skips_pinned_mates_and_keeps_them_dirty(counters):
    disk, pool = run_of_dirty_ring_frames(counters)
    pool.fetch(6, scan=True)  # pinned: may be mid-modification
    written = counters.disk_pages_written
    pool.new_page(9, scan=True)
    pool.unpin(9)
    assert counters.disk_pages_written == written + 7
    assert stored_rows(disk, 6) == []
    pool.unpin(6)
    pool.flush_page(6)
    assert stored_rows(disk, 6) == [b"dirty-6"]


# ------------------------------------------------------- claimed run reads


@pytest.mark.parametrize("via", ["fetch", "prefetch"])
def test_run_read_never_admits_a_neighbor_written_during_the_read(
    counters, via
):
    """run-read → evict-write → admit: page 2 is resident and newer than
    its disk image when the run read of page 1 starts; the write and the
    eviction land while the read is in the device.  The image the read
    returned for page 2 is stale and must not be admitted."""
    disk = HookedDisk(Disk(io_size=8 * 2048, counters=counters))
    for pid in range(1, 9):
        put_page(disk, pid, b"old-%d" % pid)
    pool = BufferPool(disk, capacity=64, counters=counters)
    pool.fetch(2).append_row(b"committed-update")
    pool.unpin(2, dirty=True)
    disk.after_read_run = pool.evict_all  # flush page 2, drop its frame
    if via == "fetch":
        pool.fetch(1, large_io=True)
        pool.unpin(1)
    else:
        pool.prefetch(1)
    assert disk.after_read_run is None, "the run read never happened"
    assert pool.is_resident(3)  # clean neighbors are still admitted
    assert pool.fetch(2).rows == [b"old-2", b"committed-update"]
    pool.unpin(2)


def test_run_read_failure_releases_the_neighbor_claims(counters):
    disk = HookedDisk(Disk(io_size=8 * 2048, counters=counters))
    for pid in range(1, 9):
        put_page(disk, pid)

    def fail() -> None:
        raise RuntimeError("device error")

    pool = BufferPool(disk, capacity=64, counters=counters)
    disk.after_read_run = fail
    with pytest.raises(RuntimeError):
        pool.fetch(1, large_io=True)
    # Neither the target nor a neighbor is left claimed: both read fine.
    for pid in (1, 2, 5):
        pool.fetch(pid)
        pool.unpin(pid)


def test_admission_failure_releases_the_claims_not_reached(
    counters, monkeypatch
):
    """The run read came back, the target was admitted, and admitting the
    first neighbor raised (its eviction's write failed): the target and
    the neighbors behind it must not stay claimed, or the next fetch of
    one waits forever."""
    disk = HookedDisk(Disk(io_size=8 * 2048, counters=counters))
    for pid in range(1, 9):
        put_page(disk, pid)
    pool = BufferPool(disk, capacity=64, counters=counters)
    admit = pool._admit

    def fail_once(page, *args, **kwargs):
        if page.page_id == 1:  # ``_miss`` admits the target first
            return admit(page, *args, **kwargs)
        monkeypatch.setattr(pool, "_admit", admit)
        raise RuntimeError("eviction write failed")

    monkeypatch.setattr(pool, "_admit", fail_once)
    with pytest.raises(RuntimeError):
        pool.fetch(1, large_io=True)
    assert not pool._inflight
    assert pool.pin_count(1) == 0  # the admitted target is not left pinned
    for pid in range(1, 9):
        pool.fetch(pid)
        pool.unpin(pid)

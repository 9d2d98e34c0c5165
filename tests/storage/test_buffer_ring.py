"""Scan-resistant replacement: rebuild ring, 2Q promotion, lock striping."""

import threading

import pytest

from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page


@pytest.fixture
def counters() -> Counters:
    return Counters()


@pytest.fixture
def disk(counters) -> Disk:
    return Disk(counters=counters)


def put_page(disk: Disk, pid: int, marker: bytes = b"") -> None:
    page = Page(pid, disk.page_size)
    if marker:
        page.append_row(marker)
    disk.write(pid, page.to_bytes())


def make_pool(disk, counters, capacity=16, shards=1) -> BufferPool:
    """The ring is a quarter of each shard's slice: 4 frames of 16."""
    return BufferPool(
        disk, capacity=capacity, counters=counters, shards=shards
    )


def test_demand_hit_and_miss_counters(disk, counters):
    pool = make_pool(disk, counters, capacity=8)
    put_page(disk, 1)
    pool.fetch(1)
    pool.unpin(1)
    pool.fetch(1)
    pool.unpin(1)
    snap = counters.snapshot()
    assert snap["pool_demand_misses"] == 1
    assert snap["pool_demand_hits"] == 1
    # Scan-class fetches are not OLTP traffic and count under neither.
    pool.fetch(1, scan=True)
    pool.unpin(1)
    after = counters.snapshot()
    assert after["pool_demand_misses"] == 1
    assert after["pool_demand_hits"] == 1


# ----------------------------------------------------------------- the ring


def test_ring_bounds_scan_displacement(disk, counters):
    pool = make_pool(disk, counters, capacity=16)
    hot = list(range(1, 13))  # 12 hot pages, 4 frames of headroom
    for pid in hot:
        put_page(disk, pid)
        pool.fetch(pid)
        pool.unpin(pid)
    for pid in range(100, 150):  # a 50-leaf scan through a 4-frame ring
        put_page(disk, pid)
        pool.fetch(pid, scan=True)
        pool.unpin(pid)
    for pid in hot:
        assert pool.is_resident(pid), f"scan displaced hot page {pid}"
    snap = counters.snapshot()
    assert snap["ring_admits"] == 50
    assert snap["hot_evictions_by_scan"] == 0


def test_demand_hit_promotes_ring_page_to_protected(disk, counters):
    pool = make_pool(disk, counters, capacity=16)
    put_page(disk, 1)
    pool.fetch(1, scan=True)  # admitted to the ring
    pool.unpin(1)
    pool.fetch(1)  # demand re-reference: promoted
    pool.unpin(1)
    assert counters.snapshot()["ring_promotions"] == 1
    # Promoted out of the ring: a long scan can no longer displace it.
    for pid in range(100, 140):
        put_page(disk, pid)
        pool.fetch(pid, scan=True)
        pool.unpin(pid)
    assert pool.is_resident(1)


def test_scan_rereference_stays_in_ring(disk, counters):
    pool = make_pool(disk, counters, capacity=16)
    put_page(disk, 1)
    pool.fetch(1, scan=True)
    pool.unpin(1)
    pool.fetch(1, scan=True)
    pool.unpin(1)
    snap = counters.snapshot()
    assert snap["ring_admits"] == 1
    assert snap["ring_promotions"] == 0


def test_new_page_scan_goes_to_ring_and_recycles(disk, counters):
    pool = make_pool(disk, counters, capacity=16)
    hot = list(range(1, 11))
    for pid in hot:
        put_page(disk, pid)
        pool.fetch(pid)
        pool.unpin(pid)
    # A rebuild allocating many fresh targets churns only the ring; the
    # dirty ring victims are written out on recycle, not lost.
    for pid in range(100, 120):
        page = pool.new_page(pid, scan=True)
        page.append_row(b"x" * 8)
        pool.unpin(pid, dirty=True)
    for pid in hot:
        assert pool.is_resident(pid)
    for pid in range(100, 116):  # all but the ring's current residents
        if not pool.is_resident(pid):
            assert disk.exists(pid), f"recycled new page {pid} not written"
    assert counters.snapshot()["ring_admits"] == 20


# --------------------------------------------------- prefetch x ring (sat 2)


def test_overprefetch_past_scan_end_counts_unused(disk, counters):
    # Read-ahead runs past where the scan actually stops.  Frames the
    # scan moved past without consuming are first-out of the ring and
    # counted ``prefetch_unused``; once the ring is wall-to-wall with
    # the not-yet-consumed window, further read-ahead is refused before
    # the physical read (``prefetch_throttled``) instead of eating it.
    pool = make_pool(disk, counters, capacity=16)
    for pid in range(1, 13):
        put_page(disk, pid)
    for pid in range(1, 5):
        pool.prefetch(pid, scan=True)
    # The scan skips ahead to page 4: pages 1-3 are bypassed speculation.
    pool.fetch(4, scan=True)
    pool.unpin(4)
    before = counters.snapshot()
    for pid in range(5, 13):
        pool.prefetch(pid, scan=True)
    snap = counters.snapshot()
    # Bypassed frames (1-3) recycle first-out; the throttle caps how
    # many of the second wave even get admitted, so at least two of the
    # bypassed frames are recycled to make room before it kicks in.
    assert snap["prefetch_unused"] >= 2
    assert snap["prefetch_throttled"] >= 1
    assert snap["hot_evictions_by_scan"] == 0
    # The throttled hints paid no physical I/O: the second wave's reads
    # are bounded by what it actually admitted.
    extra_reads = snap["disk_io_calls"] - before["disk_io_calls"]
    admitted = snap["prefetch_admitted"] - before["prefetch_admitted"]
    assert extra_reads <= admitted + 1


def test_used_ring_page_outlives_unused_prefetched_ones(counters):
    disk = Disk(io_size=2048 * 4, counters=counters)  # 4 pages per IO
    pool = make_pool(disk, counters, capacity=16)
    ppio = disk.pages_per_io
    # One aligned run's worth of prefetched pages, then *use* one of them.
    for pid in range(1, ppio + 1):
        put_page(disk, pid)
    pool.prefetch(1, scan=True)
    used = min(2, ppio)
    pool.fetch(used, scan=True)
    pool.unpin(used)
    # The scan consumed page 2, so page 1 (admitted before it, never
    # fetched) is bypassed speculation while pages 3-4 are the live
    # window ahead of the watermark.  The next scan admission recycles
    # the bypassed frame first: the used page and the window survive.
    put_page(disk, 100)
    pool.fetch(100, scan=True)
    pool.unpin(100)
    assert not pool.is_resident(1)
    assert pool.is_resident(used)
    assert pool.is_resident(3) and pool.is_resident(4)
    assert counters.snapshot()["prefetch_unused"] >= 1
    # With no bypassed frames left, the oldest *consumed* frame goes
    # next — the scan is done with it — and the window still survives
    # (evicting pages the scan is about to read would re-buy their I/O).
    put_page(disk, 101)
    pool.fetch(101, scan=True)
    pool.unpin(101)
    assert not pool.is_resident(used)
    assert pool.is_resident(3) and pool.is_resident(4)


# ------------------------------------------------------------------ striping


def test_sharded_pool_spreads_and_flushes(disk, counters):
    pool = make_pool(disk, counters, capacity=32, shards=4)
    dirty_ids = []
    for pid in range(1, 25):
        page = pool.new_page(pid)
        page.append_row(b"r" * 4)
        pool.unpin(pid, dirty=True)
        dirty_ids.append(pid)
    pool.flush_pages(dirty_ids)
    for pid in dirty_ids:
        assert disk.exists(pid)
    pool.flush_all()  # everything clean: no further writes needed
    pool.evict_all()
    assert not any(pool.is_resident(pid) for pid in dirty_ids)
    reread = pool.fetch(7)
    assert reread.rows == [b"r" * 4]
    pool.unpin(7)


def test_shard_capacity_never_exceeded(disk, counters):
    pool = make_pool(disk, counters, capacity=16, shards=2)
    for pid in range(1, 41):
        put_page(disk, pid)
        pool.fetch(pid)
        pool.unpin(pid)
    resident = sum(pool.is_resident(pid) for pid in range(1, 41))
    assert resident <= 16
    for shard in pool._shards:
        assert shard.resident() <= shard.capacity


def test_shard_conflict_counter_fires_on_contention(disk, counters):
    pool = make_pool(disk, counters, capacity=16, shards=2)
    put_page(disk, 2)
    pool.fetch(2)
    pool.unpin(2)
    shard = pool._shards[0]  # page 2 lives in shard 0
    shard.lock.acquire()
    try:
        probe = threading.Thread(target=pool.is_resident, args=(2,))
        probe.start()
        # The probe thread is now blocked on shard 0's lock; its failed
        # non-blocking acquire has already been counted.
        deadline = 100
        while (
            counters.snapshot()["pool_shard_conflicts"] == 0 and deadline > 0
        ):
            deadline -= 1
            threading.Event().wait(0.01)
    finally:
        shard.lock.release()
    probe.join(timeout=5)
    assert counters.snapshot()["pool_shard_conflicts"] >= 1


def test_crash_clears_every_shard(disk, counters):
    pool = make_pool(disk, counters, capacity=32, shards=4)
    for pid in range(1, 9):
        put_page(disk, pid)
        pool.fetch(pid, scan=(pid % 2 == 0))
        pool.unpin(pid)
    pool.crash()
    assert not any(pool.is_resident(pid) for pid in range(1, 9))


def test_shard_validation():
    d = Disk()
    with pytest.raises(Exception):
        BufferPool(d, capacity=16, shards=0)
    with pytest.raises(Exception):
        BufferPool(d, capacity=16, shards=4)  # under 8 frames per shard

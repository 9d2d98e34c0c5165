"""Scan-resistant replacement: rebuild ring, 2Q promotion, the one lock."""

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


def make_pool(disk, counters, capacity=16) -> BufferPool:
    """The ring is a quarter of the pool: 4 frames of 16."""
    return BufferPool(disk, capacity=capacity, counters=counters)


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


# --------------------------------------------------------- prefetch x ring


def test_skipped_read_ahead_is_the_last_ring_victim(disk, counters):
    """A read-ahead frame the scan skipped is not written off: every
    consumed ring frame is recycled before it, a speculative admission
    never evicts it, and it is counted ``prefetch_unused`` only when it
    is the one ring frame left to take."""
    pool = make_pool(disk, counters)  # a 4-frame ring
    for pid in range(1, 18):
        put_page(disk, pid)
    for pid in (1, 2, 3):
        pool.prefetch(pid)
    for pid in (2, 3, *range(10, 16)):  # the scan skips page 1
        pool.fetch(pid, scan=True)
        pool.unpin(pid)
    assert pool.is_resident(1)
    assert not any(pool.is_resident(pid) for pid in (2, 3, 10, 11, 12))
    assert counters.prefetch_unused == 0
    # Every other ring frame pinned: read-ahead finds nothing it may take.
    for pid in (13, 14, 15):
        pool.fetch(pid, scan=True)
    pool.prefetch(16)
    assert pool.is_resident(1) and not pool.is_resident(16)
    assert counters.prefetch_unused == 0
    # The scan's own admission may: the skipped frame is its last victim.
    pool.fetch(17, scan=True)
    pool.unpin(17)
    assert not pool.is_resident(1)
    assert counters.prefetch_unused == 1
    assert counters.hot_evictions_by_scan == 0
    for pid in (13, 14, 15):
        pool.unpin(pid)


# ------------------------------------------------------------- the one lock


def test_sharded_pool_spreads_and_flushes(disk, counters):
    pool = make_pool(disk, counters, capacity=32)
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
    pool = make_pool(disk, counters, capacity=16)
    for pid in range(1, 41):
        put_page(disk, pid)
        pool.fetch(pid, scan=pid % 3 == 0)
        pool.unpin(pid)
    assert sum(pool.is_resident(pid) for pid in range(1, 41)) == 16


class NotingCounters(Counters):
    """Counters that tell when a thread found the pool lock held."""

    def __init__(self) -> None:
        super().__init__()
        self.conflict = threading.Event()

    def add(self, name: str, amount: int = 1) -> None:
        super().add(name, amount)
        if name == "pool_shard_conflicts":
            self.conflict.set()


def test_shard_conflict_counter_fires_on_contention():
    counters = NotingCounters()
    disk = Disk(counters=counters)
    pool = make_pool(disk, counters)
    put_page(disk, 2)
    pool.fetch(2)
    pool.unpin(2)
    assert counters.pool_shard_conflicts == 0
    with pool._lock:
        probe = threading.Thread(target=pool.is_resident, args=(2,))
        probe.start()
        # Rendezvous: the probe's non-blocking attempt failed and counted.
        assert counters.conflict.wait(10)
    probe.join(10)
    assert not probe.is_alive()
    assert counters.pool_shard_conflicts == 1


def test_crash_clears_every_shard(disk, counters):
    pool = make_pool(disk, counters, capacity=32)
    for pid in range(1, 9):
        put_page(disk, pid)
        pool.fetch(pid, scan=(pid % 2 == 0))
        pool.unpin(pid)
    pool.crash()
    assert not any(pool.is_resident(pid) for pid in range(1, 9))

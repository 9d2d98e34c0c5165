"""Unit tests for allocation states and chunk allocation (§4.1.3, §6.1)."""

import pytest

from repro.errors import AllocationError, PageStateError
from repro.stats.counters import Counters
from repro.storage.disk import Disk
from repro.storage.page_manager import ChunkAllocator, PageManager, PageState


@pytest.fixture
def pm() -> PageManager:
    counters = Counters()
    return PageManager(Disk(counters=counters), counters=counters)


def test_fresh_ids_start_at_one(pm):
    assert pm.allocate() == 1
    assert pm.allocate() == 2


def test_lifecycle_allocated_deallocated_free(pm):
    pid = pm.allocate()
    assert pm.state(pid) is PageState.ALLOCATED
    pm.deallocate(pid)
    assert pm.state(pid) is PageState.DEALLOCATED
    pm.free(pid)
    assert pm.state(pid) is PageState.FREE
    assert pm.allocate() == pid  # freed pages are reused first


def test_deallocate_requires_allocated(pm):
    with pytest.raises(PageStateError):
        pm.deallocate(99)
    pid = pm.allocate()
    pm.deallocate(pid)
    with pytest.raises(PageStateError):
        pm.deallocate(pid)


def test_free_requires_deallocated(pm):
    pid = pm.allocate()
    with pytest.raises(PageStateError):
        pm.free(pid)


def test_deallocated_pages_listing(pm):
    pids = [pm.allocate() for _ in range(4)]
    pm.deallocate(pids[1])
    pm.deallocate(pids[3])
    assert pm.deallocated_pages() == sorted([pids[1], pids[3]])


def test_reserve_chunk_is_contiguous(pm):
    start = pm.reserve_chunk(8)
    for pid in range(start, start + 8):
        assert pm.state(pid) is PageState.ALLOCATED


def test_reserve_chunk_prefers_existing_free_run(pm):
    pids = [pm.allocate() for _ in range(10)]
    for pid in pids[2:7]:
        pm.deallocate(pid)
        pm.free(pid)
    start = pm.reserve_chunk(4)
    assert start == pids[2]


def test_reserve_chunk_extends_when_no_run(pm):
    pids = [pm.allocate() for _ in range(6)]
    # Free alternating pages: no run of 3 exists below the HWM.
    for pid in pids[::2]:
        pm.deallocate(pid)
        pm.free(pid)
    start = pm.reserve_chunk(3)
    assert start > pids[-1]


def test_reserve_chunk_rejects_nonpositive(pm):
    with pytest.raises(AllocationError):
        pm.reserve_chunk(0)


def test_release_unused_returns_to_free_pool(pm):
    start = pm.reserve_chunk(4)
    pm.release_unused([start + 2, start + 3])
    assert pm.state(start + 2) is PageState.FREE
    assert pm.state(start + 3) is PageState.FREE
    assert pm.state(start) is PageState.ALLOCATED


def test_force_state_bypasses_checks(pm):
    pm.force_state(77, PageState.DEALLOCATED)
    assert pm.state(77) is PageState.DEALLOCATED
    pm.force_state(77, PageState.FREE)
    assert pm.state(77) is PageState.FREE
    assert pm.high_water_mark >= 78


def test_snapshot_restore_roundtrip(pm):
    a = pm.allocate()
    b = pm.allocate()
    pm.deallocate(b)
    snap = pm.snapshot()
    pm.allocate()
    pm.free(b)
    pm.restore(snap)
    assert pm.state(a) is PageState.ALLOCATED
    assert pm.state(b) is PageState.DEALLOCATED
    assert pm.high_water_mark == 3


class TestChunkAllocator:
    def test_sequential_ids_within_chunk(self, pm):
        alloc = ChunkAllocator(pm, chunk_size=8)
        ids = [alloc.next_page() for _ in range(8)]
        assert ids == list(range(ids[0], ids[0] + 8))

    def test_new_chunk_after_exhaustion(self, pm):
        alloc = ChunkAllocator(pm, chunk_size=4)
        first = [alloc.next_page() for _ in range(4)]
        fifth = alloc.next_page()
        assert fifth not in first

    def test_close_releases_pending(self, pm):
        alloc = ChunkAllocator(pm, chunk_size=8)
        used = alloc.next_page()
        alloc.close()
        assert pm.state(used) is PageState.ALLOCATED
        assert pm.state(used + 1) is PageState.FREE

    def test_rejects_bad_chunk_size(self, pm):
        with pytest.raises(AllocationError):
            ChunkAllocator(pm, chunk_size=0)

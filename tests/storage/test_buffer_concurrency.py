"""Threaded regressions: eviction I/O must not serialize the pool.

Dirty evictions historically wrote to disk *under* the pool lock, so any
concurrent hit — even of a different, resident page — stalled behind a
device write.  They now run through the in-flight-write table with
the lock released, like every other I/O path.  These tests gate the
pool on a disk whose writes (or reads) block on an event and prove other
threads still get through.
"""

import threading

import pytest

from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import Page


class GatedDisk:
    """Delegates to a real Disk; selected ops block until released."""

    def __init__(self, inner: Disk) -> None:
        self.inner = inner
        self.write_gate = threading.Event()
        self.write_gate.set()
        self.write_entered = threading.Event()

    def __getattr__(self, name):  # noqa: ANN001, ANN204 - delegation
        return getattr(self.inner, name)

    def write(self, page_id: int, image: bytes) -> None:
        self.write_entered.set()
        assert self.write_gate.wait(timeout=10), "write gate never released"
        self.inner.write(page_id, image)


def put_page(disk, pid: int) -> None:
    page = Page(pid, disk.page_size)
    disk.write(pid, page.to_bytes())


@pytest.fixture
def counters() -> Counters:
    return Counters()


def test_concurrent_hit_completes_while_dirty_eviction_writes(counters):
    disk = GatedDisk(Disk(counters=counters))
    pool = BufferPool(disk, capacity=8, counters=counters)
    for pid in range(1, 9):
        put_page(disk, pid)
        pool.fetch(pid)
        pool.unpin(pid, dirty=(pid == 1))
    put_page(disk, 9)

    disk.write_gate.clear()

    def force_eviction() -> None:
        pool.fetch(9)  # miss: evicts LRU page 1, whose write blocks
        pool.unpin(9)

    evictor = threading.Thread(target=force_eviction)
    evictor.start()
    assert disk.write_entered.wait(timeout=10), "eviction never hit the disk"

    # The eviction write is parked inside the device.  A hit of another
    # resident page must not wait for it.
    done = threading.Event()

    def hit() -> None:
        page = pool.fetch(5)
        assert page.page_id == 5
        pool.unpin(5)
        done.set()

    reader = threading.Thread(target=hit)
    reader.start()
    completed = done.wait(timeout=5)
    disk.write_gate.set()
    reader.join(timeout=5)
    evictor.join(timeout=5)
    assert completed, "pool hit stalled behind an in-flight eviction write"
    assert not evictor.is_alive() and not reader.is_alive()
    assert pool.is_resident(9)
    assert disk.exists(1)  # the dirty victim landed on disk


def test_redirty_during_eviction_write_is_not_lost(counters):
    # Pin the victim's neighbor story differently: while page 1's eviction
    # write is parked in the device, a racing thread re-reads page 1 (it
    # is mid-eviction but still writable on disk once the gate opens) and
    # dirties other pages; nothing deadlocks and no update is lost.
    disk = GatedDisk(Disk(counters=counters))
    pool = BufferPool(disk, capacity=8, counters=counters)
    for pid in range(1, 9):
        put_page(disk, pid)
        pool.fetch(pid)
        pool.unpin(pid, dirty=(pid == 1))
    put_page(disk, 9)
    disk.write_gate.clear()

    def force_eviction() -> None:
        pool.fetch(9)
        pool.unpin(9)

    evictor = threading.Thread(target=force_eviction)
    evictor.start()
    assert disk.write_entered.wait(timeout=10)

    mutated = threading.Event()

    def mutate_other() -> None:
        page = pool.fetch(4)
        page.append_row(b"late-update")
        pool.unpin(4, dirty=True)
        mutated.set()

    writer = threading.Thread(target=mutate_other)
    writer.start()
    completed = mutated.wait(timeout=5)
    disk.write_gate.set()
    writer.join(timeout=5)
    evictor.join(timeout=5)
    assert completed
    # Both threads actually finished — a timed-out join returns silently,
    # and flush_all below would deadlock behind a still-running eviction.
    assert not writer.is_alive() and not evictor.is_alive()
    pool.flush_all()
    fresh = BufferPool(disk.inner, capacity=8, counters=counters)
    assert fresh.fetch(4).rows == [b"late-update"]
    fresh.unpin(4)


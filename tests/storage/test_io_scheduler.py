"""Unit tests for the asynchronous I/O scheduler (read-ahead + write-behind)."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import IOSchedulerError, PermanentIOError
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.io_scheduler import CompletionToken, IOScheduler
from repro.storage.page import PAGE_SIZE_DEFAULT, Page
from tests.integration.test_write_budget import GatedDisk


def make_pool(capacity: int = 64, pages: int = 0) -> tuple[BufferPool, Counters]:
    counters = Counters()
    disk = Disk(page_size=PAGE_SIZE_DEFAULT, io_size=PAGE_SIZE_DEFAULT * 4,
                counters=counters)
    pool = BufferPool(disk, capacity=capacity, counters=counters)
    for pid in range(1, pages + 1):
        disk.write(pid, Page(pid, PAGE_SIZE_DEFAULT).to_bytes())
    return pool, counters


def dirty_pages(pool: BufferPool, ids: list[int]) -> None:
    for pid in ids:
        page = pool.new_page(pid)
        page.page_lsn = 0
        pool.unpin(pid, dirty=True)


# ----------------------------------------------------------------- tokens


def test_token_wait_raises_on_timeout():
    token = CompletionToken()
    with pytest.raises(IOSchedulerError):
        token.wait(timeout=0.01)


def test_token_wait_raises_on_failure():
    token = CompletionToken()
    token._fail(RuntimeError("disk on fire"))
    with pytest.raises(IOSchedulerError, match="disk on fire"):
        token.wait(timeout=0.01)
    assert not token.done


def test_token_done_after_complete():
    token = CompletionToken()
    token.complete()
    token.wait(timeout=0.01)
    assert token.done


# ------------------------------------------------------------ write-behind


def test_force_makes_pages_durable():
    pool, counters = make_pool()
    dirty_pages(pool, [1, 2, 3, 4])
    sched = IOScheduler(pool, counters=counters).start()
    try:
        sched.force([1, 2, 3, 4]).wait(timeout=10.0)
        for pid in (1, 2, 3, 4):
            assert pool.disk.exists(pid)
        assert counters.writebehind_pages == 4
        assert counters.writebehind_forces == 1
    finally:
        sched.close()


def test_submit_then_force_orders_correctly():
    pool, counters = make_pool()
    dirty_pages(pool, list(range(1, 9)))
    sched = IOScheduler(pool, counters=counters).start()
    try:
        sched.submit_write([1, 2, 3, 4])
        sched.force([5, 6, 7, 8]).wait(timeout=10.0)
        for pid in range(1, 9):
            assert pool.disk.exists(pid)
    finally:
        sched.close()


def test_kill_fails_pending_and_future_tokens():
    pool, counters = make_pool()
    dirty_pages(pool, [1, 2])
    sched = IOScheduler(pool, counters=counters).start()
    sched.kill()
    token = sched.force([1, 2])
    with pytest.raises(IOSchedulerError):
        token.wait(timeout=5.0)
    sched.close()


def test_force_after_close_fails_fast():
    pool, _ = make_pool()
    sched = IOScheduler(pool).start()
    sched.close()
    with pytest.raises(IOSchedulerError):
        sched.force([1]).wait(timeout=1.0)


def test_close_drains_submitted_writes():
    pool, _ = make_pool()
    dirty_pages(pool, [1, 2, 3])
    sched = IOScheduler(pool).start()
    sched.submit_write([1, 2, 3])
    sched.close()
    for pid in (1, 2, 3):
        assert pool.disk.exists(pid)


# ------------------------------------------------ several writes in flight


def make_held_pool() -> tuple[BufferPool, Counters]:
    pool, counters = make_pool()
    pool.disk.__class__ = GatedDisk
    pool.disk.arm()
    pool.disk.gate.clear()  # every write parks in the device until opened
    return pool, counters


def io_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("io-")]


def test_barrier_completes_only_when_every_run_before_it_landed():
    pool, counters = make_held_pool()  # pages_per_io = 4
    dirty_pages(pool, list(range(1, 13)))
    sched = IOScheduler(pool, counters=counters).start()
    try:
        sched.submit_write([1, 2, 3, 4, 5, 6, 7, 8])
        assert pool.disk.parked(2)  # two runs, two writers, both asleep
        assert set(pool.disk.in_service) == {
            frozenset([1, 2, 3, 4]), frozenset([5, 6, 7, 8]),
        }
        token = sched.force([9, 10, 11, 12])
        assert pool.disk.parked(3)
        assert not token.done
        pool.disk.gate.set()
        token.wait(timeout=10.0)
        assert all(pool.disk.exists(pid) for pid in range(1, 13))
        assert counters.writebehind_batches == 3
        assert counters.writebehind_pages == 12
        # Nothing outstanding: the next barrier is done before it returns.
        assert sched.force([]).done
    finally:
        pool.disk.gate.set()
        sched.close()
    assert io_threads() == []


def test_kill_with_two_writes_in_flight_fails_the_barrier():
    pool, counters = make_held_pool()
    dirty_pages(pool, list(range(1, 9)))
    sched = IOScheduler(pool, counters=counters).start()
    sched.submit_write([1, 2, 3, 4, 5, 6, 7, 8])
    assert pool.disk.parked(2)
    token = sched.force([])
    killer = threading.Thread(target=sched.kill)  # joins the writers
    killer.start()
    with pytest.raises(IOSchedulerError, match="killed"):
        token.wait(timeout=10.0)  # failed while both writes still sleep
    assert len(pool.disk.in_service) == 2 and killer.is_alive()
    pool.disk.gate.set()
    killer.join(10.0)
    assert not killer.is_alive()
    # What was in the device landed, and completed nothing.
    assert not token.done
    with pytest.raises(IOSchedulerError):
        sched.force([]).wait(timeout=1.0)
    sched.close()
    assert io_threads() == []


def test_one_writer_failing_fails_every_token_while_another_sleeps():
    pool, counters = make_held_pool()
    dirty_pages(pool, list(range(1, 13)))
    pool.disk.poison = 9
    sched = IOScheduler(pool, counters=counters).start()
    try:
        sched.submit_write([1, 2, 3, 4, 5, 6, 7, 8])
        assert pool.disk.parked(2)
        token = sched.force([9, 10, 11, 12])  # a third writer takes it
        with pytest.raises(IOSchedulerError, match="medium error") as failed:
            token.wait(timeout=10.0)
        assert isinstance(failed.value.__cause__, PermanentIOError)
        assert len(pool.disk.in_service) == 2  # the sleepers, still asleep
        # Broken for good: later submissions are refused, later barriers
        # fail with the same cause.
        with pytest.raises(IOSchedulerError, match="medium error"):
            sched.force([]).wait(timeout=1.0)
    finally:
        pool.disk.gate.set()
        sched.close()
    assert io_threads() == []
    assert not token.done


def test_many_barriers_from_many_threads_each_cover_their_own_pages():
    """More submitters than cores, a shortened switch interval: every
    barrier that returns finds its pages stored, whatever order the
    writers finished in."""
    pool, counters = make_pool(capacity=512)
    sched = IOScheduler(pool, counters=counters).start()
    missing: list[int] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def submitter(base: int) -> None:
        for round_ in range(10):
            ids = list(range(base + 7 * round_, base + 7 * round_ + 7))
            dirty_pages(pool, ids)
            sched.submit_write(ids[:4])
            sched.force(ids[4:]).wait(timeout=30.0)
            missing.extend(p for p in ids if not pool.disk.exists(p))

    threads = [
        threading.Thread(target=submitter, args=(1 + 100 * n,))
        for n in range(5)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
        sched.close()
    assert not any(t.is_alive() for t in threads)
    assert missing == []
    assert counters.writebehind_forces == 50 + 1  # and the closing drain
    assert io_threads() == []


# -------------------------------------------------- tail-retention batching


def test_split_tail_retains_partial_run():
    pool, _ = make_pool()  # pages_per_io = 4
    sched = IOScheduler(pool)
    runs, retain = sched._split_tail([1, 2, 3, 4, 5, 6])
    assert runs == [[1, 2, 3, 4]]
    assert retain == [5, 6]


def test_split_tail_full_runs_flush_everything():
    pool, _ = make_pool()
    sched = IOScheduler(pool)
    runs, retain = sched._split_tail([1, 2, 3, 4, 5, 6, 7, 8])
    assert runs == [[1, 2, 3, 4], [5, 6, 7, 8]]
    assert retain == []


def test_split_tail_all_partial_retains_everything():
    pool, _ = make_pool()
    sched = IOScheduler(pool)
    runs, retain = sched._split_tail([9, 10])
    assert runs == []
    assert retain == [9, 10]


def test_tail_retention_saves_physical_calls():
    """Two 6-page contiguous submissions through the writer cost the same
    physical calls as one 12-page flush would (3 calls at 4 pages/call),
    not the 4 calls two rounded-up 6-page flushes would cost."""
    pool, counters = make_pool()
    dirty_pages(pool, list(range(1, 13)))
    before = counters.snapshot()
    sched = IOScheduler(pool, counters=counters).start()
    try:
        sched.submit_write([1, 2, 3, 4, 5, 6])
        sched.force([7, 8, 9, 10, 11, 12]).wait(timeout=10.0)
    finally:
        sched.close()
    assert counters.diff(before)["disk_io_calls"] == 3


# ---------------------------------------------------------------- prefetch


def test_window_bounds_requested_leaves():
    """No more than ``window`` leaves beyond the position are requested,
    and moving the position requests only what came into the window."""
    pool, counters = make_pool(pages=16)  # 4 pages per I/O
    order = list(range(1, 17))
    sched = IOScheduler(
        pool, counters=counters, window=4,
        leaf_order=lambda unit, count: (order, None),
    ).start()
    try:
        sched.advance(1, b"")
        assert sched.wait_readahead(timeout=5.0)
        assert [pool.is_resident(p) for p in (1, 4, 5)] == [True, True, False]
        assert counters.disk_io_calls == 16 + 1  # the stores, one run read
        walked = counters.prefetch_skipped_resident
        sched.advance(5, b"")  # a position inside the known order
        assert sched.wait_readahead(timeout=5.0)
        assert [pool.is_resident(p) for p in (5, 8, 9)] == [True, True, False]
        assert counters.disk_io_calls == 16 + 2
        assert counters.prefetch_skipped_resident == walked  # no re-walk
    finally:
        sched.close()


def test_window_is_capped_by_the_pools_room():
    pool, counters = make_pool(capacity=32, pages=16)
    assert pool.readahead_room() == 4  # half the ring: an eighth of the pool
    order = list(range(1, 17))
    sched = IOScheduler(
        pool, counters=counters, window=16,
        leaf_order=lambda unit, count: (order, None),
    ).start()
    try:
        sched.advance(1, b"")
        assert sched.wait_readahead(timeout=5.0)
        assert all(pool.is_resident(p) for p in (1, 2, 3, 4))
        assert not pool.is_resident(5)
    finally:
        sched.close()


def test_reader_error_is_counted_and_dropped():
    """A failure in the read-ahead path is counted, never raised, and the
    readers go on serving later hints."""
    pool, counters = make_pool(pages=8)
    calls = []

    def broken_order(unit, count):
        calls.append(unit)
        if len(calls) == 1:
            raise RuntimeError("bug in the order source")
        return [5, 6, 7, 8], None

    sched = IOScheduler(
        pool, counters=counters, window=4, leaf_order=broken_order
    ).start()
    try:
        sched.advance(1, b"a")
        assert sched.wait_readahead(timeout=5.0)
        assert counters.prefetch_errors == 1
        sched.advance(5, b"b")
        assert sched.wait_readahead(timeout=5.0)
        assert pool.is_resident(5)
        assert counters.prefetch_errors == 1
    finally:
        sched.close()
    assert not any(t.is_alive() for t in sched._readers)


def test_prefetch_never_evicts_dirty_frames():
    pool, counters = make_pool(capacity=8, pages=20)
    # Fill the pool with dirty frames (unpinned but unwritten).
    dirty = list(range(13, 21))
    dirty_pages(pool, dirty)
    writes_before = counters.page_writes
    # No clean victim: the run is read, nothing is admitted or written.
    assert pool.prefetch(1) is True
    assert counters.page_writes == writes_before
    for pid in dirty:
        assert pool.is_resident(pid)


def test_prefetch_missing_page_is_silent():
    pool, _ = make_pool(pages=2)
    assert pool.prefetch(99) is True


def test_prefetched_page_counts_hit_on_fetch():
    pool, counters = make_pool(pages=4)
    pool.prefetch(2)
    assert pool.is_resident(2)
    pool.fetch(2)
    pool.unpin(2)
    assert counters.prefetch_hits == 1
    # A second fetch is a plain cache hit, not another prefetch hit.
    pool.fetch(2)
    pool.unpin(2)
    assert counters.prefetch_hits == 1


def test_unused_prefetch_counted_on_eviction():
    pool, counters = make_pool(capacity=8, pages=20)
    pool.prefetch(1)
    # Fault in enough pages to evict the unused prefetched frame.
    for pid in range(2, 12):
        pool.fetch(pid)
        pool.unpin(pid)
    assert counters.prefetch_unused >= 1


def test_transient_error_past_the_pools_budget_fails_the_barrier(
    monkeypatch,
):
    """The pool's retry budget is the only one: with ``retry_limit=0`` a
    single transient write error fails the barrier's token at once, and
    the caller (the rebuild's abort path) flushes synchronously."""
    from repro.errors import TransientIOError

    pool, counters = make_pool()
    pool.retry_limit = 0
    dirty_pages(pool, [1, 2])
    write_many = pool.disk.write_many
    failures = [TransientIOError("one blip")]

    def blip_once(images):
        if failures:
            raise failures.pop()
        return write_many(images)

    monkeypatch.setattr(pool.disk, "write_many", blip_once)
    sched = IOScheduler(pool, counters=counters).start()
    try:
        with pytest.raises(IOSchedulerError, match="one blip"):
            sched.force([1, 2]).wait(timeout=5.0)
        assert counters.io_retries == 0
        assert not pool.disk.exists(1)
        pool.flush_pages([1, 2])  # the abort path's synchronous flush
        assert pool.disk.exists(1) and pool.disk.exists(2)
    finally:
        sched.close()


def test_reader_parked_in_the_device_does_not_hold_close(monkeypatch):
    """A reader carries no durability obligation: one stuck in a device
    call is left to finish on its own instead of holding ``close`` for
    the writer's ``_FORCE_TIMEOUT``.  It exits as soon as the call
    returns, and every reader that did return has been joined."""
    import repro.storage.io_scheduler as mod

    pool, counters = make_pool(pages=8)
    parked, gate = threading.Event(), threading.Event()
    service = pool.disk._service

    def held_service(calls):
        parked.set()
        assert gate.wait(30.0)
        service(calls)

    monkeypatch.setattr(pool.disk, "_service", held_service)
    monkeypatch.setattr(mod, "_READER_JOIN_TIMEOUT", 0.05)
    sched = IOScheduler(pool, counters=counters, window=1).start()
    sched.advance(1)
    assert parked.wait(30.0)
    start = time.monotonic()
    sched.close()
    assert time.monotonic() - start < mod._FORCE_TIMEOUT / 4
    alive = [t for t in sched._readers if t.is_alive()]
    assert len(alive) == 1  # the parked one; the idle one was joined
    assert not any(t.is_alive() for t in sched._writers)
    gate.set()
    alive[0].join(30.0)
    assert not alive[0].is_alive()

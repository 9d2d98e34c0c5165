"""Unit tests for the latch manager (S/X page latches)."""

import threading

import pytest

from repro.concurrency.latch import LatchManager, LatchMode
from repro.concurrency.syncpoints import SyncPoints
from repro.errors import LatchError, LockTimeoutError
from repro.stats.counters import Counters

from ..conftest import until


@pytest.fixture
def latches() -> LatchManager:
    return LatchManager(counters=Counters(), timeout=2.0)


def test_s_latches_share(latches):
    latches.acquire(1, LatchMode.S)
    done = threading.Event()

    def other():
        latches.acquire(1, LatchMode.S)
        latches.release(1)
        done.set()

    t = threading.Thread(target=other)
    t.start()
    t.join(2)
    assert done.is_set()
    latches.release(1)


def test_x_excludes_s(latches):
    latches.acquire(1, LatchMode.X)
    blocked = threading.Event()
    acquired = threading.Event()

    def other():
        blocked.set()
        latches.acquire(1, LatchMode.S)
        acquired.set()
        latches.release(1)

    t = threading.Thread(target=other)
    t.start()
    blocked.wait(2)
    assert not acquired.wait(0.2)
    latches.release(1)
    assert acquired.wait(2)
    t.join()


def test_s_excludes_x(latches):
    latches.acquire(1, LatchMode.S)
    results = []

    def other():
        results.append(latches.try_acquire(1, LatchMode.X))
        if results[-1]:
            latches.release(1)

    t = threading.Thread(target=other)
    t.start()
    t.join(2)
    assert results == [False]
    latches.release(1)

    t2 = threading.Thread(target=other)
    t2.start()
    t2.join(2)
    assert results == [False, True]


def test_try_acquire_never_blocks(latches):
    latches.acquire(1, LatchMode.X)
    done = threading.Event()
    results = []

    def other():
        results.append(latches.try_acquire(1, LatchMode.S))
        done.set()

    threading.Thread(target=other).start()
    assert done.wait(2)
    assert results == [False]
    latches.release(1)


def test_not_reentrant(latches):
    latches.acquire(1, LatchMode.S)
    with pytest.raises(LatchError):
        latches.acquire(1, LatchMode.S)
    latches.release(1)


def test_release_without_hold_raises(latches):
    with pytest.raises(LatchError):
        latches.release(1)


def test_release_all(latches):
    latches.acquire(1, LatchMode.S)
    latches.acquire(2, LatchMode.X)
    latches.release_all()
    assert latches.held_by_me() == {}
    # And everything is acquirable again.
    assert latches.try_acquire(1, LatchMode.X)
    latches.release(1)


def test_holds_reports_mode(latches):
    latches.acquire(1, LatchMode.X)
    assert latches.holds(1)
    assert latches.holds(1, LatchMode.X)
    assert not latches.holds(1, LatchMode.S)
    assert not latches.holds(2)
    latches.release(1)


def test_watchdog_timeout_raises(latches):
    latches.acquire(1, LatchMode.X)
    errors = []

    def other():
        try:
            latches.acquire(1, LatchMode.X)
        except LockTimeoutError as exc:
            errors.append(exc)

    t = threading.Thread(target=other)
    t.start()
    t.join(5)
    assert errors  # never released: the watchdog fired
    latches.release(1)


def test_distinct_pages_independent(latches):
    latches.acquire(1, LatchMode.X)
    assert latches.try_acquire(2, LatchMode.X)
    latches.release(1)
    latches.release(2)


def test_many_threads_mutual_exclusion(latches):
    counter = {"value": 0, "inside": 0}
    errors = []

    def worker():
        try:
            for _ in range(50):
                latches.acquire(7, LatchMode.X)
                counter["inside"] += 1
                assert counter["inside"] == 1
                counter["value"] += 1
                counter["inside"] -= 1
                latches.release(7)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert counter["value"] == 300


# ------------------------------------------------ fast path / slow path edge


def observed(latches: LatchManager) -> list[tuple[str, dict]]:
    latches.syncpoints = SyncPoints()
    fired: list[tuple[str, dict]] = []
    latches.syncpoints.observe(lambda name, attrs: fired.append((name, attrs)))
    return fired


def test_table_is_empty_after_every_release(latches):
    latches.acquire(1, LatchMode.X)
    assert latches._latches == {1: -1}
    latches.release(1)
    assert latches._latches == {}
    latches.acquire(1, LatchMode.S)
    other = threading.Thread(
        target=lambda: (latches.acquire(1, LatchMode.S), latches.release(1))
    )
    other.start()
    other.join(2)
    assert not other.is_alive()
    assert latches._latches == {1: 1}
    latches.release(1)
    assert latches._latches == {}
    assert latches.try_acquire(2, LatchMode.X)
    latches.release(2)
    assert latches._latches == {}


def test_a_blocked_grant_counts_one_wait_and_fires_once(latches):
    """``latch.wait`` is seen once per request that has to wait, however
    often it is woken before its grant, and never on an uncontended one."""
    fired = observed(latches)
    latches.acquire(1, LatchMode.S)
    latches.release(1)
    assert latches.try_acquire(1, LatchMode.X)
    assert fired == [] and latches.counters.latch_waits == 0
    waiter = threading.Thread(
        target=lambda: (latches.acquire(1, LatchMode.S), latches.release(1))
    )
    waiter.start()
    until(lambda: latches._waiting == 1)
    for _ in range(3):  # each release of another page wakes the waiter
        latches.acquire(2, LatchMode.X)
        latches.release(2)
    latches.release(1)
    waiter.join(2)
    assert not waiter.is_alive()
    assert fired == [("latch.wait", {"page": 1, "mode": "S"})]
    assert latches.counters.latch_waits == 1
    assert latches._latches == {} and latches._waiting == 0


def test_an_x_waiter_wakes_on_the_last_s_release(latches):
    latches.acquire(1, LatchMode.S)
    reader_may_go = threading.Event()

    def reader():
        latches.acquire(1, LatchMode.S)
        reader_may_go.wait(2)
        latches.release(1)

    granted = threading.Event()

    def writer():
        latches.acquire(1, LatchMode.X)
        granted.set()
        latches.release(1)

    threads = [threading.Thread(target=reader)]
    threads[0].start()
    until(lambda: latches._latches.get(1) == 2)
    threads.append(threading.Thread(target=writer))
    threads[1].start()
    until(lambda: latches._waiting == 1)
    latches.release(1)  # one S holder left: the writer stays parked
    assert latches._latches == {1: 1}
    assert not granted.is_set() and latches._waiting == 1
    reader_may_go.set()  # the last S release
    assert granted.wait(2)
    for t in threads:
        t.join(2)
        assert not t.is_alive()
    assert latches._latches == {}

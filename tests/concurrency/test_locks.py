"""Unit tests for the lock manager: modes, FIFO, instant duration,
deadlock detection (including no-false-positives after release)."""

import threading
import time

import pytest

from repro.concurrency.locks import LockManager, LockMode, LockSpace
from repro.concurrency.syncpoints import SyncPoints
from repro.errors import DeadlockError, LockError
from repro.stats.counters import Counters

from ..conftest import until

ADDR = LockSpace.ADDRESS
LOGI = LockSpace.LOGICAL


@pytest.fixture
def locks() -> LockManager:
    return LockManager(counters=Counters(), timeout=3.0)


def test_grant_and_release(locks):
    locks.acquire(1, ADDR, "r", LockMode.X)
    assert locks.holds(1, ADDR, "r", LockMode.X)
    locks.release(1, ADDR, "r")
    assert not locks.holds(1, ADDR, "r")


def test_s_locks_share(locks):
    locks.acquire(1, ADDR, "r", LockMode.S)
    locks.acquire(2, ADDR, "r", LockMode.S)
    assert locks.holds(1, ADDR, "r")
    assert locks.holds(2, ADDR, "r")


def test_x_is_exclusive(locks):
    locks.acquire(1, ADDR, "r", LockMode.X)
    assert not locks.try_acquire(2, ADDR, "r", LockMode.S)
    assert not locks.try_acquire(2, ADDR, "r", LockMode.X)


def test_reacquire_same_mode_is_noop(locks):
    locks.acquire(1, ADDR, "r", LockMode.X)
    locks.acquire(1, ADDR, "r", LockMode.X)
    locks.release(1, ADDR, "r")
    assert not locks.holds(1, ADDR, "r")


def test_x_implies_s(locks):
    locks.acquire(1, ADDR, "r", LockMode.X)
    locks.acquire(1, ADDR, "r", LockMode.S)  # already stronger
    assert locks.holds(1, ADDR, "r", LockMode.X)


def test_spaces_are_independent(locks):
    locks.acquire(1, ADDR, "r", LockMode.X)
    assert locks.try_acquire(2, LOGI, "r", LockMode.X)


def test_release_unheld_raises(locks):
    with pytest.raises(LockError):
        locks.release(1, ADDR, "nothing")


def test_release_all_by_space(locks):
    locks.acquire(1, ADDR, "a", LockMode.X)
    locks.acquire(1, LOGI, "b", LockMode.X)
    locks.release_all(1, ADDR)
    assert not locks.holds(1, ADDR, "a")
    assert locks.holds(1, LOGI, "b")
    locks.release_all(1)
    assert not locks.holds(1, LOGI, "b")


def test_blocking_acquire_waits_for_release(locks):
    locks.acquire(1, ADDR, "r", LockMode.X)
    got = threading.Event()

    def other():
        locks.acquire(2, ADDR, "r", LockMode.X)
        got.set()
        locks.release(2, ADDR, "r")

    t = threading.Thread(target=other)
    t.start()
    assert not got.wait(0.2)
    locks.release(1, ADDR, "r")
    assert got.wait(3)
    t.join()


def test_wait_instant_blocks_until_holder_done(locks):
    """The §2.2 mechanism: a writer's instant S lock waits out a top action."""
    locks.acquire(1, ADDR, "page", LockMode.X)
    done = threading.Event()

    def writer():
        locks.wait_instant(2, ADDR, "page", LockMode.S)
        done.set()

    t = threading.Thread(target=writer)
    t.start()
    assert not done.wait(0.2)
    locks.release(1, ADDR, "page")
    assert done.wait(3)
    t.join()
    # Nothing is left held by the instant requester.
    assert locks.held_resources(2) == set()


def test_wait_instant_on_own_lock_keeps_it(locks):
    locks.acquire(1, ADDR, "page", LockMode.X)
    locks.wait_instant(1, ADDR, "page", LockMode.S)
    assert locks.holds(1, ADDR, "page", LockMode.X)


def test_fifo_fairness_x_not_starved(locks):
    """S requests queued behind a waiting X must not overtake it."""
    locks.acquire(1, ADDR, "r", LockMode.S)
    order = []

    def want_x():
        locks.acquire(2, ADDR, "r", LockMode.X)
        order.append("X")
        locks.release(2, ADDR, "r")

    def want_s():
        locks.acquire(3, ADDR, "r", LockMode.S)
        order.append("S")
        locks.release(3, ADDR, "r")

    tx = threading.Thread(target=want_x)
    tx.start()
    time.sleep(0.1)  # ensure X queues first
    ts = threading.Thread(target=want_s)
    ts.start()
    time.sleep(0.1)
    locks.release(1, ADDR, "r")
    tx.join(3)
    ts.join(3)
    assert order == ["X", "S"]


def test_compatible_waiters_wake_together(locks):
    locks.acquire(1, ADDR, "r", LockMode.X)
    got = []

    def want_s(txn):
        locks.acquire(txn, ADDR, "r", LockMode.S)
        got.append(txn)

    threads = [threading.Thread(target=want_s, args=(t,)) for t in (2, 3)]
    for t in threads:
        t.start()
    time.sleep(0.1)
    locks.release(1, ADDR, "r")
    for t in threads:
        t.join(3)
    assert sorted(got) == [2, 3]


def test_upgrade_s_to_x_when_sole_holder(locks):
    locks.acquire(1, ADDR, "r", LockMode.S)
    locks.acquire(1, ADDR, "r", LockMode.X)
    assert locks.holds(1, ADDR, "r", LockMode.X)


def test_two_txn_deadlock_detected(locks):
    locks.acquire(1, LOGI, "a", LockMode.X)
    locks.acquire(2, LOGI, "b", LockMode.X)
    hit = []
    granted = []

    def worker(txn, resource):
        try:
            locks.acquire(txn, LOGI, resource, LockMode.X)
            granted.append(txn)
        except DeadlockError:
            hit.append(txn)
            locks.release_all(txn)  # victim unblocks the survivor

    threads = [
        threading.Thread(target=worker, args=(1, "b")),
        threading.Thread(target=worker, args=(2, "a")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    assert len(hit) == 1, hit  # exactly one victim
    assert len(granted) == 1  # the survivor got its lock
    survivor = granted[0]
    assert locks.holds(survivor, LOGI, "a")
    assert locks.holds(survivor, LOGI, "b")


def test_upgrade_deadlock_detected(locks):
    locks.acquire(1, LOGI, "r", LockMode.S)
    locks.acquire(2, LOGI, "r", LockMode.S)
    hit = []
    done = threading.Event()

    def upgrader(txn):
        try:
            locks.acquire(txn, LOGI, "r", LockMode.X)
        except DeadlockError:
            hit.append(txn)
            locks.release_all(txn)
        done.set()

    threads = [
        threading.Thread(target=upgrader, args=(t,)) for t in (1, 2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    assert len(hit) >= 1


def test_no_false_deadlock_from_stale_edges(locks):
    """The bug behind the rebuild's false victim: a waiter parked behind a
    lock that was released (but not yet rescheduled) must not look like a
    cycle to a new requester."""
    locks.acquire(1, ADDR, "page", LockMode.X)
    released = threading.Event()
    got = threading.Event()

    def instant_waiter():
        locks.wait_instant(2, ADDR, "page", LockMode.S)
        released.wait(3)  # stay alive, not blocked, after the instant wait
        got.set()

    t = threading.Thread(target=instant_waiter)
    t.start()
    time.sleep(0.1)
    locks.release(1, ADDR, "page")
    # Immediately re-request: txn 2's queue entry may still linger.
    locks.acquire(1, ADDR, "page", LockMode.X)  # must NOT raise DeadlockError
    locks.release(1, ADDR, "page")
    released.set()
    t.join(3)
    assert got.is_set()


def test_counters_track_calls(locks):
    before = locks.counters.lock_mgr_calls
    locks.acquire(1, ADDR, "r", LockMode.S)
    locks.try_acquire(2, ADDR, "r", LockMode.X)
    assert locks.counters.lock_mgr_calls - before == 2


# ------------------------------------------------ fast path / slow path edge


def observed(locks: LockManager) -> list[str]:
    locks.syncpoints = SyncPoints()
    fired: list[str] = []
    locks.syncpoints.observe(lambda name, _attrs: fired.append(name))
    return fired


def counted_notifies(locks: LockManager, monkeypatch) -> list[int]:
    calls: list[int] = []
    notify_all = locks._cond.notify_all
    monkeypatch.setattr(
        locks._cond, "notify_all", lambda: (calls.append(1), notify_all())
    )
    return calls


def test_uncontended_release_empties_the_table_and_notifies_nobody(
    locks, monkeypatch
):
    fired = observed(locks)
    notifies = counted_notifies(locks, monkeypatch)
    locks.acquire(1, ADDR, "r", LockMode.X)
    locks.release(1, ADDR, "r")
    assert locks._table == {}
    assert locks.try_acquire(2, ADDR, "r", LockMode.S)
    assert locks.try_acquire(3, ADDR, "r", LockMode.S)
    locks.release(2, ADDR, "r")
    locks.release(3, ADDR, "r")
    locks.wait_instant(4, ADDR, "r")
    locks.acquire(5, LOGI, "k", LockMode.S)
    locks.acquire(5, LOGI, "k", LockMode.X)  # sole holder: no wait
    locks.release_all(5)
    assert locks._table == {}
    assert notifies == [] and fired == []
    assert locks.counters.lock_waits == 0


def test_release_wakes_a_parked_waiter(locks, monkeypatch):
    fired = observed(locks)
    notifies = counted_notifies(locks, monkeypatch)
    locks.acquire(1, ADDR, "r", LockMode.X)
    got = threading.Event()

    def other():
        locks.acquire(2, ADDR, "r", LockMode.X)
        got.set()
        locks.release(2, ADDR, "r")

    t = threading.Thread(target=other)
    t.start()
    until(lambda: locks._waiting == 1)
    assert notifies == [] and fired == ["lock.wait"]
    locks.release(1, ADDR, "r")
    assert got.wait(3)
    t.join(3)
    assert not t.is_alive()
    assert notifies == [1]  # the waiter's own release found nobody parked
    assert fired == ["lock.wait"]
    assert locks._table == {} and locks._waiting == 0


def test_an_upgrade_that_waits_fires_once(locks):
    fired = observed(locks)
    locks.acquire(1, LOGI, "r", LockMode.S)
    locks.acquire(2, LOGI, "r", LockMode.S)
    upgraded = threading.Event()

    def upgrader():
        locks.acquire(1, LOGI, "r", LockMode.X)
        upgraded.set()

    t = threading.Thread(target=upgrader)
    t.start()
    until(lambda: locks._waiting == 1)
    locks.release(2, LOGI, "r")
    assert upgraded.wait(3)
    t.join(3)
    assert not t.is_alive()
    assert fired == ["lock.wait"]
    assert locks.holds(1, LOGI, "r", LockMode.X)

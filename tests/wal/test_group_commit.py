"""Group commit: concurrent commit-path flushes share physical flushes."""

from __future__ import annotations

import os
import sys
import threading
import time

import repro.wal.log as log_module
from repro.stats.counters import Counters
from repro.wal.file_log import FileLogManager
from repro.wal.log import LogManager
from repro.wal.records import LogRecord, RecordType


def _append(log: LogManager) -> int:
    return log.append(LogRecord(type=RecordType.TXN_COMMIT))


def _held(log: LogManager, monkeypatch, window: float) -> LogManager:
    """``log`` with its group-commit window held, ``window`` seconds long."""
    monkeypatch.setattr(log_module, "GROUP_COMMIT_WINDOW", window)
    log.hold_window()
    return log


def _concurrent_commits(log: LogManager, n: int) -> None:
    """N threads, each appending one commit record and flushing it through
    the commit path, released together by a barrier."""
    barrier = threading.Barrier(n)

    def committer() -> None:
        lsn = _append(log)
        barrier.wait()
        log.flush_commit(lsn)

    threads = [threading.Thread(target=committer) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_group_commit_coalesces_flushes(monkeypatch):
    counters = Counters()
    log = _held(LogManager(counters=counters), monkeypatch, 0.01)
    n = 8
    _concurrent_commits(log, n)
    # Every record is durable...
    assert len(list(log.scan(durable_only=True))) == n
    # ...but in fewer physical flushes than one per committer.
    assert counters.log_flushes < n
    assert counters.log_flushes >= 1
    assert counters.log_flushes + counters.log_flushes_coalesced >= n - 1


def test_window_zero_flushes_per_commit():
    counters = Counters()
    log = LogManager(counters=counters)  # nobody holds the window
    n = 4
    for _ in range(n):
        log.flush_commit(_append(log))
    assert counters.log_flushes == n


def test_flush_counts_only_real_io():
    counters = Counters()
    log = LogManager(counters=counters)
    lsn = _append(log)
    log.flush_to(lsn)
    log.flush_to(lsn)  # already durable: no new physical flush
    log.flush_to(lsn - 1)
    assert counters.log_flushes == 1


def test_wal_hook_path_never_waits_on_window(monkeypatch):
    """Non-commit flushes (group=False) must be immediate even with the
    window held — they can run under the buffer-pool lock."""
    counters = Counters()
    # An absurd window: a wait would hang.
    log = _held(LogManager(counters=counters), monkeypatch, 10.0)
    lsn = _append(log)
    log.flush_to(lsn)  # returns immediately
    assert log.flushed_lsn > 0
    assert counters.log_flushes == 1


def test_group_commit_file_log_durability(tmp_path, monkeypatch):
    """Grouped flushes reach the file: records survive a reopen."""
    path = str(tmp_path / "wal.log")
    log = _held(FileLogManager(path, counters=Counters()), monkeypatch, 0.005)
    _concurrent_commits(log, 6)
    log.close()
    reopened = FileLogManager(path, counters=Counters())
    assert len(list(reopened.scan(durable_only=True))) == 6
    reopened.close()


def test_follower_satisfied_by_unrelated_flush(monkeypatch):
    """A plain flush covering a follower's LSN must wake it (the notify
    in _advance_locked), not leave it waiting for a leader."""
    counters = Counters()
    log = _held(LogManager(counters=counters), monkeypatch, 0.05)
    first = _append(log)
    second = _append(log)

    leader_started = threading.Event()
    orig_sleep_done = threading.Event()

    def leader() -> None:
        leader_started.set()
        log.flush_commit(first)
        orig_sleep_done.set()

    t = threading.Thread(target=leader)
    t.start()
    leader_started.wait()
    # While the leader sleeps out its window, an immediate flush covers
    # everything; the leader's flush then finds nothing left to do.
    log.flush_to(second)
    t.join(5.0)
    assert not t.is_alive()
    assert counters.log_flushes == 1


# ------------------------------------------- a committer that does not gather


def test_committer_that_does_not_gather_flushes_at_once_without_a_round(
    monkeypatch,
):
    """The rebuild's own commit has nobody to wait for: with no round open
    it never sleeps a window out as the leader."""
    counters = Counters()
    # An absurd window: leading would hang.
    log = _held(LogManager(counters=counters), monkeypatch, 10.0)
    lsn = _append(log)
    log.flush_commit(lsn, gather=False)
    assert log.flushed_lsn > lsn
    assert counters.log_flushes == 1
    assert counters.log_flushes_coalesced == 0


def test_committer_that_does_not_gather_still_rides_a_round_in_progress(
    monkeypatch,
):
    """…but a leader that is gathering covers it: one physical flush,
    one request coalesced, exactly as for any follower."""
    counters = Counters()
    log = LogManager(counters=counters)
    log.hold_window()
    window_open, window_over = threading.Event(), threading.Event()

    def held_window(_seconds: float) -> None:
        window_open.set()
        assert window_over.wait(10.0)

    monkeypatch.setattr(log_module.time, "sleep", held_window)
    first = _append(log)
    leader = threading.Thread(target=log.flush_commit, args=(first,))
    leader.start()
    assert window_open.wait(10.0)
    second = _append(log)
    rider = threading.Thread(
        target=log.flush_commit, args=(second,), kwargs={"gather": False}
    )
    rider.start()
    deadline = time.monotonic() + 10.0
    while True:  # until the rider has registered its target with the round
        with log._flush_cv:
            if log._gc_target >= second:
                break
        assert time.monotonic() < deadline
    assert counters.log_flushes == 0  # it did not flush on its own
    window_over.set()
    leader.join(10.0)
    rider.join(10.0)
    assert not leader.is_alive() and not rider.is_alive()
    assert log.flushed_lsn > second
    assert counters.log_flushes == 1
    assert counters.log_flushes_coalesced == 1


# ------------------------------------------------------- who holds the window


def test_window_is_held_until_the_last_holder_releases(monkeypatch):
    """Two overlapping rebuilds share the window: the first to end must
    not close it under the other."""
    counters = Counters()
    log = LogManager(counters=counters)
    slept: list[float] = []
    monkeypatch.setattr(log_module.time, "sleep", slept.append)

    def gathered() -> bool:
        """Whether a commit now sleeps a window out as a round's leader."""
        del slept[:]
        log.flush_commit(_append(log))
        return slept == [log_module.GROUP_COMMIT_WINDOW]

    assert not gathered()
    log.hold_window()
    log.hold_window()
    assert gathered()
    log.release_window()
    assert gathered(), "closed while a run still held it"
    log.release_window()
    assert not gathered()


def test_overlapping_holders_stress():
    """More threads than cores hold and release for a bounded time: while
    a thread holds, the window is open; once all have left it is closed
    (a lost holder count would strand it open, or close it early)."""
    log = LogManager(counters=Counters())
    workers = 4 * (os.cpu_count() or 2)
    deadline = time.monotonic() + 1.0
    closed_under_a_holder: list[int] = []

    def churn() -> None:
        while time.monotonic() < deadline:
            log.hold_window()
            if not log._window_holders:
                closed_under_a_holder.append(1)
            log.release_window()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert closed_under_a_holder == []
    assert log._window_holders == 0


def test_followers_are_woken_not_timed_out_stress(monkeypatch):
    """More committers than cores commit through held windows for a
    bounded time.  A flush notifies only while a follower is parked, so
    a follower the count missed would sleep out its 1 s wait timeout
    instead of waking when the leader's flush covers it."""
    log = _held(LogManager(counters=Counters()), monkeypatch, 0.002)
    workers = 4 * (os.cpu_count() or 2)
    deadline = time.monotonic() + 1.0
    slowest: list[float] = []

    def committer() -> None:
        worst = 0.0
        while time.monotonic() < deadline:
            lsn = _append(log)
            start = time.monotonic()
            log.flush_commit(lsn)
            worst = max(worst, time.monotonic() - start)
        slowest.append(worst)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=committer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(slowest) == workers
    assert max(slowest) < 0.9
    assert log._gc_waiting == 0
    assert len(list(log.scan(durable_only=True))) == len(log.raw_records())

"""Group commit: concurrent commit-path flushes share physical flushes."""

from __future__ import annotations

import threading
import time

from repro.stats.counters import Counters
from repro.wal.file_log import FileLogManager
from repro.wal.log import LogManager
from repro.wal.records import LogRecord, RecordType


def _append(log: LogManager) -> int:
    return log.append(LogRecord(type=RecordType.TXN_COMMIT))


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


def test_group_commit_coalesces_flushes():
    counters = Counters()
    log = LogManager(counters=counters)
    log.group_commit_window = 0.01
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
    log = LogManager(counters=counters)  # window defaults to 0.0
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


def test_wal_hook_path_never_waits_on_window():
    """Non-commit flushes (group=False) must be immediate even with a
    window configured — they can run under the buffer-pool lock."""
    counters = Counters()
    log = LogManager(counters=counters)
    log.group_commit_window = 10.0  # absurd window: a wait would hang
    lsn = _append(log)
    log.flush_to(lsn)  # returns immediately
    assert log.flushed_lsn > 0
    assert counters.log_flushes == 1


def test_group_commit_file_log_durability(tmp_path):
    """Grouped flushes reach the file: records survive a reopen."""
    path = str(tmp_path / "wal.log")
    log = FileLogManager(path, counters=Counters())
    log.group_commit_window = 0.005
    _concurrent_commits(log, 6)
    log.close()
    reopened = FileLogManager(path, counters=Counters())
    assert len(list(reopened.scan(durable_only=True))) == 6
    reopened.close()


def test_follower_satisfied_by_unrelated_flush():
    """A plain flush covering a follower's LSN must wake it (the notify
    in _advance_locked), not leave it waiting for a leader."""
    counters = Counters()
    log = LogManager(counters=counters)
    log.group_commit_window = 0.05
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


def test_committer_that_does_not_gather_flushes_at_once_without_a_round():
    """The rebuild's own commit has nobody to wait for: with no round open
    it never sleeps a window out as the leader."""
    counters = Counters()
    log = LogManager(counters=counters)
    log.group_commit_window = 10.0  # absurd window: leading would hang
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
    import repro.wal.log as log_module

    counters = Counters()
    log = LogManager(counters=counters)
    log.group_commit_window = 0.002
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

"""Locking scans (``Engine(lock_rows=True)``): wait for the row lock, then
validate the leaf, then return — a row whose transaction rolled back
while the scan waited on it must not be returned.

Two threads, no sleeps: the main thread learns that the scan is parked in
the lock manager from a wrapper around the manager's own wait (which runs
under the manager's mutex, so the holder's release — which needs that
mutex — cannot overtake the waiter's enqueue).
"""

import threading

import pytest

from repro import Engine
from repro.btree import keys as K
from repro.concurrency.locks import LockSpace
from tests.conftest import contents_as_ints, intkey

TIMEOUT = 10.0


@pytest.fixture
def index():
    engine = Engine(buffer_capacity=2048, lock_timeout=TIMEOUT, lock_rows=True)
    tree = engine.create_index(key_len=4)
    for k in range(0, 20, 2):  # 0, 2, ..., 18: 7 is free, 8 is present
        tree.insert(intkey(k), k)
    return tree


def blocked_on(locks, unit: bytes) -> threading.Event:
    """Set when a request for the row lock on ``unit`` has to queue."""
    event = threading.Event()
    wait_for_grant = locks._wait_for_grant

    def noting(key, res, req):
        if key == (LockSpace.LOGICAL, unit) and not locks._grantable_queued(
            res, req
        ):
            event.set()
        wait_for_grant(key, res, req)

    locks._wait_for_grant = noting
    return event


def scan_in_thread(tree, it=None):
    """Drain ``it`` (a fresh full scan by default) on a second thread."""
    got: list[int] = []
    errors: list[BaseException] = []

    def body():
        try:
            for key, _rowid in it if it is not None else tree.scan():
                got.append(int.from_bytes(key, "big"))
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, got, errors


def finish(thread, errors):
    thread.join(TIMEOUT)
    assert not thread.is_alive(), "the scan never came back from the lock wait"
    assert not errors, errors


def test_row_whose_insert_rolls_back_during_the_wait_is_not_returned(index):
    ctx = index.ctx
    waiting = blocked_on(ctx.locks, K.leaf_unit(intkey(7), 7, 4))
    writer = ctx.txns.begin()
    index.insert(intkey(7), 7, txn=writer)  # X row lock held, uncommitted

    thread, got, errors = scan_in_thread(index)
    assert waiting.wait(TIMEOUT), "the scan never waited on the open insert"
    ctx.txns.abort(writer)
    finish(thread, errors)

    assert 7 not in contents_as_ints(index)
    assert got == list(range(0, 20, 2))


def test_row_whose_insert_commits_during_the_wait_is_returned(index):
    ctx = index.ctx
    waiting = blocked_on(ctx.locks, K.leaf_unit(intkey(7), 7, 4))
    writer = ctx.txns.begin()
    index.insert(intkey(7), 7, txn=writer)

    thread, got, errors = scan_in_thread(index)
    assert waiting.wait(TIMEOUT)
    ctx.txns.commit(writer)
    finish(thread, errors)

    assert got == sorted(list(range(0, 20, 2)) + [7])


def test_row_whose_delete_commits_during_the_wait_is_not_returned(index):
    """The mirror: the scan parks between two rows with 8 in its run, a
    transaction deletes 8, the scan resumes into the wait on 8's lock,
    the delete commits.  8 is gone; its neighbours 6 and 10 are returned."""
    ctx = index.ctx
    it = index.scan()
    head = [int.from_bytes(next(it)[0], "big") for _ in range(4)]
    assert head == [0, 2, 4, 6]

    waiting = blocked_on(ctx.locks, K.leaf_unit(intkey(8), 8, 4))
    writer = ctx.txns.begin()
    index.delete(intkey(8), 8, txn=writer)

    thread, got, errors = scan_in_thread(index, it)
    assert waiting.wait(TIMEOUT), "the scan never waited on the deleted row"
    ctx.txns.commit(writer)
    finish(thread, errors)

    assert head + got == [0, 2, 4, 6, 10, 12, 14, 16, 18]
    assert contents_as_ints(index) == head + got


def test_row_whose_delete_rolls_back_during_the_wait_is_returned(index):
    ctx = index.ctx
    it = index.scan()
    head = [int.from_bytes(next(it)[0], "big") for _ in range(4)]

    waiting = blocked_on(ctx.locks, K.leaf_unit(intkey(8), 8, 4))
    writer = ctx.txns.begin()
    index.delete(intkey(8), 8, txn=writer)

    thread, got, errors = scan_in_thread(index, it)
    assert waiting.wait(TIMEOUT)
    ctx.txns.abort(writer)
    finish(thread, errors)

    assert head + got == list(range(0, 20, 2))

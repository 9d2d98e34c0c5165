"""Checkpoints taken while other threads work.

A checkpoint's record carries ``redo_lsn``, the log's next LSN when its
flush began: restart redoes everything from there, so a change logged
while the flush runs is not lost, and the flush takes every image under
its page's S latch, so a change that was logged before ``redo_lsn`` is in
the image it stores.  Each test ends with a crash and a recovery that
must keep exactly the committed rows, a tree that verifies and nothing
left behind.
"""

import random
import threading

import pytest

from repro import Engine
from repro.errors import KeyNotFoundError
from repro.storage.page import Page
from repro.workload.builder import bulk_load
from tests.conftest import NOTHING_LEFT, intkey, left_behind, until


def recovered_rows(engine: Engine) -> list[tuple[bytes, int]]:
    """Crash, recover, and return the index's rows after checking the
    tree and that recovery left nothing behind."""
    engine.crash()
    engine.recover()
    tree = engine.index(1)
    tree.verify()
    assert left_behind(engine) == NOTHING_LEFT
    return tree.contents()


def test_a_commit_between_the_flush_and_the_record_survives(monkeypatch):
    """The reproduction: one autocommit insert runs after the flush
    returns and before the checkpoint logs its record.  Its record lies
    below the checkpoint's, and its leaf was stored without it."""
    engine = Engine(page_size=2048, buffer_capacity=2048)
    keys = [intkey(2 * i) for i in range(20_000)]
    tree = bulk_load(engine, keys, 4, fill=0.9)
    model = {(key, rowid) for rowid, key in enumerate(keys)}
    flush_all = engine.ctx.buffer.flush_all
    late = (intkey(2 * 7_777 + 1), 10**6)

    def flush_then_insert():
        flush_all()
        tree.insert(*late)

    monkeypatch.setattr(engine.ctx.buffer, "flush_all", flush_then_insert)
    engine.checkpoint()
    monkeypatch.undo()
    model.add(late)
    assert set(recovered_rows(engine)) == model
    assert engine.index(1).contains(*late)


def test_a_change_logged_before_its_frame_is_dirty_is_stored():
    """A writer is parked after its INSERT is appended and before its
    frame is marked dirty, X latch held, while another thread
    checkpoints: the clean pinned frame is not skipped, the checkpoint
    waits for its latch and stores the row, and a restart keeps it."""
    engine = Engine(page_size=2048, buffer_capacity=1024)
    keys = [intkey(2 * i) for i in range(2_000)]
    tree = bulk_load(engine, keys, 4, fill=0.5)
    model = {(key, rowid) for rowid, key in enumerate(keys)}
    row = (intkey(2 * 1_000 + 1), 10**6)
    pool = engine.ctx.buffer
    mark_dirty = pool.mark_dirty
    parked, resume = threading.Event(), threading.Event()
    writer_thread = {}

    def parking_mark_dirty(page_id):
        if threading.current_thread() is writer_thread.get("t") and (
            not parked.is_set()
        ):
            parked.set()
            assert resume.wait(10)
        mark_dirty(page_id)

    pool.mark_dirty = parking_mark_dirty
    waited = threading.Event()
    engine.syncpoints.on("latch.wait", lambda ctx: waited.set())
    errors = []

    def run(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    writer = threading.Thread(target=run, args=(lambda: tree.insert(*row),))
    writer_thread["t"] = writer
    writer.start()
    assert parked.wait(10)
    checkpointer = threading.Thread(target=run, args=(engine.checkpoint,))
    checkpointer.start()
    # The checkpoint either waits for the parked writer's latch or (the
    # bug) finishes without the row.
    until(lambda: waited.is_set() or not checkpointer.is_alive(), 10)
    resume.set()
    writer.join(10)
    checkpointer.join(10)
    engine.syncpoints.clear()
    del pool.mark_dirty
    assert not errors and not writer.is_alive()
    model.add(row)
    assert set(recovered_rows(engine)) == model


@pytest.mark.parametrize("truncate", [False, True], ids=["keep", "truncate"])
def test_committed_changes_survive_checkpoints_under_traffic(truncate):
    """Two clients insert and delete while a third thread checkpoints in
    a loop.  The checkpoints stop while the clients still run, so the
    last one overlapped traffic; then the clients stop, the engine
    crashes and recovers.  Every committed change survives, and nothing
    else does.  Three rounds, each on the engine the last one
    recovered."""
    engine = Engine(page_size=512, buffer_capacity=1024, lock_timeout=15.0)
    keys = [intkey(4 * i) for i in range(3_000)]
    bulk_load(engine, keys, 4, fill=0.7)
    model = {(key, rowid) for rowid, key in enumerate(keys)}
    for round_no in range(3):
        run_traffic(engine, model, keys, round_no, truncate)
        assert set(recovered_rows(engine)) == model


def run_traffic(engine, model, keys, round_no, truncate) -> None:
    """One round of the threaded test: ``model`` follows every change a
    client made (each client owns its rows)."""
    tree = engine.index(1)
    lock = threading.Lock()
    stop = threading.Event()
    errors = []
    checkpoints = [0]

    def client(seed: int) -> None:
        rng = random.Random(10 * round_no + seed)
        mine = [
            (intkey(4 * i + 1 + seed), 10**6 + i)
            for i in range(1_000 * round_no, 1_000 * (round_no + 1))
        ]
        inserted = []
        try:
            for op in range(400):
                if op == 300:
                    stop.set()
                if inserted and rng.random() < 0.4:
                    row = inserted.pop(rng.randrange(len(inserted)))
                    tree.delete(*row)
                    with lock:
                        model.discard(row)
                elif rng.random() < 0.2:
                    # Delete a loaded row: leaves empty out and shrink.
                    rowid = rng.randrange(len(keys))
                    row = (keys[rowid], rowid)
                    if rowid % 2 != seed:
                        continue  # the other client's half
                    try:
                        tree.delete(*row)
                    except KeyNotFoundError:
                        continue
                    with lock:
                        model.discard(row)
                else:
                    row = mine.pop(rng.randrange(len(mine)))
                    tree.insert(*row)
                    inserted.append(row)
                    with lock:
                        model.add(row)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def checkpointer() -> None:
        try:
            while not stop.is_set():
                engine.checkpoint(truncate=truncate)
                checkpoints[0] += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    clients = [threading.Thread(target=client, args=(s,)) for s in (0, 1)]
    ckpt = threading.Thread(target=checkpointer)
    ckpt.start()
    for t in clients:
        t.start()
    for t in clients:
        t.join(60)
    stop.set()
    ckpt.join(60)
    assert not errors, errors
    assert not ckpt.is_alive() and not any(t.is_alive() for t in clients)
    assert checkpoints[0] >= 1


def test_a_checkpoint_serializes_no_page_under_the_pool_lock(monkeypatch):
    """A checkpoint of thousands of dirty pages takes each image under
    the page's S latch alone: the pool lock, which every fetch takes, is
    never held across a ``Page.to_bytes``.  (Counted, not timed.)"""
    engine = Engine(page_size=512, buffer_capacity=4096)
    keys = [intkey(2 * i) for i in range(72_000)]
    tree = bulk_load(engine, keys, 4, fill=0.9)
    leaves = tree.verify().leaf_page_ids
    assert len(leaves) >= 2_000
    for k in range(1, 2 * len(keys), 2 * len(keys) // len(leaves)):
        tree.insert(intkey(k), 10**6 + k)
    pool = engine.ctx.buffer
    to_bytes = Page.to_bytes
    under_lock = [0]

    def watched_to_bytes(page):
        # Single-threaded: a held pool lock is this thread's.
        under_lock[0] += pool._mutex.locked()
        return to_bytes(page)

    monkeypatch.setattr(Page, "to_bytes", watched_to_bytes)
    before = engine.counters.snapshot()
    engine.checkpoint()
    assert engine.counters.diff(before)["page_writes"] >= 2_000
    assert under_lock[0] == 0

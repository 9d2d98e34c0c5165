"""Tiny-buffer-pool stress: the steal policy (dirty evictions mid-
transaction) must keep WAL ordering and crash recovery sound."""

import random
import sys
import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.workload.builder import bulk_load
from tests.conftest import (
    NOTHING_LEFT,
    contents_as_ints,
    fill_index,
    intkey,
    left_behind,
    make_half_empty,
)


@pytest.fixture
def tiny_engine():
    # 24 frames: a three-level tree cannot fit; every operation evicts.
    return Engine(buffer_capacity=24, lock_timeout=15.0)


def test_build_under_pressure(tiny_engine):
    index = tiny_engine.create_index(key_len=4)
    fill_index(index, 3000)
    assert contents_as_ints(index) == list(range(3000))
    index.verify()


def test_rebuild_under_pressure(tiny_engine):
    index = tiny_engine.create_index(key_len=4)
    make_half_empty(index, 3000)
    before = index.contents()
    report = OnlineRebuild(
        index, RebuildConfig(ntasize=8, xactsize=32)
    ).run()
    assert index.contents() == before
    assert index.verify().leaf_fill > 0.9
    assert report.pages_freed > 0


def test_evicted_dirty_pages_obey_wal(tiny_engine):
    """Every dirty eviction must flush the log first: after a crash at an
    arbitrary point, redo can always reconstruct what reached disk."""
    index = tiny_engine.create_index(key_len=4)
    fill_index(index, 2000)
    for k in range(0, 2000, 3):
        index.delete(intkey(k), k)
    expected = contents_as_ints(index)
    # Crash without any flush beyond what evictions already forced.
    tiny_engine.crash()
    tiny_engine.recover()
    index = tiny_engine.index(1)
    assert contents_as_ints(index) == expected
    index.verify()


def test_crash_mid_rebuild_under_pressure(tiny_engine):
    index = tiny_engine.create_index(key_len=4)
    make_half_empty(index, 2500)
    expected = contents_as_ints(index)
    fired = {"n": 0}

    def boom(ctx):
        fired["n"] += 1
        if fired["n"] == 4:
            raise CrashPoint("pressure-crash")

    tiny_engine.syncpoints.on("rebuild.nta_end", boom)
    with pytest.raises(CrashPoint):
        OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    tiny_engine.crash()
    tiny_engine.recover()
    index = tiny_engine.index(1)
    assert contents_as_ints(index) == expected
    index.verify()
    assert tiny_engine.ctx.page_manager.deallocated_pages() == []


def test_scan_under_pressure(tiny_engine):
    index = tiny_engine.create_index(key_len=4)
    fill_index(index, 2000)
    got = [int.from_bytes(k, "big") for k, _ in index.scan()]
    assert got == list(range(2000))


@pytest.mark.parametrize("mode", ["pipelined", "unpipelined"])
def test_rebuild_with_writers_under_eviction_pressure(mode, request):
    """A rebuild of an index five times the size of the pool while two
    writers insert fresh keys and delete loaded ones: the scan's 16 KB
    run misses with their run-mate claims, its read-ahead (pipelined)
    and the evictions of both tables all run under committed traffic.
    Every committed change holds, the tree verifies and nothing is left
    behind."""
    request.getfixturevalue(mode)
    engine = Engine(buffer_capacity=256, io_size=16384, lock_timeout=15.0)
    keys = [intkey(2 * i) for i in range(100_000)]
    tree = bulk_load(engine, keys, 4, fill=0.5)
    engine.checkpoint()
    engine.buffer.evict_all()
    model = {(key, rowid) for rowid, key in enumerate(keys)}
    lock = threading.Lock()
    stop = threading.Event()
    errors = []
    done = [0, 0]

    def writer(seed: int) -> None:
        rng = random.Random(seed)
        doomed = list(range(seed, len(keys), 2))  # loaded rows it owns
        rng.shuffle(doomed)
        try:
            for i in range(len(doomed)):
                if stop.is_set():
                    return
                fresh = (intkey(4 * i + 2 * seed + 1), 10**6 + 2 * i + seed)
                tree.insert(*fresh)
                row = (keys[doomed[i]], doomed[i])
                tree.delete(*row)
                with lock:
                    model.add(fresh)
                    model.discard(row)
                    done[seed] += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    writers = [threading.Thread(target=writer, args=(s,)) for s in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more hand-offs inside the pool's paths
    for thread in writers:
        thread.start()
    try:
        report = OnlineRebuild(
            tree, RebuildConfig(ntasize=16, xactsize=64)
        ).run()
    finally:
        stop.set()
        for thread in writers:
            thread.join(30.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers)
    assert errors == []
    assert all(done), done  # both writers committed changes
    assert report.leaf_pages_rebuilt > 4 * engine.buffer.capacity
    assert set(tree.contents()) == model
    tree.verify()
    assert left_behind(engine) == NOTHING_LEFT

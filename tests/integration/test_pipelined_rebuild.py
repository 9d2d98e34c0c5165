"""Pipelined rebuild: correctness under traffic, §3 enforcement, A/B parity.

The I/O pipeline (issue 3) moves the §3 forced write off the critical path
but must not change *what* the rebuild does: the same tree, the same
logical log, and old pages never freed before their replacements are
durable — even when the background writer dies mid-transaction.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.core import rebuild as rebuild_module
from repro.errors import (
    ChecksumError,
    IOSchedulerError,
    PermanentIOError,
    RebuildAbortedError,
)
from repro.storage.faults import FaultPlan
from repro.workload import MixedWorkload
from repro.workload.builder import bulk_load
from tests.conftest import intkey
from tests.integration.test_write_budget import GatedDisk

# Every rebuild here runs as it would on a slow device: I/O threads on,
# group-commit window held.
pytestmark = pytest.mark.usefixtures("pipelined")
PIPELINED = RebuildConfig(ntasize=16, xactsize=64)


def build_fragmented(key_count: int = 20_000, buffer_capacity: int = 8192):
    engine = Engine(buffer_capacity=buffer_capacity, lock_timeout=30.0)
    index = engine.create_index(key_len=4)
    for k in range(0, key_count, 2):
        index.insert(intkey(k), k)
    for k in range(0, key_count, 4):
        index.delete(intkey(k), k)
    return engine, index


# ------------------------------------------------- correctness under traffic


@pytest.mark.slow
def test_pipelined_rebuild_with_concurrent_oltp():
    engine, index = build_fragmented()
    workload = MixedWorkload(
        index, intkey, key_count=20_000, threads=4, write_fraction=0.8,
    )
    workload.start()
    try:
        report = OnlineRebuild(index, PIPELINED).run()
    finally:
        stats = workload.stop()
    assert stats.errors == []
    assert report.leaf_pages_rebuilt > 0
    # Untouched keys (even ordinals not deleted during setup) all present.
    for k in range(2, 20_000, 4):
        assert index.contains(intkey(k), k), k
    index.verify()
    assert stats.operations > 0


@pytest.mark.slow
def test_pipelined_rebuild_loses_no_tracked_insert():
    """A writer thread inserts fresh keys during the pipelined rebuild;
    every insert it reports committed must be in the final tree."""
    engine, index = build_fragmented()
    inserted: list[int] = []
    stop = threading.Event()

    def writer() -> None:
        k = 100_000  # disjoint from the setup key space
        while not stop.is_set():
            index.insert(intkey(k), k)
            inserted.append(k)
            k += 1

    t = threading.Thread(target=writer)
    t.start()
    try:
        OnlineRebuild(index, PIPELINED).run()
    finally:
        stop.set()
        t.join(30.0)
    assert not t.is_alive()
    assert inserted
    for k in inserted:
        assert index.contains(intkey(k), k), k
    index.verify()


# --------------------------------------------------------- §3 enforcement


def run_checking_every_free(engine, rb, on_nta_end) -> int:
    """Run ``rb`` to its abort with ``on_nta_end(ordinal, new pages)``
    called after each top action.  At the moment any old page is freed, every new page
    of the transaction's completed top actions must already be durable on
    disk.  Returns how many top actions completed."""
    ctx = engine.ctx
    expected_durable: list[int] = []
    violations: list[str] = []
    ntas_done = 0

    def hook(hook_ctx: dict) -> None:
        nonlocal ntas_done
        expected_durable.extend(hook_ctx["new_pages"])
        ntas_done += 1
        on_nta_end(ntas_done, hook_ctx["new_pages"])

    engine.syncpoints.on("rebuild.nta_end", hook)
    real_free = ctx.page_manager.free

    def checked_free(page_id: int) -> None:
        for pid in expected_durable:
            if not ctx.disk.exists(pid):
                violations.append(
                    f"freed {page_id} while new page {pid} not durable"
                )
        real_free(page_id)

    ctx.page_manager.free = checked_free  # type: ignore[method-assign]
    try:
        with pytest.raises(RebuildAbortedError):
            rb.run()
    finally:
        ctx.page_manager.free = real_free  # type: ignore[method-assign]
        engine.syncpoints.clear()
    assert violations == []
    return ntas_done


def test_killed_forcer_never_frees_before_durability():
    """Kill the write-behind forcer mid-transaction: the rebuild must abort,
    and nothing is freed before what replaced it is durable."""
    engine, index = build_fragmented(key_count=8_000)
    rb = OnlineRebuild(index, PIPELINED)

    def kill_after_the_second(ordinal: int, _new_pages) -> None:
        if ordinal == 2 and rb._scheduler is not None:
            rb._scheduler.kill()  # the I/O threads die mid-transaction

    done = run_checking_every_free(engine, rb, kill_after_the_second)
    assert done >= 2  # the kill actually happened mid-transaction
    # The abort path's synchronous flush preserved completed top actions.
    index.verify()


def held_index():
    """A bulk-loaded index whose device holds every write until the test
    opens the gate (17 new pages per top action: two runs for
    write-behind, the last leaf kept back for the barrier)."""
    engine = Engine(page_size=2048, io_size=16384, buffer_capacity=8192)
    index = bulk_load(engine, [intkey(2 * i) for i in range(40_000)], 4)
    engine.checkpoint()
    disk = engine.ctx.disk
    disk.__class__ = GatedDisk
    disk.arm()
    disk.gate.clear()
    config = RebuildConfig(ntasize=34, xactsize=136)
    return engine, index, disk, OnlineRebuild(index, config)


def test_forcer_killed_with_two_writes_in_flight_never_frees_early():
    """The same, with the kill landing while two writers sleep in the
    device: their writes land afterwards and complete no barrier."""
    engine, index, disk, rb = held_index()
    in_flight: list[int] = []

    def kill_with_writes_in_the_device(_ordinal: int, _new_pages) -> None:
        if in_flight:
            return
        with disk.changed:  # this top action queued two runs
            assert disk.changed.wait_for(
                lambda: len(disk.in_service) >= 2, 30.0
            )
            in_flight.append(len(disk.in_service))
        sched = rb._scheduler
        killer = threading.Thread(target=sched.kill)  # joins the writers
        killer.start()
        with pytest.raises(IOSchedulerError):
            sched.force([]).wait(30.0)  # dead already, writes still asleep
        assert len(disk.in_service) == in_flight[0]
        disk.gate.set()
        killer.join(30.0)
        assert not killer.is_alive()

    done = run_checking_every_free(
        engine, rb, kill_with_writes_in_the_device
    )
    assert in_flight and in_flight[0] >= 2 and done >= 1
    assert _io_threads() == []
    index.verify()


def test_one_writer_failing_mid_transaction_never_frees_early():
    """One writer meets a permanent device error while two others sleep:
    the barrier fails, the abort path's own flush fails on the same page,
    and the old pages stay deallocated — not freed."""
    engine, index, disk, rb = held_index()
    disk.holds = 2  # the first top action's two runs; later writes pass

    def poison_the_next_run(ordinal: int, new_pages) -> None:
        if ordinal == 1:
            assert disk.parked(2)  # both runs of this top action sleep
            # The chunk allocator hands out consecutive ids: the next top
            # action's first run starts here, and a free writer takes it.
            disk.poison = max(new_pages) + 1
        elif ordinal == 2:
            assert disk.poison in new_pages
            with pytest.raises(IOSchedulerError) as failed:
                rb._scheduler.force([]).wait(30.0)
            assert isinstance(failed.value.__cause__, PermanentIOError)
            assert len(disk.in_service) == 2  # the sleepers, still asleep
            disk.gate.set()

    done = run_checking_every_free(engine, rb, poison_the_next_run)
    assert done >= 2
    assert rb.last_report.pages_freed == 0  # the abort's flush failed too
    assert rb.last_report.transactions == 0
    assert _io_threads() == []


# ------------------------------------------------------------- A/B parity


def _logical_log(engine: Engine) -> list[tuple[int, str, int, int]]:
    return [
        (rec.lsn, rec.type.name, rec.txn_id, rec.page_id)
        for rec in engine.ctx.log.scan()
    ]


def _tree_contents(index) -> list[bytes]:
    return [unit for unit in index.scan()]


def test_pipelining_is_logically_invisible(monkeypatch):
    """Same seeded scenario, pipelining on vs. off: identical final tree
    contents and identical logical log sequences.  Only physical I/O-call
    counts may differ."""
    results = {}
    for label, min_service in (("serial", math.inf), ("pipelined", 0.0)):
        monkeypatch.setattr(
            rebuild_module, "PIPELINE_MIN_SERVICE", min_service
        )
        engine, index = build_fragmented(key_count=6_000, buffer_capacity=256)
        engine.ctx.buffer.evict_all()
        OnlineRebuild(index, PIPELINED).run()
        index.verify()
        results[label] = (
            _tree_contents(index),
            _logical_log(engine),
            engine.counters.disk_io_calls,
        )
    serial_tree, serial_log, _ = results["serial"]
    piped_tree, piped_log, _ = results["pipelined"]
    assert serial_tree == piped_tree
    assert serial_log == piped_log


# ------------------------------------------------- read-ahead is only a hint


def rebuild_into_rot() -> tuple[Engine, OnlineRebuild]:
    """Rot one upcoming source leaf and rebuild into it, the readers
    filling the window between top actions so that a reader (not the copy
    loop) is the first to touch the rotten image.  Returns the engine and
    the aborted rebuild."""
    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=4096,
        fault_plan=FaultPlan(),
    )
    index = bulk_load(
        engine, [intkey(2 * i) for i in range(20_000)], 4, fill=0.5
    )
    leaves = index.verify().leaf_page_ids
    engine.checkpoint()
    engine.buffer.evict_all()
    ppio = engine.ctx.disk.pages_per_io
    # The first leaf of an aligned run, three top actions ahead.
    victim = next(pid for pid in leaves[96:] if (pid - 1) % ppio == 0)
    assert engine.ctx.disk.plant_rot(victim, bit=777)

    rb = OnlineRebuild(index)
    engine.syncpoints.on(
        "rebuild.nta_end", lambda _ctx: rb._scheduler.wait_readahead(30.0)
    )
    with pytest.raises(RebuildAbortedError) as aborted:
        rb.run()
    engine.syncpoints.clear()
    assert isinstance(aborted.value.__cause__, ChecksumError)
    assert rb.last_report.leaf_pages_rebuilt >= 96  # up to the rot, kept
    return engine, rb


def test_failed_prefetch_never_fails_the_rebuild_it_only_counts():
    """The reader meets the rotten leaf first and must do no more than
    count it, once; the error the user sees is the rebuild's own demand
    fetch raising the ``ChecksumError``."""
    engine, _rb = rebuild_into_rot()
    assert engine.counters.prefetch_errors == 1


# ------------------------------------------------------------ thread hygiene


def _io_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("io-")]


@pytest.mark.parametrize("ending", ["returns", "killed", "crash"])
def test_no_io_thread_outlives_the_run(ending):
    engine, index = build_fragmented(key_count=8_000)
    rb = OnlineRebuild(index, PIPELINED)
    assert _io_threads() == []
    seen_running: list[list[str]] = []

    def on_nta_end(_ctx: dict) -> None:
        seen_running.append(_io_threads())
        if ending == "killed" and len(seen_running) == 2:
            rb._scheduler.kill()

    def on_commit(_ctx: dict) -> None:
        if ending == "crash":
            raise CrashPoint("rebuild.txn_committed")

    engine.syncpoints.on("rebuild.nta_end", on_nta_end)
    engine.syncpoints.on("rebuild.txn_committed", on_commit)
    try:
        if ending == "returns":
            rb.run()
        else:
            with pytest.raises(
                RebuildAbortedError if ending == "killed" else CrashPoint
            ):
                rb.run()
    finally:
        engine.syncpoints.clear()
    assert sorted(seen_running[0]) == [
        "io-reader-0", "io-reader-1",
        "io-writer-0", "io-writer-1", "io-writer-2", "io-writer-3",
    ]
    assert _io_threads() == []

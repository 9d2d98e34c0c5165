"""Pipelined rebuild: correctness under traffic, §3 enforcement, A/B parity.

The I/O pipeline (issue 3) moves the §3 forced write off the critical path
but must not change *what* the rebuild does: the same tree, the same
logical log, and old pages never freed before their replacements are
durable — even when the background writer dies mid-transaction.
"""

from __future__ import annotations

import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.errors import ChecksumError, RebuildAbortedError
from repro.storage.faults import FaultPlan
from repro.workload import MixedWorkload
from repro.workload.builder import bulk_load
from tests.conftest import intkey

PIPELINED = RebuildConfig(
    ntasize=16, xactsize=64, pipeline_depth=4, group_commit_window=0.002
)


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


def test_killed_forcer_never_frees_before_durability():
    """Kill the write-behind writer mid-transaction: the rebuild must abort,
    and at the moment any old page is freed, every new page of the
    transaction's completed top actions must already be durable on disk."""
    engine, index = build_fragmented(key_count=8_000)
    ctx = engine.ctx
    rb = OnlineRebuild(index, PIPELINED)

    expected_durable: list[int] = []
    violations: list[str] = []
    ntas_done = 0

    def on_nta_end(hook_ctx: dict) -> None:
        nonlocal ntas_done
        expected_durable.extend(hook_ctx["new_pages"])
        ntas_done += 1
        if ntas_done == 2 and rb._scheduler is not None:
            rb._scheduler.kill()  # the I/O thread dies mid-transaction

    engine.syncpoints.on("rebuild.nta_end", on_nta_end)

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
    assert ntas_done >= 2  # the kill actually happened mid-transaction
    assert violations == []
    # The abort path's synchronous flush preserved completed top actions.
    index.verify()


# ------------------------------------------------------------- A/B parity


def _logical_log(engine: Engine) -> list[tuple[int, str, int, int]]:
    return [
        (rec.lsn, rec.type.name, rec.txn_id, rec.page_id)
        for rec in engine.ctx.log.scan()
    ]


def _tree_contents(index) -> list[bytes]:
    return [unit for unit in index.scan()]


def test_pipelining_is_logically_invisible():
    """Same seeded scenario, pipelining on vs. off: identical final tree
    contents and identical logical log sequences.  Only physical I/O-call
    counts may differ."""
    results = {}
    for label, config in (
        ("serial", RebuildConfig(ntasize=16, xactsize=64)),
        ("pipelined", PIPELINED),
    ):
        engine, index = build_fragmented(key_count=6_000, buffer_capacity=256)
        engine.ctx.buffer.evict_all()
        OnlineRebuild(index, config).run()
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


def test_failed_prefetch_never_fails_the_rebuild_it_only_counts():
    """Rot one upcoming source leaf.  The reader meets it first and must
    do no more than count it; the error the user sees is the rebuild's
    own demand fetch raising the ``ChecksumError``."""
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

    rb = OnlineRebuild(index, RebuildConfig(pipeline_depth=4))
    # Let the readers fill the window between top actions, so the reader
    # (not the copy loop) is the first to touch the rotten image.
    engine.syncpoints.on(
        "rebuild.nta_end", lambda _ctx: rb._scheduler.wait_readahead(30.0)
    )
    with pytest.raises(RebuildAbortedError) as aborted:
        rb.run()
    engine.syncpoints.clear()
    assert isinstance(aborted.value.__cause__, ChecksumError)
    assert engine.counters.prefetch_errors == 1
    assert rb.last_report.leaf_pages_rebuilt >= 96  # up to the rot, kept


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
        "io-reader-0", "io-reader-1", "io-writer",
    ]
    assert _io_threads() == []

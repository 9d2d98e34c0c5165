"""Partitioned parallel rebuild: equivalence, guards, traffic (issue 6).

The worker count is a physical knob only.  Whatever the partitioning did,
the rebuilt index must hold exactly the keys a one-worker rebuild would
have produced and verify clean.
"""

from __future__ import annotations

import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.workload import MixedWorkload
from tests.conftest import contents_as_ints, intkey, make_half_empty

PARALLEL = RebuildConfig(
    ntasize=8, xactsize=32, parallel_workers=4,
    pipeline_depth=2, group_commit_window=0.002,
)


def build_fragmented(key_count: int = 8_000, buffer_capacity: int = 4096):
    engine = Engine(buffer_capacity=buffer_capacity, lock_timeout=30.0)
    index = engine.create_index(key_len=4)
    make_half_empty(index, key_count)
    return engine, index


# ------------------------------------------------------------- equivalence


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_worker_count_never_changes_contents(workers):
    """The acceptance bar: workers ∈ {1, 2, 4} on the same seeded tree
    produce the identical key set, and the tree verifies clean."""
    engine, index = build_fragmented()
    expected = contents_as_ints(index)
    engine.ctx.buffer.evict_all()  # cold: exercise the read-ahead path too
    config = RebuildConfig(
        ntasize=8, xactsize=32, parallel_workers=workers,
        pipeline_depth=2, group_commit_window=0.002,
    )
    report = OnlineRebuild(index, config).run()
    assert report.completed
    assert report.parallel_workers == workers
    if workers > 1:
        assert report.partition_segments >= 2
        assert len(report.worker_reports) == report.partition_segments
        assert sum(
            r.top_actions for r in report.worker_reports
        ) == report.top_actions
    assert contents_as_ints(index) == expected
    stats = index.verify()
    assert stats.leaf_fill > 0.85  # actually repacked, not just preserved


# ------------------------------------------------------------------ guards


def test_serial_default_fires_no_partition_machinery():
    """``parallel_workers=1`` is the one-segment case of the one driver:
    it must not plan, partition, or thread — no planner descent, no
    tiling, the one segment driven on the calling thread."""
    engine, index = build_fragmented(key_count=2_000)
    drivers: set[str] = set()
    engine.syncpoints.on(
        "rebuild.nta_end",
        lambda _ctx: drivers.add(threading.current_thread().name),
    )
    engine.syncpoints.record_fires = True
    report = OnlineRebuild(
        index, RebuildConfig(ntasize=8, xactsize=32)
    ).run()
    engine.syncpoints.record_fires = False
    assert report.parallel_workers == 1
    assert report.partition_segments == 0
    assert len(report.worker_reports) == 1
    assert drivers == {threading.current_thread().name}
    # Of the partition syncpoints, only the ones every segment passes.
    assert sorted(
        name for name in engine.syncpoints.fired
        if name.startswith("rebuild.partition.")
    ) == [
        "rebuild.partition.merged",
        "rebuild.partition.seam_released",
        "rebuild.partition.worker_done",
        "rebuild.partition.worker_start",
    ]
    assert engine.counters.partition_planner_leaves == 0
    assert engine.counters.partition_segments == 0


def test_restrictions_force_serial_driver():
    """Range-restricted and incremental rebuilds are one segment by
    definition: workers > 1 silently drives it on the calling thread."""
    engine, index = build_fragmented(key_count=2_000)
    report = OnlineRebuild(index, PARALLEL).run(
        start_key=intkey(100), end_key=intkey(900)
    )
    assert report.parallel_workers == 1
    assert report.partition_segments == 0
    index.verify()


def test_single_leaf_tree_parallel_noop():
    engine = Engine(buffer_capacity=256)
    index = engine.create_index(key_len=4)
    for k in range(6):
        index.insert(intkey(k), k)
    report = OnlineRebuild(index, PARALLEL).run()
    assert report.parallel_workers == 1
    assert contents_as_ints(index) == list(range(6))
    index.verify()


def test_seam_pp_carries_the_lsn_of_its_link_flip():
    """A right-hand worker's first top action leaves the seam PP's rows
    alone but flips its ``next_page`` — the keycopy record's change, so PP
    must carry that record's LSN like every target: an unstamped PP could
    be written ahead of the log that explains where it points."""
    engine, index = build_fragmented(key_count=4_000)
    seam_done = threading.Event()
    seen: list[tuple[bool, int, int]] = []  # (PP → new page, their LSNs)

    def hold_left_worker(ctx):
        if ctx["worker"] == 0:
            assert seam_done.wait(30.0)

    def after_seam_top_action(ctx):
        if threading.current_thread().name != "rebuild-worker-1":
            return
        if not seam_done.is_set():
            first = engine.ctx.buffer.fetch(ctx["new_pages"][0])
            pp = engine.ctx.buffer.fetch(first.prev_page)
            seen.append(
                (pp.next_page == first.page_id, pp.page_lsn, first.page_lsn)
            )
            engine.ctx.buffer.unpin(pp.page_id)
            engine.ctx.buffer.unpin(first.page_id)
        seam_done.set()

    engine.syncpoints.on("rebuild.partition.worker_start", hold_left_worker)
    engine.syncpoints.on("rebuild.nta_end", after_seam_top_action)
    report = OnlineRebuild(
        index, RebuildConfig(ntasize=4, xactsize=8, parallel_workers=2)
    ).run()
    assert report.completed and report.parallel_workers == 2
    ((linked, pp_lsn, new_lsn),) = seen
    assert linked and pp_lsn == new_lsn
    index.verify()


# ----------------------------------------------------------- under traffic


@pytest.mark.slow
def test_parallel_rebuild_with_concurrent_oltp():
    engine, index = build_fragmented(key_count=20_000, buffer_capacity=8192)
    workload = MixedWorkload(
        index, intkey, key_count=20_000, threads=4, write_fraction=0.8,
    )
    workload.start()
    try:
        report = OnlineRebuild(index, PARALLEL).run()
    finally:
        stats = workload.stop()
    assert stats.errors == []
    assert stats.operations > 0
    assert report.completed
    assert report.partition_segments >= 2
    index.verify()
    # The foreground percentile plumbing rode along (satellite 2).
    pct = stats.latency_percentiles()
    assert set(pct["all"]) == {"p50", "p95", "p99"}
    assert pct["all"]["p50"] <= pct["all"]["p95"] <= pct["all"]["p99"]


@pytest.mark.slow
def test_parallel_rebuild_loses_no_tracked_insert():
    engine, index = build_fragmented(key_count=12_000, buffer_capacity=8192)
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
        OnlineRebuild(index, PARALLEL).run()
    finally:
        stop.set()
        t.join(30.0)
    assert not t.is_alive()
    assert inserted
    for k in inserted:
        assert index.contains(intkey(k), k), k
    index.verify()

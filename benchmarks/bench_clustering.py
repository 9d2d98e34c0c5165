"""Experiment E61 (§6.1): the rebuild restores clustering and utilization.

A declustered, half-empty index (built by random-order inserts, then
thinned) is rebuilt online.  Measured:

* the declustering metric (mean |page-id jump| between key-adjacent
  leaves; 1.0 = perfectly sequential on disk);
* physical I/O calls for one full sequential key-order scan through 16 KB
  buffers, cold cache — the range-query cost §6.1 says declustering
  degrades;
* leaf space utilization.
"""

from __future__ import annotations

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.workload import (
    build_by_inserts,
    declustering_metric,
    keys_for_config,
    thin_out,
)
from conftest import record

KEY_COUNT = 24000


def build_declustered():
    engine = Engine(buffer_capacity=16384, io_size=16384)
    keys, key_len = keys_for_config("int4", KEY_COUNT)
    index = build_by_inserts(engine, keys, key_len, shuffled=True, seed=11)
    thin_out(index, keys, keep_one_in=2)
    return engine, index


def cold_scan_io_calls(engine, index) -> int:
    """Physical I/O calls for one full key-order scan, cold cache."""
    engine.ctx.buffer.flush_all()
    engine.ctx.buffer.crash()
    before = engine.counters.snapshot()
    stats = index.verify()
    for pid in stats.leaf_page_ids:
        page = engine.ctx.buffer.fetch(pid, large_io=True)
        engine.ctx.buffer.unpin(pid)
    return engine.counters.diff(before)["disk_io_calls"]


def test_clustering_restoration(benchmark):
    engine, index = build_declustered()
    before_metric = declustering_metric(index)
    before_io = cold_scan_io_calls(engine, index)
    before_fill = index.verify().leaf_fill

    def rebuild():
        OnlineRebuild(
            index, RebuildConfig(ntasize=32, xactsize=256)
        ).run()

    benchmark.pedantic(rebuild, rounds=1, iterations=1)

    after_metric = declustering_metric(index)
    after_io = cold_scan_io_calls(engine, index)
    after_fill = index.verify().leaf_fill

    record(
        "E61 clustering (§6.1)",
        "declustering metric (1.0 = sequential)",
        f"before={before_metric:.1f}  after={after_metric:.2f}",
    )
    record(
        "E61 clustering (§6.1)",
        "cold sequential-scan I/O calls (16KB buffers)",
        f"before={before_io}  after={after_io}  "
        f"({before_io / max(after_io, 1):.1f}x fewer)",
    )
    record(
        "E61 clustering (§6.1)",
        "leaf utilization",
        f"before={before_fill:.2f}  after={after_fill:.2f}",
    )

    assert after_metric < 2.0 < before_metric
    assert after_io < before_io / 2
    assert after_fill > 0.9 > before_fill


def test_incremental_slices_stay_clustered(benchmark):
    """Resumable slices (§7 incremental mode) must not fragment the
    output: each slice continues disk-adjacent to the previous one."""
    engine, index = build_declustered()

    def rebuild_in_slices():
        while True:
            report = OnlineRebuild(
                index, RebuildConfig(ntasize=16, xactsize=64)
            ).run(
                max_pages=64,
                resume_checkpoint=engine.rebuild_checkpoint(index.index_id),
            )
            if report.completed:
                return

    benchmark.pedantic(rebuild_in_slices, rounds=1, iterations=1)
    metric = declustering_metric(index)
    record(
        "E61 clustering (§6.1)",
        "declustering after incremental slices",
        f"{metric:.2f} (1.0 = sequential)",
    )
    assert metric < 1.5
    index.verify()

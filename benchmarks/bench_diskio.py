"""Experiment E63 (§6.3): disk I/O of the rebuild versus buffer size.

The paper: one sequential scan of the old index plus one write pass of the
new pages, with the rebuild asking the buffer manager for the largest
buffers available (2 KB pages through 4/8/16 KB buffer pools).  We sweep
the physical I/O size and count physical calls: calls should drop roughly
with the buffer-size ratio for the contiguous portions (the new-page
writes always; the old-page reads to the extent the old index is
clustered).
"""

from __future__ import annotations

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.workload import bulk_load, keys_for_config
from conftest import record

KEY_COUNT = 30000
IO_SIZES = [2048, 4096, 8192, 16384]

_calls: dict[int, dict] = {}


@pytest.mark.parametrize("io_size", IO_SIZES)
def test_rebuild_io_calls_vs_buffer_size(benchmark, io_size):
    keys, key_len = keys_for_config("int4", KEY_COUNT)
    engine = Engine(buffer_capacity=16384, io_size=io_size)
    index = bulk_load(engine, keys, key_len, fill=0.5)
    engine.ctx.buffer.flush_all()
    engine.ctx.buffer.crash()  # cold cache (§6.4 conditions)
    before = engine.counters.snapshot()
    report = {}

    def rebuild():
        report["r"] = OnlineRebuild(
            index, RebuildConfig(ntasize=32, xactsize=256)
        ).run()

    benchmark.pedantic(rebuild, rounds=1, iterations=1)
    diff = engine.counters.diff(before)
    stats = {
        "io_calls": diff["disk_io_calls"],
        "pages_read": diff["disk_pages_read"],
        "pages_written": diff["disk_pages_written"],
    }
    _calls[io_size] = stats
    record(
        "E63 disk I/O (§6.3)",
        f"io_size={io_size // 1024}KB",
        f"calls={stats['io_calls']}  pages_read={stats['pages_read']}  "
        f"pages_written={stats['pages_written']}",
    )
    benchmark.extra_info.update(stats)

    if 2048 in _calls and io_size == 16384:
        ratio = _calls[2048]["io_calls"] / stats["io_calls"]
        record(
            "E63 disk I/O (§6.3)",
            "calls ratio 2KB/16KB",
            f"{ratio:.1f}x (ideal for fully contiguous I/O: 8.0x)",
        )
        # Large buffers must cut physical calls by a large factor.
        assert ratio > 3.0
        # The pages moved are identical regardless of buffering: one read
        # pass over the old index + one write pass of the new pages.
        assert stats["pages_written"] == _calls[2048]["pages_written"]


def test_pressured_tuned_rebuild_io_calls(benchmark):
    """The same budget on the benchmark suite's pressured configuration:
    200k keys (~2400 half-full leaves), a cold 512-frame pool (a
    128-frame scan ring) and 1 ms per device call — slow enough that the
    rebuild starts write-behind + read-ahead itself (the read-ahead's
    waste depends on how the reader thread is paced).  Ideal =
    (old + new) / 8 calls."""
    keys, key_len = keys_for_config("int4", 200_000)
    engine = Engine(buffer_capacity=512, io_size=16384)
    index = bulk_load(engine, keys, key_len, fill=0.5)
    engine.checkpoint()
    engine.ctx.buffer.evict_all()
    engine.ctx.disk.latency = 0.001  # after set-up, which it must not slow
    before = engine.counters.snapshot()
    report = {}

    def rebuild():
        report["r"] = OnlineRebuild(index).run()

    benchmark.pedantic(rebuild, rounds=1, iterations=1)
    diff = engine.counters.diff(before)
    old, new = report["r"].leaf_pages_rebuilt, report["r"].new_leaf_pages
    record(
        "E63 disk I/O (§6.3)",
        "io_size=16KB pressured (pool 512, tuned)",
        f"calls={diff['disk_io_calls']}  "
        f"pages_read={diff['disk_pages_read']}  "
        f"pages_written={diff['disk_pages_written']}  "
        f"retired_unwritten={diff.get('pool_retired_unwritten', 0)}  "
        f"(old={old} new={new}, ideal {(old + new) // 8} calls)",
    )
    # One write pass: new pages plus a little nonleaf traffic, never the
    # old leaves; calls within 2x of the ideal.
    assert diff["disk_pages_written"] <= 1.1 * new
    assert diff["disk_io_calls"] <= 2 * (old + new) / 8

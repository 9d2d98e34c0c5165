"""Experiments E62 and A2 (§6.2): impact of reorganization on concurrent
OLTP throughput.

The same mixed insert/delete/scan workload runs while each reorganization
strategy executes; throughput is measured over exactly the reorganization
window:

* **online** — the paper's algorithm (SHRINK bits on the pages being
  copied);
* **online-split-staged** — the §6.2 enhancement (SPLIT bits during the
  copy, flipped to SHRINK for the unlink; readers pass during the copy);
* **baseline** — no reorganization, same window length as the online run.

The paper's qualitative claim checked: the online rebuild restricts access
only to the affected pages, so OLTP keeps most of its throughput.  (The
offline drop-and-recreate row of EXPERIMENTS.md E62 was measured by an
earlier version of this bench; that baseline has since been removed.)
"""

from __future__ import annotations

import time

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.workload import MixedWorkload, bulk_load, int4_key
from conftest import record

KEY_COUNT = 100_000
WINDOW: dict[str, float] = {}  # measured reorg durations, online first
THROUGHPUT: dict[str, float] = {}


def build(lock_timeout: float = 120.0):
    engine = Engine(buffer_capacity=65536, lock_timeout=lock_timeout)
    keys = [int4_key(k) for k in range(0, KEY_COUNT, 2)]
    index = bulk_load(engine, keys, 4, fill=0.5)
    return engine, index


def run_mode(mode: str):
    engine, index = build()
    wait_us_before = engine.counters.lock_wait_us
    workload = MixedWorkload(
        index, lambda i: int4_key(2 * i + 1), key_count=KEY_COUNT // 2,
        threads=4, write_fraction=0.7,
    )
    workload.start()
    t0 = time.perf_counter()
    if mode == "online":
        OnlineRebuild(index, RebuildConfig(ntasize=16, xactsize=64)).run()
    elif mode == "online-split-staged":
        OnlineRebuild(
            index,
            RebuildConfig(ntasize=16, xactsize=64, split_then_shrink=True),
        ).run()
    else:  # baseline: idle for as long as the online rebuild took
        time.sleep(WINDOW.get("online", 2.0))
    elapsed = time.perf_counter() - t0
    stats = workload.stop()
    assert stats.errors == [], stats.errors[:1]
    index.verify()
    WINDOW[mode] = elapsed
    blocked_s = (engine.counters.lock_wait_us - wait_us_before) / 1e6
    return stats, elapsed, blocked_s


@pytest.mark.parametrize("mode", ["online", "baseline", "online-split-staged"])
def test_oltp_throughput_during_reorg(benchmark, mode):
    holder = {}

    def window():
        holder["stats"], holder["elapsed"], holder["blocked"] = run_mode(mode)

    benchmark.pedantic(window, rounds=1, iterations=1)
    stats, elapsed = holder["stats"], holder["elapsed"]
    ops_per_s = stats.operations / max(elapsed, 1e-9)
    THROUGHPUT[mode] = ops_per_s
    record(
        "E62 concurrency (§6.2)",
        f"{mode}",
        f"{ops_per_s:,.0f} OLTP ops/s during a {elapsed:.2f}s reorg window "
        f"[{stats.inserts} ins / {stats.deletes} del / {stats.scans} scan; "
        f"time blocked on locks: {holder['blocked']:.2f}s across threads]",
    )
    benchmark.extra_info["oltp_ops_per_second"] = ops_per_s

    if mode == "online-split-staged":
        record(
            "E62 concurrency (§6.2)",
            "zz-summary",
            f"baseline={THROUGHPUT.get('baseline', 0):,.0f}  "
            f"online={THROUGHPUT.get('online', 0):,.0f}  "
            f"split-staged={THROUGHPUT.get('online-split-staged', 0):,.0f} "
            "ops/s",
        )
        # OLTP retains a substantial share of its baseline throughput
        # while the online rebuild runs.
        assert THROUGHPUT["online"] > THROUGHPUT["baseline"] * 0.25

"""Histogram and registry unit tests: bucketing, percentiles, exporters."""

import math
import threading

import pytest

from repro.obs.metrics import (
    _UPPER_SECONDS,
    Histogram,
    MetricsRegistry,
    merged,
    oltp_op,
    parse_prometheus,
    since,
)
from repro.stats.counters import Counters


# ------------------------------------------------------------- bucketing


def test_bucket_boundaries_power_of_two_microseconds():
    h = Histogram("x")
    h.record(0.0)  # bucket 0
    h.record(1e-6)  # exactly 1µs -> bucket 1 ([1, 2) µs)
    h.record(3e-6)  # bucket 2 ([2, 4) µs)
    h.record(1.0)  # 1s = 2**20ish µs
    snap = h.snapshot()
    assert snap["count"] == 4
    assert snap["buckets"][0] == 1
    assert snap["buckets"][1] == 1
    assert snap["buckets"][2] == 1
    assert sum(snap["buckets"]) == 4


def test_negative_samples_clamp_to_zero():
    h = Histogram("x")
    h.record(-5.0)
    snap = h.snapshot()
    assert snap["count"] == 1
    assert snap["min"] == 0.0 and snap["max"] == 0.0
    assert snap["buckets"][0] == 1


def test_huge_sample_lands_in_top_bucket():
    h = Histogram("x")
    h.record(1e15)  # ~30M years; must cap at the top bucket, not IndexError
    snap = h.snapshot()
    assert snap["buckets"][-1] == 1


# ----------------------------------------------------------- percentiles


def test_percentile_upper_bound_never_optimistic():
    h = Histogram("x")
    for _ in range(100):
        h.record(3e-6)  # bucket [2, 4) µs
    h.record(1e-3)  # one slow outlier so the max doesn't clamp the bulk
    # The estimator answers the bulk bucket's upper bound (4µs): ≥ the
    # true 3µs median, never below it.
    assert h.percentile(0.5) == pytest.approx(_UPPER_SECONDS[2])
    assert h.percentile(0.5) >= 3e-6


def test_percentile_is_nearest_rank_for_every_count():
    """Rank ``ceil(q * count)``: for every count 1..200 the answer is never
    below that sample of the sorted list and at most one bucket above it
    (``round`` put the p50 of five samples under their median)."""
    h = Histogram("x")
    ordered: list[float] = []
    for count in range(1, 201):
        value = 0.9e-3 * 2 ** (count % 11)  # 0.9 ms .. 0.92 s, a bucket each
        h.record(value)
        ordered = sorted(ordered + [value])
        for q in (0.0, 0.25, 0.50, 0.95, 0.99, 1.0):
            exact = ordered[max(0, math.ceil(q * count) - 1)]
            assert exact <= h.percentile(q) <= 2 * exact, (count, q)
    five = Histogram("x")
    for ms in (0.9, 1.8, 3.6, 7.2, 14.4):
        five.record(ms / 1000.0)
    assert 3.6e-3 <= five.percentile(0.5) <= 7.2e-3


def test_percentile_clamped_to_observed_max():
    h = Histogram("x")
    h.record(3e-6)
    # A lone 3µs sample reports 3µs, not its bucket bound 4µs.
    assert h.percentile(0.99) == pytest.approx(3e-6)


def test_percentile_empty_and_validation():
    h = Histogram("x")
    assert h.percentile(0.5) == 0.0
    with pytest.raises(ValueError):
        h.percentile(1.5)
    with pytest.raises(ValueError):
        h.percentile(-0.1)


def test_percentiles_match_oltp_stats_shape():
    h = Histogram("x")
    assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    h.record(0.002)
    pct = h.percentiles()
    assert set(pct) == {"p50", "p95", "p99"}
    assert pct["p50"] == pytest.approx(2.0, rel=0.5)  # milliseconds


def test_percentile_ordering():
    h = Histogram("x")
    for i in range(1, 1001):
        h.record(i * 1e-5)
    snap = h.snapshot()
    p50 = h.percentile(0.50, snap)
    p95 = h.percentile(0.95, snap)
    p99 = h.percentile(0.99, snap)
    assert p50 <= p95 <= p99 <= snap["max"]


# ------------------------------------------------------ merged and since


def test_merged_sees_several_histograms_as_one():
    a, b = Histogram("a"), Histogram("b")
    a.record(0.001)
    b.record(0.004)
    b.record(0.016)
    snap = merged([a, b]).snapshot()
    assert snap["count"] == 3 and sum(snap["buckets"]) == 3
    assert snap["min"] == pytest.approx(0.001)
    assert snap["max"] == pytest.approx(0.016)
    assert merged([a, b]).percentile(1.0) == pytest.approx(0.016)
    b.record(1.0)  # a copy, not a view
    assert snap["count"] == 3
    empty = merged([]).snapshot()
    assert empty["count"] == 0 and empty["min"] == empty["max"] == 0.0


def test_since_is_what_was_recorded_between_two_snapshots():
    h = Histogram("x")
    h.record(0.5)  # an old outlier the window must not keep answering
    before = h.snapshot()
    assert h.percentile(0.99, since(h.snapshot(), before)) == 0.0  # empty
    h.record(0.001)
    h.record(0.002)
    window = since(h.snapshot(), before)
    assert window["count"] == 2 and sum(window["buckets"]) == 2
    assert window["sum"] == pytest.approx(0.003)
    assert 0.002 <= h.percentile(0.99, window) <= 0.004


# -------------------------------------------------------------- sharding


def test_concurrent_recording_loses_nothing():
    h = Histogram("x")
    n_threads, per_thread = 8, 5000
    start = threading.Barrier(n_threads)

    def work() -> None:
        start.wait()
        for _ in range(per_thread):
            h.record(1e-4)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    snap = h.snapshot()
    assert snap["count"] == n_threads * per_thread
    assert snap["sum"] == pytest.approx(n_threads * per_thread * 1e-4)


def test_shards_survive_thread_exit():
    h = Histogram("x")

    def work() -> None:
        h.record(0.001)

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=5)
    assert h.snapshot()["count"] == 1


# -------------------------------------------------------------- registry


def test_registry_get_or_create_is_stable():
    reg = MetricsRegistry()
    a = reg.histogram("wal_flush_seconds", help="h")
    b = reg.histogram("wal_flush_seconds")
    assert a is b
    assert a.help == "h"
    assert set(reg.histograms()) == {"wal_flush_seconds"}


def test_oltp_op_names():
    assert oltp_op("insert") == "oltp_insert_seconds"
    assert oltp_op("scan") == "oltp_scan_seconds"


def test_json_round_trip():
    counters = Counters()
    counters.add("page_reads", 7)
    reg = MetricsRegistry(counters)
    h = reg.histogram("latch_wait_seconds", help="latch wait")
    h.record(0.001)
    h.record(0.004)
    data = reg.to_json()
    assert data["counters"]["page_reads"] == 7
    assert data["histograms"]["latch_wait_seconds"]["count"] == 2

    back = MetricsRegistry.from_json(data)
    assert back.counters.snapshot()["page_reads"] == 7
    snap = back.histogram("latch_wait_seconds").snapshot()
    assert snap["count"] == 2
    assert snap["sum"] == pytest.approx(0.005)
    assert snap["min"] == pytest.approx(0.001)
    assert snap["max"] == pytest.approx(0.004)
    # Percentiles re-derivable from the imported buckets.
    assert back.histogram("latch_wait_seconds").percentiles()["p99"] > 0


def test_prometheus_export_and_parse():
    counters = Counters()
    counters.add("page_reads", 3)
    reg = MetricsRegistry(counters)
    h = reg.histogram("wal_flush_seconds", help="wal flush latency")
    h.record(0.5e-6)
    h.record(0.5e-6)
    h.record(3e-6)
    text = reg.to_prometheus()
    assert "# TYPE repro_page_reads_total counter" in text
    assert "# HELP repro_wal_flush_seconds wal flush latency" in text
    assert "# TYPE repro_wal_flush_seconds histogram" in text
    series = parse_prometheus(text)
    assert series["repro_page_reads_total"] == 3
    # Cumulative buckets: the [0,1]µs bucket holds 2, +Inf holds all 3.
    assert series['repro_wal_flush_seconds_bucket{le="1e-06"}'] == 2
    assert series['repro_wal_flush_seconds_bucket{le="+Inf"}'] == 3
    assert series["repro_wal_flush_seconds_count"] == 3
    assert series["repro_wal_flush_seconds_sum"] == pytest.approx(4e-6)


def test_prometheus_cumulative_buckets_monotonic():
    reg = MetricsRegistry()
    h = reg.histogram("x_seconds")
    for i in range(1, 50):
        h.record(i * 1e-5)
    series = parse_prometheus(reg.to_prometheus())
    by_bound = sorted(
        (float(name.split('le="')[1].rstrip('"}')), v)
        for name, v in series.items()
        if "_bucket" in name and "+Inf" not in name
    )
    values = [v for _, v in by_bound]
    assert values, "no buckets exported"
    # Counts cumulate as the le bound grows.
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 49

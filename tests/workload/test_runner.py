"""MixedWorkload driver tests."""

from repro import Engine
from repro.workload import MixedWorkload
from tests.conftest import intkey


def test_mixed_workload_runs_and_counts():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    for k in range(0, 2000, 2):
        index.insert(intkey(k), k)
    workload = MixedWorkload(
        index, intkey, key_count=2000, threads=3, write_fraction=0.7,
    )
    stats = workload.run_for(0.5)
    assert stats.errors == []
    assert stats.operations > 0
    assert stats.duration_seconds >= 0.5
    assert stats.ops_per_second > 0
    index.verify()


def test_writers_confined_to_odd_ordinals():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    for k in range(0, 2000, 2):
        index.insert(intkey(k), k)
    workload = MixedWorkload(
        index, intkey, key_count=2000, threads=2, write_fraction=1.0,
    )
    workload.run_for(0.3)
    # Even keys are untouched.
    for k in range(0, 2000, 2):
        assert index.contains(intkey(k), k)


def test_read_only_workload():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    for k in range(0, 1000):
        index.insert(intkey(k), k)
    before = index.contents()
    workload = MixedWorkload(
        index, intkey, key_count=1000, threads=2, write_fraction=0.0,
    )
    stats = workload.run_for(0.3)
    assert stats.errors == []
    assert stats.scans > 0
    assert stats.inserts == stats.deletes == 0
    assert index.contents() == before


def test_stuck_worker_reported_not_hung():
    """A worker that never observes the stop flag must not hang stop():
    the join times out and the worker is reported in stats.errors."""
    import threading

    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    for k in range(0, 200, 2):
        index.insert(intkey(k), k)
    release = threading.Event()
    workload = MixedWorkload(
        index, intkey, key_count=200, threads=2, write_fraction=0.5,
        before_op=release.wait,  # workers block here forever
    )
    workload.start()
    try:
        stats = workload.stop(join_timeout=0.2)
    finally:
        release.set()  # let the daemon threads exit
    stuck = [e for e in stats.errors if e.startswith("stuck:")]
    assert len(stuck) == 2
    assert "did not stop within 0.2s" in stuck[0]


def test_stop_joins_cleanly_within_timeout():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    for k in range(0, 200, 2):
        index.insert(intkey(k), k)
    workload = MixedWorkload(
        index, intkey, key_count=200, threads=2, write_fraction=0.5,
    )
    stats = workload.run_for(0.1, join_timeout=10.0)
    assert stats.errors == []


def _stats(**samples):
    """An ``OltpStats`` whose op classes recorded ``samples`` (seconds)."""
    from repro.obs.metrics import Histogram, oltp_op
    from repro.workload.runner import OltpStats

    stats = OltpStats()
    for op, values in samples.items():
        hist = stats.histograms.setdefault(op, Histogram(oltp_op(op)))
        for value in values:
            hist.record(value)
    return stats


def test_latency_percentiles_nearest_rank():
    """The one percentile definition: never below the exact nearest-rank
    value of the samples, at most one (power-of-two) bucket above it."""
    samples = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
    out = _stats(insert=samples, scan=[0.002]).latency_percentiles()
    for name, exact in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
        assert exact <= out["insert"][name] <= 2 * exact
    assert out["scan"] == {"p50": 2.0, "p95": 2.0, "p99": 2.0}
    # "all" merges every op class: 101 samples, the p99 is the 100th.
    assert 100.0 <= out["all"]["p99"] <= 200.0


def test_latency_percentiles_empty_stats():
    """No samples at all: every standard class (and ``all``) is still
    present with the exact p50/p95/p99 key set, all zeros — callers can
    index without existence checks."""
    from repro.workload.runner import OltpStats

    out = OltpStats().latency_percentiles()
    assert set(out) == {"insert", "delete", "scan", "all"}
    for cls in out.values():
        assert cls == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_latency_percentiles_single_sample():
    out = _stats(scan=[0.004]).latency_percentiles()
    assert set(out) == {"insert", "delete", "scan", "all"}
    # One sample is its own p50 = p95 = p99.
    assert out["scan"] == {"p50": 4.0, "p95": 4.0, "p99": 4.0}
    assert out["all"] == {"p50": 4.0, "p95": 4.0, "p99": 4.0}
    # Classes with no samples report zeros, same key set.
    assert out["insert"] == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_latency_percentiles_nonstandard_class_included():
    out = _stats(lookup=[0.001, 0.003]).latency_percentiles()
    assert set(out) == {"insert", "delete", "scan", "lookup", "all"}
    assert out["lookup"]["p99"] == 3.0
    assert out["all"]["p99"] == 3.0


def test_latency_percentiles_exactly_three_keys():
    stats = _stats(insert=[0.002, 0.001], delete=[], scan=[])
    for cls in stats.latency_percentiles().values():
        assert set(cls) == {"p50", "p95", "p99"}


def test_workload_collects_latency_samples():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    for k in range(0, 500, 2):
        index.insert(intkey(k), k)
    workload = MixedWorkload(
        index, intkey, key_count=500, threads=2, write_fraction=0.5,
    )
    stats = workload.run_for(0.2, join_timeout=10.0)
    assert stats.errors == []
    # The stats' histograms are the engine's own: the exported registry
    # and a pacer read what the workers recorded, and nothing is kept per
    # sample.
    registry = engine.ctx.metrics.histograms()
    assert all(
        stats.histograms[op] is registry[f"oltp_{op}_seconds"]
        for op in ("insert", "delete", "scan")
    )
    assert not hasattr(stats, "latency_samples")
    total = sum(h.snapshot()["count"] for h in stats.histograms.values())
    # One sample per *attempted* op; the op tallies count only effective
    # ones (a duplicate insert or missing-key delete is sampled, not
    # tallied), so samples can only exceed the tallies.
    assert total >= stats.operations > 0
    pct = stats.latency_percentiles()
    assert pct["all"]["p50"] <= pct["all"]["p95"] <= pct["all"]["p99"]


def test_live_workload_feeds_percentiles_and_a_pacer(monkeypatch):
    """One stalled op shows in the p99 of the *running* workload; a pacer
    over its histograms widens on the step that sees the stall and is back
    at its floor after as many calm steps."""
    import threading
    import time

    from repro.core.pacer import PACER_STEP, Pacer

    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    for k in range(0, 500, 2):
        index.insert(intkey(k), k)
    stalled, release = threading.Event(), threading.Event()
    recorded, go_on = threading.Event(), threading.Event()
    real_insert = index.insert

    def stall_once(key, rowid):
        if not stalled.is_set():
            stalled.set()
            assert release.wait(10.0)
        return real_insert(key, rowid)

    def park_after_the_stall():
        # The one worker beginning its next op has recorded the stalled
        # one; held here, it records nothing more until the test lets go.
        if stalled.is_set() and not recorded.is_set():
            recorded.set()
            assert go_on.wait(10.0)

    monkeypatch.setattr(index, "insert", stall_once)
    workload = MixedWorkload(
        index, intkey, key_count=500, threads=1, write_fraction=1.0,
        before_op=park_after_the_stall,
    )
    pacer = Pacer(workload.stats.histograms.values(), budget_ms=20.0)
    workload.start()
    try:
        assert stalled.wait(10.0)
        time.sleep(0.03)  # the stalled op now outlasts the budget
        release.set()
        assert recorded.wait(10.0)
        # Before stop(): the handful of ops so far, the stalled one on top.
        assert workload.stats.latency_percentiles()["all"]["p99"] >= 30.0
        assert workload.stats.operations > 0
        assert pacer.step() and pacer.delay == PACER_STEP
    finally:
        release.set()
        go_on.set()
        stats = workload.stop(join_timeout=10.0)
    assert stats.errors == []
    pacer.step()  # the ops between the widening step and stop(), calm or not
    assert pacer.delay <= 2 * PACER_STEP
    # Nothing completes after stop(): calm steps, one step down each.
    assert not pacer.step() and not pacer.step()
    assert pacer.delay == 0.0

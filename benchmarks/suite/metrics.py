"""Metric names, units and definitions.  ``BENCHMARK.json`` lists the same
names; ``test_suite.py`` checks the two agree."""

from __future__ import annotations

import statistics

from harness import median_cycle, percentile
from traffic import LATE_MS, SLO_MS

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "rebuild_pages_per_s": ("pages/s", "higher"),
    "rebuild_log_bytes_per_page": ("bytes", "lower"),
    "rebuild_io_calls_per_page": ("calls", "lower"),
    "space_bytes_per_user_byte": ("ratio", "lower"),
    "oltp_req_per_s": ("req/s", "higher"),
    "oltp_p50_ms": ("ms", "lower"),
    "oltp_p95_ms": ("ms", "lower"),
}

# name -> (unit, better).  Counts come from engine counter deltas over the
# timed region of an untraced cycle, times from the traced cycle.
PER_LAYER: dict[str, tuple[str, str]] = {
    "page.encode_calls": ("count", "lower"),
    "page.decode_calls": ("count", "lower"),
    "page.self_s": ("s", "lower"),
    "disk.io_calls": ("count", "lower"),
    "disk.pages_read": ("count", "lower"),
    "disk.pages_written": ("count", "lower"),
    "disk.pages_per_call": ("ratio", "higher"),
    "disk.busy_s": ("s", "lower"),
    "buffer.fetches": ("count", "lower"),
    "buffer.page_writes": ("count", "lower"),
    "buffer.demand_hit_ratio": ("ratio", "higher"),
    "buffer.hot_evictions_by_scan": ("count", "lower"),
    "buffer.prefetch_useful_ratio": ("ratio", "higher"),
    "buffer.shard_conflicts": ("count", "lower"),
    "buffer.self_s": ("s", "lower"),
    "iosched.writebehind_batches": ("count", "lower"),
    "iosched.writebehind_pages": ("count", "higher"),
    "iosched.force_wait_s": ("s", "lower"),
    "wal.records": ("count", "lower"),
    "wal.bytes": ("bytes", "lower"),
    "wal.flushes": ("count", "lower"),
    "wal.flushes_coalesced": ("count", "higher"),
    "wal.progress_records": ("count", "lower"),
    "wal.append_self_s": ("s", "lower"),
    "wal.flush_s": ("s", "lower"),
    "recovery.self_s": ("s", "lower"),
    "recovery.records_redone": ("count", "lower"),
    "recovery.records_undone": ("count", "lower"),
    "recovery.bits_sweep_s": ("s", "lower"),
    "latch.acquires": ("count", "lower"),
    "latch.waits": ("count", "lower"),
    "latch.wait_s": ("s", "lower"),
    "locks.calls": ("count", "lower"),
    "locks.waits": ("count", "lower"),
    "locks.wait_s": ("s", "lower"),
    "txn.commits": ("count", "lower"),
    "txn.self_s": ("s", "lower"),
    "btree.traversals": ("count", "lower"),
    "btree.retraversals": ("count", "lower"),
    "btree.pages_per_traversal": ("ratio", "lower"),
    "btree.level1_visits": ("count", "lower"),
    "btree.key_comparisons": ("count", "lower"),
    "btree.self_s": ("s", "lower"),
    "rebuild.top_actions": ("count", "lower"),
    "rebuild.transactions": ("count", "lower"),
    "rebuild.new_pages": ("count", "lower"),
    "rebuild.bytes_copied": ("bytes", "lower"),
    "rebuild.seam_waits": ("count", "lower"),
    "rebuild.self_s": ("s", "lower"),
    "rebuild.table1_cpu_ratio": ("ratio", "higher"),
    "workload.self_s": ("s", "lower"),
    "workload.oltp_p50_ms": ("ms", "lower"),
    "workload.oltp_p95_ms": ("ms", "lower"),
    "workload.txn_p50_ms": ("ms", "lower"),
    "workload.txn_p95_ms": ("ms", "lower"),
    "workload.scan_p50_ms": ("ms", "lower"),
    "workload.scan_p95_ms": ("ms", "lower"),
    "workload.p99_ms": ("ms", "lower"),
    "workload.max_ms": ("ms", "lower"),
    "workload.mean_ms": ("ms", "lower"),
    "workload.latency_samples": ("count", "higher"),
    "workload.late_share": ("ratio", "lower"),
    "workload.generator_max_late_ms": ("ms", "lower"),
    "workload.slo_miss_share": ("ratio", "lower"),
    "workload.rebuild_passes": ("count", "higher"),
    "workload.trace_overhead_ratio": ("ratio", "lower"),
    "workload.trace_self_sum_ratio": ("ratio", "lower"),
    "workload.untraced_callables": ("count", "lower"),
    "workload.host_speed": ("ratio", "higher"),
    # Table 1's CPU yardstick.  Single-threaded it is the inverse of
    # rebuild_pages_per_s; with helper threads or clients its spread
    # between runs (27 % and 47 %) exceeded any bound, so it is not gated.
    "workload.rebuild_cpu_ms_per_page": ("ms", "lower"),
    # The contract wants every end-to-end metric from every workload;
    # these three exist on one workload only, so they are reported here
    # (0 elsewhere) and gated through rebuild_pages_per_s of that
    # workload, whose window covers them.
    "workload.table1_log_ratio": ("ratio", "higher"),
    "workload.recovery_s": ("s", "lower"),
    "workload.crash_to_rebuilt_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def latencies_ms(phases: list, kind: str | None = None) -> list[float]:
    """Ascending reference-speed latencies of all phases merged."""
    return sorted(ms for p in phases for ms in p.latencies_ms(kind))


def median_segment(segments: list, q: float) -> float:
    """The ``q`` percentile of each closed-loop segment, then the median
    segment: each has its own host-speed sample, and a burst moves one."""
    return statistics.median(
        percentile(s.latencies_ms(), q) for s in segments
    )


def cycle_end_to_end(cycle, startup_s: float) -> dict[str, float]:
    """The end-to-end figures of one cycle."""
    job = cycle.job
    return {
        "setup_s": startup_s + cycle.setup_s,
        "rebuild_pages_per_s": _ratio(job.pages, job.wall_s),
        "rebuild_log_bytes_per_page": _ratio(job.log_bytes, job.pages),
        "rebuild_io_calls_per_page": _ratio(job.io_calls, job.pages),
        "space_bytes_per_user_byte": cycle.space_ratio,
        "oltp_req_per_s": cycle.req_per_s,
        "oltp_p50_ms": median_segment(cycle.segments, 0.50),
        "oltp_p95_ms": median_segment(cycle.segments, 0.95),
    }


def end_to_end(cycles: list, startup_s: float) -> dict[str, dict]:
    """Each metric as its median cycle with quartiles and cycle count."""
    per_cycle = [cycle_end_to_end(c, startup_s) for c in cycles]
    out = {}
    for name, (unit, _better) in END_TO_END.items():
        out[name] = median_cycle([row[name] for row in per_cycle])
        out[name]["unit"] = unit
    return out


def per_layer(cycle, traced_cycle, summary, untraced: list[str],
              table1: dict[str, float]) -> dict[str, dict]:
    """Counts from ``cycle`` (untraced), times from ``summary`` (the
    traced cycle's spans)."""
    c = cycle.counters.get
    self_s = summary.layer_self_s.get
    total = summary.name_total_s.get
    own = summary.name_self_s.get
    calls = summary.name_calls.get
    # Tail and per-class detail: of the open-loop phase (from the due
    # time) where the workload ran one, else of the closed-loop segments.
    serve = [cycle.open_loop] if cycle.open_loop else cycle.segments
    every = latencies_ms(serve)
    txn = latencies_ms(serve, "txn")
    scan = latencies_ms(serve, "scan")
    late = [ms for phase in serve for ms in phase.late_ms]
    served = sum(phase.attempted for phase in serve)
    unserved = sum(phase.failed for phase in serve)

    def pct(values: list[float], q: float) -> float:
        return percentile(values, q) if values else 0.0

    slo_miss = sum(1 for ms in every if ms > SLO_MS) + unserved
    values = {
        "page.encode_calls": calls("Page.to_bytes", 0),
        "page.decode_calls": calls("Page.from_bytes", 0),
        "page.self_s": self_s("page", 0.0),
        "disk.io_calls": c("disk_io_calls", 0),
        "disk.pages_read": c("disk_pages_read", 0),
        "disk.pages_written": c("disk_pages_written", 0),
        "disk.pages_per_call": _ratio(
            c("disk_pages_read", 0) + c("disk_pages_written", 0),
            c("disk_io_calls", 0),
        ),
        "disk.busy_s": self_s("disk", 0.0),
        "buffer.fetches": c("page_reads", 0),
        "buffer.page_writes": c("page_writes", 0),
        "buffer.demand_hit_ratio": _ratio(
            c("pool_demand_hits", 0),
            c("pool_demand_hits", 0) + c("pool_demand_misses", 0),
        ),
        "buffer.hot_evictions_by_scan": c("hot_evictions_by_scan", 0),
        "buffer.prefetch_useful_ratio": _ratio(
            c("prefetch_hits", 0), c("prefetch_admitted", 0)
        ),
        "buffer.shard_conflicts": c("pool_shard_conflicts", 0),
        "buffer.self_s": self_s("buffer", 0.0),
        "iosched.writebehind_batches": c("writebehind_batches", 0),
        "iosched.writebehind_pages": c("writebehind_pages", 0),
        "iosched.force_wait_s": total("CompletionToken.wait", 0.0),
        "wal.records": c("log_records", 0),
        "wal.bytes": c("log_bytes", 0),
        "wal.flushes": c("log_flushes", 0),
        "wal.flushes_coalesced": c("log_flushes_coalesced", 0),
        "wal.progress_records": c("rebuild_progress_records", 0),
        "wal.append_self_s": own("LogManager.append", 0.0),
        "wal.flush_s": own("LogManager.flush_to", 0.0)
        + own("LogManager.flush_commit", 0.0),
        "recovery.self_s": self_s("recovery", 0.0),
        "recovery.records_redone": cycle.records_redone,
        "recovery.records_undone": cycle.records_undone,
        "recovery.bits_sweep_s": total("Engine._clear_protocol_bits", 0.0),
        "latch.acquires": c("latch_acquires", 0),
        "latch.waits": c("latch_waits", 0),
        "latch.wait_s": total("LatchManager.acquire", 0.0)
        + total("LatchManager.try_acquire", 0.0),
        "locks.calls": c("lock_mgr_calls", 0),
        "locks.waits": c("lock_waits", 0),
        "locks.wait_s": c("lock_wait_us", 0) / 1e6,
        "txn.commits": calls("TransactionManager.commit", 0),
        "txn.self_s": self_s("txn", 0.0),
        "btree.traversals": c("traversals", 0),
        "btree.retraversals": c("retraversals", 0),
        "btree.pages_per_traversal": _ratio(
            c("pages_visited", 0), c("traversals", 0)
        ),
        "btree.level1_visits": c("level1_visits", 0),
        "btree.key_comparisons": c("key_comparisons", 0),
        "btree.self_s": self_s("btree", 0.0),
        "rebuild.top_actions": c("top_actions", 0),
        "rebuild.transactions": c("rebuild_transactions", 0),
        "rebuild.new_pages": c("new_pages_allocated", 0),
        "rebuild.bytes_copied": c("bytes_copied", 0),
        "rebuild.seam_waits": c("partition_seam_waits", 0),
        "rebuild.self_s": self_s("rebuild", 0.0),
        "rebuild.table1_cpu_ratio": table1.get("cpu_ratio", 0.0),
        "workload.self_s": self_s("workload", 0.0),
        "workload.oltp_p50_ms": pct(every, 0.50),
        "workload.oltp_p95_ms": pct(every, 0.95),
        "workload.txn_p50_ms": pct(txn, 0.50),
        "workload.txn_p95_ms": pct(txn, 0.95),
        "workload.scan_p50_ms": pct(scan, 0.50),
        "workload.scan_p95_ms": pct(scan, 0.95),
        "workload.p99_ms": pct(every, 0.99),
        "workload.max_ms": every[-1] if every else 0.0,
        "workload.mean_ms": statistics.fmean(every) if every else 0.0,
        "workload.latency_samples": len(every),
        "workload.late_share": _ratio(
            sum(1 for ms in late if ms > LATE_MS), len(late)
        ),
        "workload.generator_max_late_ms": max(late, default=0.0),
        "workload.slo_miss_share": _ratio(slo_miss, served),
        "workload.rebuild_passes": cycle.rebuild_passes,
        "workload.trace_overhead_ratio": _ratio(
            traced_cycle.timed_wall_s, cycle.timed_wall_s
        ),
        "workload.trace_self_sum_ratio": _ratio(
            sum(summary.layer_self_s.values()), summary.root_total_s
        ),
        "workload.untraced_callables": len(untraced),
        "workload.host_speed": statistics.fmean(cycle.speeds),
        "workload.rebuild_cpu_ms_per_page": _ratio(
            cycle.job.cpu_s * 1e3, cycle.job.pages
        ),
        "workload.table1_log_ratio": table1.get("log_ratio", 0.0),
        "workload.recovery_s": cycle.recovery_s,
        "workload.crash_to_rebuilt_s": cycle.crash_to_rebuilt_s,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }

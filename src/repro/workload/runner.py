"""Concurrent OLTP driver for the §6.2 concurrency experiments.

Runs a mixed insert/delete/scan workload from several threads against an
index, counting completed operations and per-class failures.  The §6.2
bench runs it alone and against the online rebuild and compares
throughput and the blocked-time counters.

Writers operate on a key subspace disjoint from the measurement keys (odd
ordinals), so correctness checks on the untouched keys remain valid after
the run.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.btree.tree import BTree
from repro.errors import (
    ChecksumError,
    DuplicateKeyError,
    KeyNotFoundError,
    LockTimeoutError,
    QuarantinedRangeError,
    StorageError,
)
from repro.obs.metrics import Histogram, merged, oltp_op

OPS = ("insert", "delete", "scan")
SCAN_WIDTH = 200
"""Rows a workload scan reads at most (it spans that many ordinals)."""


@dataclass
class OltpStats:
    """Aggregate results of one mixed-workload run."""

    duration_seconds: float = 0.0
    inserts: int = 0
    """Effective ops (a duplicate insert or a delete of a missing key is
    timed in ``histograms`` but not tallied), counted as each completes."""
    deletes: int = 0
    scans: int = 0
    scan_rows: int = 0
    faults: int = 0
    """Operations that failed on an (injected) storage fault; each is also
    recorded in ``errors`` with the failing op's name."""
    checksum_errors: int = 0
    """Subset of ``faults``: reads that surfaced page rot (a CRC trailer
    mismatch reached the user instead of being healed first)."""
    quarantined_ops: int = 0
    """Operations rejected fast by a standing quarantine — bounded,
    *expected* unavailability while a repair runs, tallied separately
    from faults so benches can tell degradation from damage."""
    errors: list[str] = field(default_factory=list)
    histograms: dict[str, Histogram] = field(
        default_factory=lambda: {op: Histogram(oltp_op(op)) for op in OPS}
    )
    """One latency histogram per op class (seconds, completed ops only),
    recorded into as each op completes — a reader sees a running workload,
    and nothing is kept per sample.  A :class:`MixedWorkload` puts its
    engine's ``oltp_<op>_seconds`` histograms here, so the exported
    registry and a :class:`~repro.core.pacer.Pacer` built over
    ``histograms.values()`` read the same objects (and a second workload
    on the same engine continues them)."""

    @property
    def operations(self) -> int:
        return self.inserts + self.deletes + self.scans

    @property
    def ops_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.operations / self.duration_seconds

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """p50/p95/p99 latency (milliseconds) per op class plus ``all``.

        Tail percentiles are what a rebuild running alongside the workload
        actually moves — mean throughput can look flat while blocked-time
        spikes show up squarely in p99.  Read through
        :meth:`Histogram.percentile`: never below the exact nearest-rank
        value, at most one bucket above it.  Every op class and ``all``
        is always present with exactly ``p50``/``p95``/``p99`` keys: a
        class with no samples reports 0.0 across the board, and a single
        sample is its own p50 = p95 = p99 — so benches and dashboards can
        index the dict without existence checks.
        """
        out = {op: h.percentiles() for op, h in self.histograms.items()}
        out["all"] = merged(self.histograms.values()).percentiles()
        return out


class MixedWorkload:
    """A stoppable multi-threaded insert/delete/scan workload."""

    def __init__(
        self,
        tree: BTree,
        keyfn,
        key_count: int,
        threads: int = 4,
        write_fraction: float = 0.8,
        seed: int = 0,
        before_op=None,
    ) -> None:
        """``keyfn(i) -> bytes`` maps ordinals to keys; writers touch only
        odd ordinals in ``[1, key_count)``.

        ``before_op()`` (optional) runs before every operation, e.g. to
        stall or fail the workers at a chosen point in a test.
        """
        self.tree = tree
        self.keyfn = keyfn
        self.key_count = key_count
        self.threads = threads
        self.write_fraction = write_fraction
        self.seed = seed
        self.before_op = before_op
        self.stats = OltpStats(
            histograms={
                op: tree.ctx.metrics.histogram(oltp_op(op)) for op in OPS
            }
        )
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._started_at = 0.0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self._started_at = time.perf_counter()
        self._workers = [
            threading.Thread(target=self._worker, args=(i,), daemon=True)
            for i in range(self.threads)
        ]
        for w in self._workers:
            w.start()

    def stop(self, join_timeout: float = 30.0) -> OltpStats:
        """Signal workers to stop and join them, with a deadline.

        A worker stuck past ``join_timeout`` (e.g. deadlocked on an engine
        bug) is reported in ``stats.errors`` instead of hanging the bench
        harness forever; the daemon thread is abandoned.
        """
        self._stop.set()
        deadline = time.monotonic() + join_timeout
        for w in self._workers:
            w.join(max(0.0, deadline - time.monotonic()))
            if w.is_alive():
                with self._lock:
                    self.stats.errors.append(
                        f"stuck: worker {w.name} did not stop within "
                        f"{join_timeout:.1f}s"
                    )
        self.stats.duration_seconds = time.perf_counter() - self._started_at
        return self.stats

    def run_for(
        self, seconds: float, join_timeout: float = 30.0
    ) -> OltpStats:
        """Convenience: start, sleep, stop."""
        self.start()
        time.sleep(seconds)
        return self.stop(join_timeout=join_timeout)

    # --------------------------------------------------------------- workers

    def _worker(self, ordinal: int) -> None:
        rnd = random.Random(self.seed * 1000 + ordinal)
        stats = self.stats
        hists = stats.histograms
        # Per-op tracing rides on the engine context the tree runs
        # against; everything below stays a single bool check per op when
        # tracing is off (the default).
        tracer = self.tree.ctx.tracer
        trace_on = tracer.enabled
        try:
            while not self._stop.is_set():
                if self.before_op is not None:
                    self.before_op()
                i = rnd.randrange(1, self.key_count, 2)
                key = self.keyfn(i)
                dice = rnd.random()
                op = (
                    "insert"
                    if dice < self.write_fraction / 2
                    else "delete"
                    if dice < self.write_fraction
                    else "scan"
                )
                began = time.perf_counter()
                op_span = (
                    tracer.begin(f"oltp.{op}", worker=ordinal)
                    if trace_on
                    else None
                )
                try:
                    if op == "insert":
                        try:
                            self.tree.insert(key, i)
                            with self._lock:
                                stats.inserts += 1
                        except DuplicateKeyError:
                            pass
                    elif op == "delete":
                        try:
                            self.tree.delete(key, i)
                            with self._lock:
                                stats.deletes += 1
                        except KeyNotFoundError:
                            pass
                    else:
                        hi_ord = min(i + SCAN_WIDTH, self.key_count - 1)
                        hi = self.keyfn(hi_ord)
                        lo, hi = (key, hi) if key <= hi else (hi, key)
                        rows = 0
                        for _ in self.tree.scan(lo=lo, hi=hi):
                            rows += 1
                            if rows >= SCAN_WIDTH:
                                break
                        with self._lock:
                            stats.scans += 1
                            stats.scan_rows += rows
                    hists[op].record(time.perf_counter() - began)
                except QuarantinedRangeError as exc:
                    # The op landed inside a fenced range: bounded,
                    # deliberate unavailability while the repair runs —
                    # never a reason to kill the worker.
                    with self._lock:
                        self.stats.quarantined_ops += 1
                        self.stats.errors.append(
                            f"{op} ordinal {i}: quarantined: {exc}"
                        )
                except ChecksumError as exc:
                    # Page rot reached a reader before the scrubber did.
                    # Record it against the op and keep going — the
                    # self-healing tests assert this stays at zero.
                    with self._lock:
                        self.stats.faults += 1
                        self.stats.checksum_errors += 1
                        self.stats.errors.append(
                            f"{op} ordinal {i}: {type(exc).__name__}: {exc}"
                        )
                except StorageError as exc:
                    # An (injected) I/O fault killed this op: record which
                    # op failed and keep the worker alive — fault runs stay
                    # diagnosable instead of threads dying silently.
                    with self._lock:
                        self.stats.faults += 1
                        self.stats.errors.append(
                            f"{op} ordinal {i}: {type(exc).__name__}: {exc}"
                        )
                finally:
                    if op_span is not None:
                        tracer.finish(op_span)
        except LockTimeoutError as exc:
            with self._lock:
                self.stats.errors.append(f"timeout: {exc}")
        except Exception as exc:  # pragma: no cover - surfaced by tests
            import traceback

            with self._lock:
                self.stats.errors.append(traceback.format_exc())

"""Cost-model counters.

The paper reports CPU-time ratios measured on a Sun Ultra-SPARC.  Python
wall/CPU time depends on the host, so alongside ``time.process_time()`` we
keep a deterministic operation-count cost model.  Every subsystem increments
the shared :class:`Counters` instance it was constructed with; benchmarks
snapshot and diff it around the measured region.

The counter names mirror the costs the paper attributes to small
``ntasize`` (§4.3, §6.2): calls to the lock manager and latch manager,
visits to level-1 pages, log bytes, and raw byte copying.

**Sharding.**  ``add`` is called on the hottest paths in the engine (every
key comparison, latch acquire, page read).  A single global lock per
increment serializes every worker thread on instrumentation, so instead
each thread increments its own *shard* — a plain per-thread dict it alone
writes — and readers (``snapshot`` / ``diff`` / attribute access) merge the
shards on demand.  Increments are lock-free; merges take a lock only to
guard the shard registry.  A thread's counts survive the thread: shards
stay registered after their owner exits, so post-``join`` snapshots are
exact.  ``reset`` assumes a quiescent instance (benchmark phase
boundaries), as concurrent increments may straddle the zeroing.
"""

from __future__ import annotations

import threading
import time

COUNTER_FIELDS: tuple[str, ...] = (
    # Latch / lock manager traffic.
    "latch_acquires",
    "latch_waits",
    "lock_mgr_calls",
    "lock_waits",
    "lock_wait_us",      # total blocked time on locks, microseconds
    # Page traffic.
    "page_reads",        # logical page reads through the buffer pool
    "page_writes",       # logical page writes (dirty evict or force)
    "disk_io_calls",     # physical I/O calls (large buffers batch these)
    "disk_pages_read",
    "disk_pages_written",
    # Durability hardening (fault injection, checksums, retries).
    # Slots a read / read_run looked at and did not return, by verdict
    # (probes — exists, verdict, page_ids — count nothing; see storage/disk).
    "disk_read_short",   # nothing, or less than a slot, stored
    "disk_read_bad_magic",  # file slot without the page magic (a hole)
    "disk_read_bad_crc",    # CRC32 trailer mismatch (torn write, rot)
    "io_retries",        # TransientIOError retries taken by the buffer pool
    "faults_injected",   # faults the FaultyDisk wrapper actually fired
    "log_torn_tail",     # torn WAL tails truncated at open
    # Read-ahead prefetch (buffer pool + io_scheduler).
    "prefetch_admitted",   # pages cached speculatively (run neighbors, read-ahead)
    "prefetch_hits",       # fetches satisfied by a speculatively cached page
    "prefetch_unused",     # prefetched pages evicted before anyone fetched them
    "prefetch_skipped_resident",  # read-ahead hints dropped: page already cached
    "prefetch_skipped_inflight",  # hints dropped: another thread is reading the page
    "prefetch_errors",     # read-ahead attempts dropped on an error (never fatal)
    "rebuild_demand_reads",  # source-run reads the scan had to issue itself
    # Scan-resistant buffer pool.
    "pool_demand_hits",    # OLTP (scan=False) fetches served from the pool
    "pool_demand_misses",  # OLTP (scan=False) fetches that had to read disk
    "pool_shard_conflicts",  # pool-lock acquisitions that found the lock held
    "ring_admits",         # scan-class admissions into the rebuild ring
    "ring_promotions",     # ring pages promoted to protected by a demand hit
    "hot_evictions_by_scan",  # protected frames evicted by scan-class admissions
    "pool_retired_unwritten",  # dirty deallocated frames dropped without a write
    "pool_dead_images_dropped",  # resident previous incarnations new_page dropped
    # Write-behind forcing (io_scheduler).
    "writebehind_batches", # physical flush batches issued by the background forcer
    "writebehind_pages",   # pages pushed through the forcer
    "writebehind_forces",  # commit-point barriers (completion-token waits)
    # Tree traffic.
    "traversals",
    "retraversals",
    "level1_visits",     # visits to level-1 pages (paper §4.3)
    "pages_visited",
    "key_comparisons",
    "bytes_copied",
    # Range scans (btree/scan.py).
    "scan_leaf_visits",      # latch holds that qualified a run of rows
    "scan_rows_returned",    # rows handed to the caller
    "scan_revalidation_failures",  # leaf image changed under a parked run
    # Logging.
    "log_records",
    "log_bytes",
    "log_flushes",           # physical flushes that made new records durable
    "log_flushes_coalesced", # flush requests satisfied by another thread's flush
    # Rebuild structure.
    "top_actions",
    "rebuild_transactions",
    "leaf_pages_rebuilt",
    "new_pages_allocated",
    "rebuild_pipeline_starts",  # runs that started the I/O threads (slow device)
    # Crash-resumable rebuild + supervision (wal/records.py, core/supervisor.py).
    "rebuild_progress_records",  # durable REBUILD_PROGRESS records appended
    "supervisor_retries",        # rebuild attempts retried after an abort
    "supervisor_resumes",        # retries that resumed from durable/reported progress
    "supervisor_gave_up",        # supervisors that exhausted their attempt budget
    "supervisor_throttles",      # degradation actions (top-action sleep widened)
    "watchdog_trips",            # rebuilds failed for a stale heartbeat
    # Online integrity scrubber + quarantine (core/scrubber.py, PR 9).
    "scrub_passes",              # full leaf-chain scrub passes completed
    "scrub_pages_checked",       # leaf pages verified (CRC + local invariants)
    "scrub_pages_skipped",       # pages skipped: protocol bits / chain moved
    "scrub_defects_found",       # confirmed defects (after the re-check pass)
    "scrub_repairs_flush",       # ladder 1: disk rot healed by flushing the
                                 # clean resident frame back over it
    "scrub_repairs_replay",      # ladder 2: page reconstructed by WAL replay
    "scrub_quarantines",         # ladder 3: key ranges quarantined
    "scrub_quarantine_lifts",    # quarantines lifted after a committed repair
    "scrub_throttles",           # pacing sleeps widened by OLTP p99 pressure
    "quarantine_blocked_ops",    # reads/writes rejected inside a quarantined range
    "quarantine_records",        # durable QUARANTINE log records appended
    # Crash recovery (wal/recovery.py).
    "recovery_records_scanned",   # durable records whose header analysis read
    "recovery_payloads_decoded",  # records recovery payload-decoded (all phases)
    "recovery_page_visits",       # pages visited by redo's page-ordered drains
    # Observability (repro/obs, PR 10).
    "obs_spans",                 # trace spans recorded into the ring sink
    "obs_spans_dropped",         # spans evicted from a full ring (oldest first)
)

_FIELD_SET = frozenset(COUNTER_FIELDS)


class UnknownCounterError(KeyError):
    """Raised when :meth:`Counters.add` names a counter that was never
    declared — almost always a typo that would otherwise count into the
    void and let an assertion pass vacuously."""


class Counters:
    """Thread-safe bag of monotonically increasing operation counters.

    Reading ``counters.page_reads`` (or any name in
    :data:`COUNTER_FIELDS`) merges the per-thread shards and returns the
    total; use :meth:`add` (or the convenience ``bump``) from hot paths,
    and :meth:`snapshot` / :meth:`diff` from benchmarks.
    """

    __slots__ = ("_lock", "_base", "_local", "_shards", "_dynamic")

    def __init__(self, **initial: int) -> None:
        self._lock = threading.Lock()
        # Residual totals: explicit attribute assignment folds here.
        self._base: dict[str, int] = dict.fromkeys(COUNTER_FIELDS, 0)
        self._local = threading.local()
        self._shards: list[dict[str, int]] = []
        # Names declared at runtime via register() — the escape hatch
        # for dynamic counters the static COUNTER_FIELDS can't list.
        self._dynamic: frozenset[str] = frozenset()
        for name, value in initial.items():
            if name not in _FIELD_SET:
                raise TypeError(f"unknown counter {name!r}")
            self._base[name] = int(value)

    def register(self, name: str) -> None:
        """Declare a dynamic counter on this instance (idempotent).

        The static :data:`COUNTER_FIELDS` catches typos; ``register``
        is the opt-out for names only known at runtime (e.g. per-op or
        imported metric names).  Registered names work with :meth:`add`,
        attribute reads, :meth:`snapshot` and :meth:`reset` exactly like
        static ones, but are not pre-allocated in thread shards (their
        shard slots appear on first use)."""
        if not name or name.startswith("_"):
            raise ValueError(f"invalid counter name {name!r}")
        if name in _FIELD_SET:
            return
        with self._lock:
            if name not in self._dynamic:
                self._dynamic = self._dynamic | {name}
                self._base.setdefault(name, 0)

    # ------------------------------------------------------------------- hot

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (lock-free, thread-safe).

        Each thread owns its shard dict, so the read-modify-write below
        races with nothing; readers merge shards under the registry lock.
        """
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._register_shard()
        try:
            shard[name] += amount
        except KeyError:
            self._slow_add(shard, name, amount)

    def _slow_add(self, shard: dict[str, int], name: str, amount: int) -> None:
        # Off the hot path: either a registered dynamic counter whose
        # slot this shard hasn't materialized yet, or a typo.
        if name in self._dynamic:
            shard[name] = shard.get(name, 0) + amount
            return
        raise UnknownCounterError(
            f"unknown counter {name!r}{_suggest(name)}; declare it in "
            f"COUNTER_FIELDS or call register({name!r}) for dynamic names"
        )

    # Alias used by hot paths for brevity.
    bump = add

    def local_shard(self) -> dict[str, int]:
        """The calling thread's shard, for hot paths that bump several
        counters at once: one method call, then plain dict increments.
        Only the owning thread may write to the returned dict."""
        try:
            return self._local.shard
        except AttributeError:
            return self._register_shard()

    def _register_shard(self) -> dict[str, int]:
        shard = dict.fromkeys(COUNTER_FIELDS, 0)
        self._local.shard = shard
        with self._lock:
            self._shards.append(shard)
        return shard

    # ----------------------------------------------------------------- reads

    def snapshot(self) -> dict[str, int]:
        """Return a point-in-time copy of every counter (shards merged)."""
        with self._lock:
            totals = dict(self._base)
            for shard in self._shards:
                for name, value in shard.items():
                    if value:
                        totals[name] += value
        return totals

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Return counter deltas since a previous :meth:`snapshot`."""
        now = self.snapshot()
        return {name: now[name] - before.get(name, 0) for name in now}

    def reset(self) -> None:
        """Zero every counter (between benchmark iterations; quiescent).
        Dynamic registrations survive the reset."""
        with self._lock:
            self._base = dict.fromkeys(self._base, 0)
            for shard in self._shards:
                for name in shard:
                    shard[name] = 0

    # ----------------------------------------------------- attribute protocol

    def __getattr__(self, name: str) -> int:
        # Only reached for names not in __slots__: counter reads.
        if name.startswith("_"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        if name in _FIELD_SET or name in self._dynamic:
            with self._lock:
                total = self._base[name]
                for shard in self._shards:
                    total += shard.get(name, 0)
            return total
        raise AttributeError(
            f"{type(self).__name__!r} object has no counter "
            f"{name!r}{_suggest(name)}"
        )

    def __setattr__(self, name: str, value: object) -> None:
        if name in _FIELD_SET or (
            not name.startswith("_") and name in self._dynamic
        ):
            with self._lock:
                for shard in self._shards:
                    if name in shard:
                        shard[name] = 0
                self._base[name] = int(value)  # type: ignore[call-overload]
        else:
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        hot = {k: v for k, v in self.snapshot().items() if v}
        return f"Counters({hot})"


def _suggest(name: str) -> str:
    """Did-you-mean fragment for an unknown counter name, or ''."""
    import difflib

    close = difflib.get_close_matches(name, COUNTER_FIELDS, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


class Timer:
    """Context manager measuring wall and CPU time for a benchmark region."""

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0

    def __enter__(self) -> "Timer":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_seconds = time.perf_counter() - self._wall0
        self.cpu_seconds = time.process_time() - self._cpu0

"""HDR-style log-bucketed histograms + a registry with exporters.

The engine's :class:`~repro.stats.counters.Counters` record *how many*;
histograms record *how long*.  One :class:`Histogram` covers one latency
class (``latch_wait_seconds``, ``wal_flush_seconds``,
``scrub_pause_seconds``, ``oltp_op_seconds{op=...}``) with 64 power-of-two
buckets over microseconds — bucket ``i`` holds samples whose value in µs
has ``bit_length() == i``, i.e. ``[2**(i-1), 2**i)`` µs.  That gives
relative error ≤2x from ~1µs to ~5 centuries, which is plenty for
percentile *ranks*: the estimator answers with the bucket's upper bound,
so a reported p99 is never optimistic.

Recording follows the counters' sharding idiom exactly: each thread owns
a private bucket array registered under the histogram's lock once, then
``record()`` touches only thread-local state — no lock, no contention
with other OLTP workers or the rebuild.  Readers merge shards on demand.

:class:`MetricsRegistry` names the histograms, folds in a ``Counters``
snapshot, and exports both in Prometheus text exposition format and
JSON (round-trippable via :meth:`MetricsRegistry.from_json`).
"""

from __future__ import annotations

import json
import math
import threading
from typing import Iterable

from repro.stats.counters import Counters

_BUCKETS = 64
# Upper bound of bucket i in seconds: 2**i µs (bucket 0 is "<= 1 µs").
_UPPER_SECONDS = tuple((1 << i) / 1e6 for i in range(_BUCKETS))


class _HistShard:
    """One thread's private slice of a histogram."""

    __slots__ = ("buckets", "count", "total", "vmin", "vmax")

    def __init__(self) -> None:
        self.buckets = [0] * _BUCKETS
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = 0.0


class Histogram:
    """Log-bucketed latency histogram with per-thread shards.

    ``record(seconds)`` is the only hot call and is lock-free after a
    thread's first sample.  Everything else (percentiles, merge, export)
    takes the registration lock briefly to copy shard references.
    """

    __slots__ = ("name", "help", "_lock", "_shards", "_local")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        # Shards of exited threads are never removed (same lifetime rule
        # as Counters): merged totals must not go backwards.
        self._shards: list[_HistShard] = []
        self._local = threading.local()

    def _shard(self) -> _HistShard:
        try:
            return self._local.shard
        except AttributeError:
            shard = _HistShard()
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
            return shard

    def record(self, seconds: float) -> None:
        """Add one sample (in seconds; negatives clamp to 0)."""
        if seconds < 0.0:
            seconds = 0.0
        idx = int(seconds * 1e6).bit_length()
        if idx >= _BUCKETS:
            idx = _BUCKETS - 1
        shard = self._shard()
        shard.buckets[idx] += 1
        shard.count += 1
        shard.total += seconds
        if seconds < shard.vmin:
            shard.vmin = seconds
        if seconds > shard.vmax:
            shard.vmax = seconds

    # ---------------------------------------------------------------- reading

    def snapshot(self) -> dict:
        """Merged view: buckets, count, sum, min, max."""
        with self._lock:
            shards = list(self._shards)
        buckets = [0] * _BUCKETS
        count = 0
        total = 0.0
        vmin = float("inf")
        vmax = 0.0
        for shard in shards:
            for i, n in enumerate(shard.buckets):
                buckets[i] += n
            count += shard.count
            total += shard.total
            if shard.vmin < vmin:
                vmin = shard.vmin
            if shard.vmax > vmax:
                vmax = shard.vmax
        return {
            "buckets": buckets,
            "count": count,
            "sum": total,
            "min": 0.0 if count == 0 else vmin,
            "max": vmax,
        }

    def percentile(self, q: float, snapshot: dict | None = None) -> float:
        """Value (seconds) at quantile ``q`` in [0, 1] of this histogram,
        or of ``snapshot`` — the engine's one percentile definition: the
        upper bound of the bucket holding the nearest-rank sample (rank
        ``ceil(q * count)``), clamped to the observed max so a lone sample
        doesn't report double.  So never below the exact nearest-rank
        value of the samples, at most one bucket (2x) above it.  0.0 when
        empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        snap = snapshot or self.snapshot()
        count = snap["count"]
        if count == 0:
            return 0.0
        rank = max(1, math.ceil(q * count))
        seen = 0
        for i, n in enumerate(snap["buckets"]):
            seen += n
            if seen >= rank:
                return min(_UPPER_SECONDS[i], snap["max"])
        return snap["max"]

    def percentiles(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` in **milliseconds**
        (matching ``OltpStats.latency_percentiles``)."""
        snap = self.snapshot()
        return {
            "p50": round(self.percentile(0.50, snap) * 1000.0, 3),
            "p95": round(self.percentile(0.95, snap) * 1000.0, 3),
            "p99": round(self.percentile(0.99, snap) * 1000.0, 3),
        }

    def load(self, snapshot: dict) -> None:
        """Seed this (fresh) histogram from a :meth:`snapshot` dict —
        the JSON import path."""
        shard = self._shard()
        for i, n in enumerate(snapshot["buckets"]):
            shard.buckets[i] += n
        shard.count += snapshot["count"]
        shard.total += snapshot["sum"]
        if snapshot["count"]:
            if snapshot["min"] < shard.vmin:
                shard.vmin = snapshot["min"]
            if snapshot["max"] > shard.vmax:
                shard.vmax = snapshot["max"]


def merged(histograms: Iterable[Histogram]) -> Histogram:
    """A point-in-time copy of several histograms as one — the op classes
    of one workload seen as one latency class."""
    out = Histogram("merged")
    for hist in histograms:
        out.load(hist.snapshot())
    return out


def since(now: dict, before: dict) -> dict:
    """What was recorded between two snapshots of the same histograms.
    ``min`` and ``max`` stay those of ``now``: they bound the window's
    samples too, so a percentile clamped to them is never optimistic."""
    return dict(
        now,
        buckets=[n - b for n, b in zip(now["buckets"], before["buckets"])],
        count=now["count"] - before["count"],
        sum=now["sum"] - before["sum"],
    )


class MetricsRegistry:
    """Named histograms + a counters reference, with exporters."""

    def __init__(self, counters: Counters | None = None) -> None:
        self.counters = counters
        self._lock = threading.Lock()
        self._histograms: dict[str, Histogram] = {}

    def histogram(self, name: str, help: str = "") -> Histogram:
        """Get-or-create; safe from any thread."""
        hist = self._histograms.get(name)
        if hist is not None:
            return hist
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(name, help)
                self._histograms[name] = hist
            return hist

    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    # -------------------------------------------------------------- exporters

    def to_json(self) -> dict:
        """Counters snapshot + per-histogram snapshots (JSON-safe)."""
        out: dict = {"counters": {}, "histograms": {}}
        if self.counters is not None:
            out["counters"] = self.counters.snapshot()
        for name, hist in sorted(self.histograms().items()):
            snap = hist.snapshot()
            out["histograms"][name] = {
                "help": hist.help,
                "buckets": snap["buckets"],
                "count": snap["count"],
                "sum": snap["sum"],
                "min": snap["min"],
                "max": snap["max"],
                "percentiles_ms": hist.percentiles(),
            }
        return out

    @classmethod
    def from_json(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_json` output (counters come
        back as a fresh Counters seeded via add)."""
        counters = Counters()
        for name, value in data.get("counters", {}).items():
            if value:
                counters.register(name)
                counters.add(name, value)
        reg = cls(counters)
        for name, snap in data.get("histograms", {}).items():
            hist = reg.histogram(name, snap.get("help", ""))
            hist.load(snap)
        return reg

    def to_prometheus(self) -> str:
        """Prometheus text exposition format, version 0.0.4.

        Histogram names get a ``repro_`` prefix and cumulative
        ``_bucket{le=...}`` series; counters export as ``repro_<name>_total``.
        """
        lines: list[str] = []
        if self.counters is not None:
            for name, value in sorted(self.counters.snapshot().items()):
                metric = f"repro_{name}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {value}")
        for name, hist in sorted(self.histograms().items()):
            snap = hist.snapshot()
            metric = f"repro_{name}"
            if hist.help:
                lines.append(f"# HELP {metric} {hist.help}")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for i, n in enumerate(snap["buckets"]):
                cumulative += n
                if n:
                    bound = _format_float(_UPPER_SECONDS[i])
                    lines.append(
                        f'{metric}_bucket{{le="{bound}"}} {cumulative}'
                    )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {snap["count"]}')
            lines.append(f"{metric}_sum {_format_float(snap['sum'])}")
            lines.append(f"{metric}_count {snap['count']}")
        return "\n".join(lines) + "\n"


def _format_float(value: float) -> str:
    """Shortest repr that round-trips; integers without trailing .0."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back to ``{series_with_labels: value}`` —
    enough for the round-trip test, not a full parser."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


def oltp_op(op: str) -> str:
    """Histogram name for one OLTP op class (insert/delete/scan)."""
    return f"oltp_{op}_seconds"

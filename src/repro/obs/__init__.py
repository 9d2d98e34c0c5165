"""Observability: trace spans, histogram metrics, live progress.

The engine's counters (:mod:`repro.stats.counters`) answer *how much*;
this package answers *when*, *how long*, and *how far along*:

* :mod:`repro.obs.tracer` — lock-cheap parented trace spans with a
  ring-buffer sink and JSONL export, emitted from every layer (rebuild
  top actions, supervisor episodes, scrub passes, WAL flushes, buffer
  misses, per-OLTP-op) so background-work interference with foreground
  latency can be read straight off overlapping span timestamps;
* :mod:`repro.obs.metrics` — an HDR-style log-bucketed histogram
  registry (latch wait, WAL flush, scrub pause, per-op OLTP
  latency) with Prometheus-text and JSON exporters that fold in the
  sharded counters;
* :mod:`repro.obs.progress` — a live :class:`ProgressReporter` fed by
  the rebuild's durable-progress floor and the scrubber's pass state,
  exposed as :meth:`repro.engine.Engine.progress`.

Everything here is **off by default**: ``EngineContext.create(trace=...)``
(or ``Engine(trace=True)``, or the ``REPRO_TRACE=1`` environment
variable) turns it on.  Disabled, the only cost at an instrumented site
is one attribute/flag check.
"""

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.progress import ProgressReporter, ProgressSnapshot
from repro.obs.tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "ProgressReporter",
    "ProgressSnapshot",
    "Span",
    "Tracer",
]

"""Spans recorded from outside the engine.

The traced run wraps the public callables of each layer at class level
(objects such as ``OnlineRebuild``, ``IOScheduler`` and the managers that
``Engine.crash`` replaces are created while the workload runs, so patching
live instances would miss them), records one span per call, and puts the
original attributes back afterwards.  Nothing here relies on
``Engine(trace=)``: the engine's own tracer stays off.

A span is ``(name, layer, start, end, parent, request)``; the parent is the
index of the span that was open on the same thread, from a thread-local
stack.  A layer's self time is its spans' duration minus what their
children cover.  Time a thread spends waiting for the interpreter lock
lands in whichever span it has open.

A callable that no longer exists is skipped and listed under ``untraced``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# layer -> [(module, class, methods)].  Names starting with "_" are thread
# bodies or sweeps that no public callable brackets; they are optional in
# the same way as everything else here.
TRACE_POINTS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "disk": [
        ("repro.storage.disk", "Disk",
         ("read", "write", "read_run", "write_many")),
    ],
    "buffer": [
        ("repro.storage.buffer", "BufferPool",
         ("fetch", "new_page", "prefetch", "flush_page", "flush_pages",
          "flush_all")),
    ],
    "iosched": [
        ("repro.storage.io_scheduler", "IOScheduler",
         ("force", "submit_write")),
        ("repro.storage.io_scheduler", "CompletionToken", ("wait",)),
    ],
    "wal": [
        ("repro.wal.log", "LogManager",
         ("append", "flush_to", "flush_commit")),
    ],
    "recovery": [
        ("repro.wal.recovery", "RecoveryManager", ("recover",)),
        ("repro.engine", "Engine",
         ("recover", "crash", "checkpoint", "_clear_protocol_bits")),
    ],
    "latch": [
        ("repro.concurrency.latch", "LatchManager",
         ("acquire", "try_acquire", "release")),
    ],
    "locks": [
        ("repro.concurrency.locks", "LockManager",
         ("acquire", "try_acquire", "wait_instant")),
    ],
    "txn": [
        ("repro.concurrency.txn", "TransactionManager",
         ("begin", "commit", "abort")),
    ],
    "page": [
        ("repro.storage.page", "Page", ("to_bytes", "from_bytes")),
    ],
    "btree": [
        ("repro.btree.tree", "BTree",
         ("insert", "delete", "contains", "scan")),
    ],
    "rebuild": [
        ("repro.core.rebuild", "OnlineRebuild", ("run", "_worker_main")),
    ],
}

SPAN_COLUMNS = [
    "thread", "id", "name", "layer", "start", "end", "parent", "request",
]
REQUEST_LAYER = "workload"
"""Layer of the spans the load generator opens around each request."""


@dataclass
class _ThreadLog:
    name: str
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    request: int = -1


class Recorder:
    """In-memory span store with one append-only list per thread."""

    def __init__(self) -> None:
        self.on = False
        self._local = threading.local()
        self._threads: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._threads.append(log)
            return log

    @contextmanager
    def span(self, name: str, layer: str = REQUEST_LAYER, request: int = -1):
        """Open a span from the suite's own code (one per OLTP request)."""
        if not self.on:
            yield
            return
        log = self._log()
        saved = log.request
        log.request = request
        idx = _open(log)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            _close(log, idx, name, layer, t0, time.perf_counter())
            log.request = saved

    def threads(self) -> list[tuple[str, list]]:
        """``(thread name, spans)`` per thread.  A span's id is its index;
        a span that never closed is ``None``."""
        with self._lock:
            return [(log.name, log.spans) for log in self._threads]

    def write_jsonl(self, path: str) -> int:
        """A header line naming the columns, then one JSON array per
        span; returns the number of spans written."""
        n = 0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(SPAN_COLUMNS) + "\n")
            for thread, spans in self.threads():
                for i, span in enumerate(spans):
                    if span is not None:
                        out.write(json.dumps([thread, i, *span]) + "\n")
                        n += 1
        return n


def _open(log: _ThreadLog) -> int:
    idx = len(log.spans)
    log.spans.append(None)  # slot keeps ids in start order
    log.stack.append(idx)
    return idx


def _close(log, idx, name, layer, t0, t1) -> None:
    stack = log.stack
    stack.pop()
    parent = stack[-1] if stack else -1
    log.spans[idx] = (name, layer, t0, t1, parent, log.request)


def _wrap(fn, name: str, layer: str, rec: Recorder):
    perf = time.perf_counter
    if inspect.isgeneratorfunction(fn):
        # The work happens while the caller iterates, so the span covers
        # first resume to exhaustion.
        def gen_wrapper(*args, **kwargs):
            if not rec.on:
                yield from fn(*args, **kwargs)
                return
            log = rec._log()
            idx = _open(log)
            t0 = perf()
            try:
                yield from fn(*args, **kwargs)
            finally:
                _close(log, idx, name, layer, t0, perf())

        return gen_wrapper

    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        log = rec._log()
        idx = _open(log)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            _close(log, idx, name, layer, t0, perf())

    return wrapper


class LayerTrace:
    """Installs the wrappers; ``restore()`` puts every original back."""

    def __init__(self, points=None) -> None:
        self.recorder = Recorder()
        self.untraced: list[str] = []
        self._saved: list[tuple[type, str, object]] = []
        self._points = TRACE_POINTS if points is None else points

    def install(self) -> "LayerTrace":
        for layer, targets in self._points.items():
            for module_name, class_name, methods in targets:
                try:
                    cls = getattr(
                        importlib.import_module(module_name), class_name
                    )
                except (ImportError, AttributeError):
                    self.untraced.extend(
                        f"{class_name}.{m}" for m in methods
                    )
                    continue
                for method in methods:
                    self._patch(cls, method, layer)
        return self

    def _patch(self, cls: type, method: str, layer: str) -> None:
        raw = cls.__dict__.get(method)
        name = f"{cls.__name__}.{method}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                _wrap(raw.__func__, name, layer, self.recorder)
            )
        elif inspect.isfunction(raw):
            wrapped = _wrap(raw, name, layer, self.recorder)
        else:
            self.untraced.append(name)
            return
        self._saved.append((cls, method, raw))
        setattr(cls, method, wrapped)

    def restore(self) -> None:
        while self._saved:
            cls, method, raw = self._saved.pop()
            setattr(cls, method, raw)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


# ------------------------------------------------------------- arithmetic


def self_times(spans: list) -> list[float]:
    """Self time of each span of one thread: its duration minus the
    duration of its direct children (children of one thread never
    overlap, so their durations add)."""
    own = [0.0 if s is None else s[3] - s[2] for s in spans]
    for span in spans:
        if span is not None and span[4] >= 0:
            own[span[4]] -= span[3] - span[2]
    return own


@dataclass
class TraceSummary:
    layer_self_s: dict[str, float]
    """Layer -> summed self time."""
    name_total_s: dict[str, float]
    """Span name -> summed duration."""
    name_self_s: dict[str, float]
    name_calls: dict[str, int]
    root_total_s: float
    """Summed duration of the spans that have no parent."""
    spans: int


def summarize(threads: list[tuple[str, list]]) -> TraceSummary:
    layer_self: dict[str, float] = {}
    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    root_total = 0.0
    n = 0
    for _thread, spans in threads:
        own = self_times(spans)
        for span, self_s in zip(spans, own):
            if span is None:
                continue
            name, layer, t0, t1, parent, _req = span
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
            totals[name] = totals.get(name, 0.0) + (t1 - t0)
            selfs[name] = selfs.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                root_total += t1 - t0
            n += 1
    return TraceSummary(layer_self, totals, selfs, calls, root_total, n)

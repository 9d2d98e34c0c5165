"""Lock-cheap trace spans with parenting, a ring sink, and JSONL export.

A :class:`Span` is one timed region of engine work ("rebuild.top_action",
"wal.flush", "oltp.insert").  Spans form a forest: each carries the id of
the span that was *current on its thread* when it started (or an explicit
cross-thread parent).  Timestamps come from one ``time.monotonic`` clock,
so spans from different threads can be correlated purely by overlap —
which is exactly how OLTP interference with a concurrent rebuild is read.

**Cheapness.**  The design budget is "a rebuild under OLTP traffic with
tracing on costs the foreground <2%":

* the per-thread *current span* stack lives in ``threading.local`` —
  starting and finishing a span takes no lock;
* finished spans go to a ``deque(maxlen=capacity)`` ring — ``append`` is
  a single atomic C-level operation, and the ring bounds memory no
  matter how long the engine runs (drops are counted, never silent);
* a disabled tracer (:data:`NULL_TRACER`, the engine default) answers
  ``span()`` with a shared no-op context manager, so instrumented sites
  cost one method call — and the hottest sites guard even that behind
  ``tracer.enabled``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Iterable

from repro.stats.counters import Counters


class Span:
    """One finished-or-running timed region; plain data."""

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end", "thread", "attrs",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        thread: str,
        attrs: dict | None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = 0.0
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still running)."""
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            data["name"],
            data["span_id"],
            data.get("parent_id"),
            data["start"],
            data.get("thread", ""),
            data.get("attrs") or None,
        )
        span.end = data.get("end", 0.0)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration * 1000:.3f}ms)"
        )


class _SpanHandle:
    """Context-manager wrapper so ``with tracer.span(...)`` nests/finishes."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def span(self) -> Span:
        return self._span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._tracer.finish(self._span)


class _NullHandle:
    """Shared no-op handle the disabled tracer returns from ``span()``."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Span factory + ring sink.  One per engine; threads share it freely."""

    enabled = True

    def __init__(
        self,
        capacity: int = 65536,
        counters: Counters | None = None,
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.counters = counters
        self.clock = clock
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------ spans

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack: list[Span] = []
            self._local.stack = stack
            return stack

    def current(self) -> Span | None:
        """The calling thread's innermost running span (cross-thread
        parent handle: capture it, pass as ``parent=`` in the worker)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(
        self,
        name: str,
        parent: "Span | int | None" = None,
        **attrs: object,
    ) -> Span:
        """Start a span; pair with :meth:`finish` (or use :meth:`span`).

        ``parent`` overrides the thread-local parenting — pass the
        driver's span (or its id) when the work runs on another thread.
        """
        stack = self._stack()
        if parent is None:
            parent_id = stack[-1].span_id if stack else None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = parent
        span = Span(
            name,
            next(self._ids),
            parent_id,
            self.clock(),
            threading.current_thread().name,
            attrs or None,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Stamp the end time and move the span to the ring sink."""
        span.end = self.clock()
        stack = self._stack()
        # Normal case: LIFO.  An exception that unwound past inner spans
        # still finishes cleanly — everything above ``span`` is closed
        # with the same end time so the forest stays well-formed.
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.end = span.end
            self._sink(top)
        self._sink(span)

    def _sink(self, span: Span) -> None:
        counters = self.counters
        if counters is not None:
            shard = counters.local_shard()
            shard["obs_spans"] += 1
            if len(self._ring) == self.capacity:
                shard["obs_spans_dropped"] += 1
        elif len(self._ring) == self.capacity:
            pass  # bounded ring still drops oldest; nothing to count into
        self._ring.append(span)

    def span(
        self,
        name: str,
        parent: "Span | int | None" = None,
        **attrs: object,
    ) -> _SpanHandle:
        """``with tracer.span("rebuild.top_action"): ...``"""
        return _SpanHandle(self, self.begin(name, parent=parent, **attrs))

    def event(
        self,
        name: str,
        parent: "Span | int | None" = None,
        **attrs: object,
    ) -> Span:
        """A zero-duration span (a point-in-time marker, e.g. a watchdog
        trip)."""
        span = self.begin(name, parent=parent, **attrs)
        self.finish(span)
        return span

    # ---------------------------------------------------------------- reading

    def spans(self) -> list[Span]:
        """Point-in-time copy of the ring (oldest first)."""
        return list(self._ring)

    def drain(self) -> list[Span]:
        """Take and clear the ring's contents."""
        out = []
        ring = self._ring
        while True:
            try:
                out.append(ring.popleft())
            except IndexError:
                return out

    def forest(self) -> list[dict]:
        """The recorded spans as parent→children trees (oldest roots
        first).  A span whose parent was dropped from the ring (or never
        finished) becomes a root.  Each node is
        ``{"span": Span, "children": [...]}``."""
        return build_forest(self.spans())

    def format_forest(self) -> str:
        """The recorded spans rendered as an indented text tree."""
        return format_forest(self.forest())

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per finished span; returns the count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        return len(spans)

    @staticmethod
    def import_jsonl(path: str) -> list[Span]:
        """Inverse of :meth:`export_jsonl`."""
        out = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(Span.from_dict(json.loads(line)))
        return out


def build_forest(spans: Iterable[Span]) -> list[dict]:
    """Group spans into ``{"span", "children"}`` trees by parent id."""
    nodes = {
        span.span_id: {"span": span, "children": []} for span in spans
    }
    roots: list[dict] = []
    for node in nodes.values():
        parent = nodes.get(node["span"].parent_id)
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: n["span"].start)
    roots.sort(key=lambda n: n["span"].start)
    return roots


def format_forest(roots: list[dict], clock_zero: float | None = None) -> str:
    """Render a span forest as an indented text tree (the ``repro-obs``
    console dump)."""
    if clock_zero is None:
        clock_zero = min(
            (n["span"].start for n in roots), default=0.0
        )
    lines: list[str] = []

    def walk(node: dict, depth: int) -> None:
        span = node["span"]
        attrs = (
            " " + " ".join(f"{k}={v}" for k, v in span.attrs.items())
            if span.attrs
            else ""
        )
        lines.append(
            f"{'  ' * depth}{span.name}  "
            f"+{(span.start - clock_zero) * 1000:.2f}ms "
            f"{span.duration * 1000:.2f}ms [{span.thread}]{attrs}"
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a cached no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def begin(self, name, parent=None, **attrs):  # noqa: ANN001, ANN003
        return None  # type: ignore[return-value]

    def finish(self, span) -> None:  # noqa: ANN001
        return None

    def span(self, name, parent=None, **attrs):  # noqa: ANN001, ANN003
        return _NULL_HANDLE  # type: ignore[return-value]

    def event(self, name, parent=None, **attrs):  # noqa: ANN001, ANN003
        return None  # type: ignore[return-value]

    def current(self) -> None:
        return None


NULL_TRACER = NullTracer()
"""Shared disabled tracer; the default wired into every engine context."""

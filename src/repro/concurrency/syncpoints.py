"""Syncpoints: the engine's one channel of named protocol points.

The engine calls :meth:`SyncPoints.fire` at protocol-interesting moments
("leaf split set SPLIT bits", "rebuild copy phase locked pages", "about to
flush new pages", ...).  When nothing listens every fire is a dictionary
miss.  *Observers* see every fire — the tracer records each as an event,
the crash-schedule harness enumerates its crash points from them.  Tests
attach *hooks* to one name to:

* force a precise interleaving — e.g. park the rebuild thread right after it
  sets SHRINK bits, run a traversal from another thread, assert it blocks,
  then release the rebuild;
* inject crashes — raise :class:`CrashPoint` from a hook, which the crash
  tests catch after simulating loss of the buffer pool and unflushed log.

Observers run before hooks, so a crash's point is the last one they saw.
Hooks receive a context dict; whatever they raise propagates to the caller.
"""

from __future__ import annotations

import threading
from typing import Callable

Hook = Callable[[dict], None]
Observer = Callable[[str, dict], None]


class CrashPoint(Exception):
    """Raised by a test hook to simulate a crash at a syncpoint."""

    def __init__(self, name: str) -> None:
        super().__init__(f"injected crash at syncpoint {name!r}")
        self.name = name


class SyncPoints:
    """Registry of named hooks plus observers of every point."""

    def __init__(self) -> None:
        self._hooks: dict[str, list[Hook]] = {}
        self._observers: tuple[Observer, ...] = ()
        self._lock = threading.Lock()

    def observe(self, observer: Observer) -> None:
        """Call ``observer(name, attrs)`` on every fire from now on; the
        ``attrs`` dict is the fire's own and must not be mutated."""
        with self._lock:
            self._observers += (observer,)

    def on(self, name: str, hook: Hook) -> None:
        """Attach ``hook`` to syncpoint ``name``."""
        with self._lock:
            self._hooks.setdefault(name, []).append(hook)

    def once(self, name: str, hook: Hook) -> None:
        """Attach a hook that detaches itself after its first firing."""

        def wrapper(ctx: dict) -> None:
            self.remove(name, wrapper)
            hook(ctx)

        self.on(name, wrapper)

    def remove(self, name: str, hook: Hook) -> None:
        with self._lock:
            hooks = self._hooks.get(name, [])
            if hook in hooks:
                hooks.remove(hook)
            if not hooks:
                self._hooks.pop(name, None)

    def clear(self) -> None:
        """Drop every hook; observers stay attached."""
        with self._lock:
            self._hooks.clear()

    def fire(self, name: str, **attrs: object) -> None:
        """Tell every observer, then invoke the hooks for ``name``."""
        for observer in self._observers:
            observer(name, attrs)
        hooks = self._hooks.get(name)
        if not hooks:
            return
        context = dict(attrs)
        context["syncpoint"] = name
        for hook in list(hooks):
            hook(context)

    def fire_unlocked(self, mutex, name: str, **attrs: object) -> None:
        """:meth:`fire` with the caller's ``mutex`` released around it
        (retaken before this returns or raises), for a point on a wait
        path: a hook may park there without holding the caller's lock."""
        mutex.release()
        try:
            self.fire(name, **attrs)
        finally:
            mutex.acquire()


class Rendezvous:
    """Two-thread handshake used by interleaving tests.

    The engine thread calls :meth:`engine_arrived` from a syncpoint hook and
    parks; the test calls :meth:`wait_engine`, does its checks, then
    :meth:`release` lets the engine continue.
    """

    def __init__(self, timeout: float = 10.0) -> None:
        self.timeout = timeout
        self._arrived = threading.Event()
        self._released = threading.Event()

    def engine_arrived(self, _ctx: dict | None = None) -> None:
        self._arrived.set()
        if not self._released.wait(self.timeout):
            raise TimeoutError("rendezvous release timed out")

    def wait_engine(self) -> None:
        if not self._arrived.wait(self.timeout):
            raise TimeoutError("engine never reached the syncpoint")

    def release(self) -> None:
        self._released.set()

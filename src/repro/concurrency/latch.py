"""Page latches (§2): short-duration S/X physical-consistency locks.

A latch protects the in-memory page image while a thread reads or mutates
it.  The engine follows the paper's discipline — latches are requested top
down and left to right, held only across a page visit, and never held while
waiting for an unconditional lock — so latch deadlock is impossible.  A
watchdog timeout converts any protocol bug into a loud
:class:`~repro.errors.LockTimeoutError` instead of a hang.

Latches are keyed by page id and owned by threads (not transactions); the
manager tracks per-thread holdings so tests can assert the protocol.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict

from repro.errors import LatchError, LockTimeoutError
from repro.stats.counters import Counters


class LatchMode(enum.Enum):
    S = "S"
    X = "X"


class _Latch:
    """State of one page's latch."""

    __slots__ = ("s_holders", "x_holder", "waiters")

    def __init__(self) -> None:
        self.s_holders: set[int] = set()   # thread idents
        self.x_holder: int | None = None
        self.waiters = 0


class LatchManager:
    """S/X latches keyed by page id."""

    # Optional observability hook (set by EngineContext when tracing is
    # on): contended waits record into the latch_wait_seconds histogram.
    metrics = None

    def __init__(
        self,
        counters: Counters | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self.timeout = timeout
        self._latches: dict[int, _Latch] = defaultdict(_Latch)
        # A plain Lock (not the default RLock) backs the condition: latch
        # methods never nest, and Lock's fast path is cheaper.  The mutex
        # is kept separately so the hot paths can acquire/release it
        # directly (C-level) instead of through Condition's __enter__.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._local = threading.local()  # .held: {page_id: mode}, per thread
        self._waiting = 0  # threads blocked in acquire, across all latches

    def _my_held(self) -> dict[int, LatchMode]:
        """The calling thread's held-latch map (created on first use)."""
        local = self._local
        try:
            return local.held
        except AttributeError:
            held: dict[int, LatchMode] = {}
            local.held = held
            return held

    # ---------------------------------------------------------------- acquire

    def acquire(self, page_id: int, mode: LatchMode) -> None:
        """Block until the latch is granted (watchdog-bounded)."""
        me = threading.get_ident()
        try:
            held = self._local.held
        except AttributeError:
            held = self._my_held()
        self.counters.local_shard()["latch_acquires"] += 1
        mutex = self._mutex
        mutex.acquire()
        try:
            if page_id in held:
                raise LatchError(
                    f"thread already holds latch on page {page_id}; "
                    "latches are not re-entrant"
                )
            latch = self._latches[page_id]
            # Uncontended grant, inline (the overwhelmingly common case).
            if latch.x_holder is None and (
                mode is LatchMode.S or not latch.s_holders
            ):
                if mode is LatchMode.X:
                    latch.x_holder = me
                else:
                    latch.s_holders.add(me)
                held[page_id] = mode
                return
            self.counters.add("latch_waits")
            metrics = self.metrics
            wait_start = time.monotonic() if metrics is not None else 0.0
            latch.waiters += 1
            self._waiting += 1
            try:
                deadline = threading.TIMEOUT_MAX
                waited = 0.0
                while not self._grantable(latch, mode):
                    if not self._cond.wait(timeout=self.timeout):
                        raise LockTimeoutError(
                            f"latch wait on page {page_id} ({mode.value}) "
                            f"exceeded {self.timeout}s watchdog"
                        )
                    waited += self.timeout
                    if waited > deadline:  # pragma: no cover
                        break
            finally:
                latch.waiters -= 1
                self._waiting -= 1
                if metrics is not None:
                    metrics.histogram("latch_wait_seconds").record(
                        time.monotonic() - wait_start
                    )
            self._grant(latch, page_id, mode, me)
        finally:
            mutex.release()

    def try_acquire(self, page_id: int, mode: LatchMode) -> bool:
        """Conditional acquire; never blocks."""
        me = threading.get_ident()
        held = self._my_held()
        self.counters.local_shard()["latch_acquires"] += 1
        with self._cond:
            if page_id in held:
                raise LatchError(
                    f"thread already holds latch on page {page_id}"
                )
            latch = self._latches[page_id]
            if not self._grantable(latch, mode):
                return False
            self._grant(latch, page_id, mode, me)
            return True

    def release(self, page_id: int) -> None:
        me = threading.get_ident()
        try:
            held = self._local.held
        except AttributeError:
            held = self._my_held()
        mutex = self._mutex
        mutex.acquire()
        try:
            mode = held.pop(page_id, None)
            if mode is None:
                raise LatchError(
                    f"thread does not hold a latch on page {page_id}"
                )
            latch = self._latches[page_id]
            if mode is LatchMode.X:
                latch.x_holder = None
            else:
                latch.s_holders.discard(me)
            if not latch.s_holders and latch.x_holder is None:
                if latch.waiters == 0:
                    del self._latches[page_id]
            if self._waiting:
                self._cond.notify_all()
        finally:
            mutex.release()

    def release_all(self) -> None:
        """Release every latch the calling thread holds (error recovery)."""
        for page_id in list(self._my_held()):
            self.release(page_id)

    # ------------------------------------------------------------- inspection

    def held_by_me(self) -> dict[int, LatchMode]:
        return dict(self._my_held())

    def holds(self, page_id: int, mode: LatchMode | None = None) -> bool:
        held = self._my_held().get(page_id)
        if held is None:
            return False
        return mode is None or held is mode

    # -------------------------------------------------------------- internals

    def _grantable(self, latch: _Latch, mode: LatchMode) -> bool:
        if latch.x_holder is not None:
            return False
        if mode is LatchMode.X:
            return not latch.s_holders
        return True

    def _grant(
        self, latch: _Latch, page_id: int, mode: LatchMode, me: int
    ) -> None:
        if mode is LatchMode.X:
            latch.x_holder = me
        else:
            latch.s_holders.add(me)
        self._my_held()[page_id] = mode

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

from repro.errors import LatchError, LockTimeoutError
from repro.stats.counters import Counters


class LatchMode(enum.Enum):
    S = "S"
    X = "X"


# Bound once.  On CPython 3.11 ``EnumType`` defines ``__getattr__``, which
# puts every attribute read on an enum class (``LatchMode.X``) through a
# Python-level lookup hook, about 0.1 µs a read.  The per-request paths
# that test an enum member (latching, the descent, the node search,
# record encoding, commit) read a module constant bound like these.
LATCH_S, LATCH_X = LatchMode.S, LatchMode.X


class LatchManager:
    """S/X latches keyed by page id.  The table maps a latched page to
    its S-holder count, or ``-1`` while it is held X; an unlatched page
    has no entry.  Who holds what is each thread's ``held`` map."""

    # Optional hooks, set by EngineContext: ``metrics`` (when tracing is
    # on) records contended waits into the latch_wait_seconds histogram,
    # ``syncpoints`` is told ``latch.wait`` once per request that waits.
    metrics = None
    syncpoints = None

    def __init__(
        self,
        counters: Counters | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self.timeout = timeout
        self._latches: dict[int, int] = {}
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

    def acquire(
        self,
        page_id: int,
        mode: LatchMode,
        shard: dict[str, int] | None = None,
    ) -> None:
        """Block until the latch is granted (watchdog-bounded).

        ``shard`` is the calling thread's shard of the manager's counters
        when the caller already holds it (one page visit takes it once).
        """
        try:
            held = self._local.held
        except AttributeError:
            held = self._my_held()
        if shard is None:
            shard = self.counters.local_shard()
        shard["latch_acquires"] += 1
        latches = self._latches
        mutex = self._mutex
        mutex.acquire()
        try:
            if page_id in held:
                raise LatchError(
                    f"thread already holds latch on page {page_id}; "
                    "latches are not re-entrant"
                )
            state = latches.get(page_id, 0)
            exclusive = mode is LATCH_X
            if state < 0 or (exclusive and state):
                # Contended: the slow path.  ``latch.wait`` fires with the
                # mutex released, so a hook parked there stalls no other
                # latch; the state is read again after it.
                self.counters.add("latch_waits")
                if self.syncpoints is not None:
                    self.syncpoints.fire_unlocked(
                        mutex, "latch.wait", page=page_id, mode=mode.value
                    )
                metrics = self.metrics
                wait_start = time.monotonic() if metrics is not None else 0.0
                self._waiting += 1
                try:
                    while True:
                        state = latches.get(page_id, 0)
                        if state >= 0 and not (exclusive and state):
                            break
                        if not self._cond.wait(timeout=self.timeout):
                            raise LockTimeoutError(
                                f"latch wait on page {page_id} "
                                f"({mode.value}) exceeded {self.timeout}s "
                                "watchdog"
                            )
                finally:
                    self._waiting -= 1
                    if metrics is not None:
                        metrics.histogram("latch_wait_seconds").record(
                            time.monotonic() - wait_start
                        )
            latches[page_id] = -1 if exclusive else state + 1
            held[page_id] = mode
        finally:
            mutex.release()

    def try_acquire(self, page_id: int, mode: LatchMode) -> bool:
        """Conditional acquire; never blocks."""
        held = self._my_held()
        self.counters.local_shard()["latch_acquires"] += 1
        with self._mutex:
            if page_id in held:
                raise LatchError(
                    f"thread already holds latch on page {page_id}"
                )
            state = self._latches.get(page_id, 0)
            exclusive = mode is LATCH_X
            if state < 0 or (exclusive and state):
                return False
            self._latches[page_id] = -1 if exclusive else state + 1
            held[page_id] = mode
            return True

    def release(self, page_id: int) -> None:
        try:
            held = self._local.held
        except AttributeError:
            held = self._my_held()
        mutex = self._mutex
        mutex.acquire()
        try:
            if held.pop(page_id, None) is None:
                raise LatchError(
                    f"thread does not hold a latch on page {page_id}"
                )
            state = self._latches[page_id]
            if state > 1:
                self._latches[page_id] = state - 1
            else:
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

    def x_latched(self, page_id: int) -> bool:
        """Whether some thread holds ``page_id``'s latch X, read without
        the mutex: one dictionary read, the check :class:`Traversal
        <repro.btree.traversal.Traversal>` makes on each side of an
        unlatched read.  The answer may be stale by the time it returns;
        the caller's version check covers that."""
        return self._latches.get(page_id, 0) < 0

    def held_by_me(self) -> dict[int, LatchMode]:
        return dict(self._my_held())

    def holds(self, page_id: int, mode: LatchMode | None = None) -> bool:
        held = self._my_held().get(page_id)
        if held is None:
            return False
        return mode is None or held is mode

"""Lock manager: address locks, logical locks, instant duration, deadlock
detection.

The paper distinguishes (§2):

* **Address locks** — X locks on *page addresses* taken by split, shrink and
  rebuild top actions; held to the end of the top action.  The SPLIT/SHRINK
  page bits are "only an optimization of calls to the lock manager"
  (footnote 4): checking the bit replaces a conditional instant-duration S
  request here.
* **Logical locks** — row locks taken by inserts/deletes/scans as dictated
  by the isolation level.  Only these can deadlock (§6.5); the manager runs
  waits-for cycle detection at every block and aborts the requester with
  :class:`~repro.errors.DeadlockError` when it would close a cycle.
* **Instant-duration S** — how blocked writers wait for a top action to
  finish: request an unconditional instant S lock on the page, which is
  granted only once the top action's X lock is gone, then released
  immediately (§2.2).

Owners are transaction ids.  Requests are granted FIFO-fairly: a grantable
request still waits behind earlier incompatible waiters, which prevents
starvation of X requesters.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable

from repro.errors import DeadlockError, LockError, LockTimeoutError
from repro.stats.counters import Counters


# Both enums hash by identity: their members are singletons that compare
# by identity, and ``Enum.__hash__`` is a Python-level call made for every
# lock-table and held-set operation on a ``(space, resource)`` key.


class LockMode(enum.Enum):
    S = "S"
    X = "X"

    __hash__ = object.__hash__


class LockSpace(enum.Enum):
    ADDRESS = "address"   # page-address locks (split/shrink/rebuild)
    LOGICAL = "logical"   # row locks (isolation)

    __hash__ = object.__hash__


ResourceKey = tuple[LockSpace, Hashable]


@dataclass(eq=False, slots=True)
class _Request:
    txn_id: int
    mode: LockMode
    granted: bool = False


def _holders(queue: list[_Request]) -> set[int]:
    return {r.txn_id for r in queue if r.granted}


def _compatible(a: LockMode, b: LockMode) -> bool:
    return a is LockMode.S and b is LockMode.S


class LockManager:
    """FIFO S/X lock table with waits-for deadlock detection.  The table
    maps a resource to its queue of requests, granted and waiting; a
    resource nobody holds or waits for has no entry."""

    # Set by EngineContext: told ``lock.wait`` once per request that has
    # to wait (a queued acquire or an upgrade).
    syncpoints = None

    def __init__(
        self,
        counters: Counters | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.counters = counters if counters is not None else Counters()
        self.timeout = timeout
        self._table: dict[ResourceKey, list[_Request]] = {}
        # A plain Lock backs the condition, entered directly (C-level):
        # the manager's methods never nest.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._waiting = 0  # requests parked on the condition
        self._upgrading: dict[int, ResourceKey] = {}
        self._held: dict[int, set[ResourceKey]] = defaultdict(set)

    # ---------------------------------------------------------------- acquire

    def acquire(
        self,
        txn_id: int,
        space: LockSpace,
        resource: Hashable,
        mode: LockMode,
    ) -> None:
        """Unconditionally acquire; blocks; may raise DeadlockError."""
        key: ResourceKey = (space, resource)
        self.counters.add("lock_mgr_calls")
        with self._mutex:
            if (queue := self._table.get(key)) is None:
                self._table[key] = [_Request(txn_id, mode, granted=True)]
                self._held[txn_id].add(key)
                return
            existing = self._my_request(queue, txn_id)
            if existing is not None and existing.granted:
                if existing.mode is mode or existing.mode is LockMode.X:
                    return  # already held in same or stronger mode
                self._upgrade(key, queue, existing, txn_id)
                return
            req = _Request(txn_id, mode)
            queue.append(req)
            self._wait_for_grant(key, queue, req)

    def try_acquire(
        self,
        txn_id: int,
        space: LockSpace,
        resource: Hashable,
        mode: LockMode,
    ) -> bool:
        """Conditional acquire; never blocks."""
        key: ResourceKey = (space, resource)
        self.counters.add("lock_mgr_calls")
        with self._mutex:
            if (queue := self._table.get(key)) is None:
                self._table[key] = [_Request(txn_id, mode, granted=True)]
                self._held[txn_id].add(key)
                return True
            existing = self._my_request(queue, txn_id)
            if existing is not None and existing.granted:
                if existing.mode is mode or existing.mode is LockMode.X:
                    return True
                if len(_holders(queue)) == 1 and not any(
                    not r.granted for r in queue
                ):
                    existing.mode = LockMode.X
                    return True
                return False
            if self._grantable_now(queue, txn_id, mode):
                queue.append(_Request(txn_id, mode, granted=True))
                self._held[txn_id].add(key)
                return True
            return False

    def wait_instant(
        self,
        txn_id: int,
        space: LockSpace,
        resource: Hashable,
        mode: LockMode = LockMode.S,
    ) -> None:
        """Unconditional instant-duration lock: wait for grant, then drop.

        This is the §2.2 mechanism by which a writer blocks until a split,
        shrink, or rebuild top action holding the page's X address lock
        completes.  A lock the transaction already holds is left untouched
        (waiting on one's own top action would otherwise silently drop it).
        """
        if self.holds(txn_id, space, resource):
            return
        self.acquire(txn_id, space, resource, mode)
        self.release(txn_id, space, resource)

    # ---------------------------------------------------------------- release

    def release(
        self, txn_id: int, space: LockSpace, resource: Hashable
    ) -> None:
        key: ResourceKey = (space, resource)
        with self._mutex:
            if (queue := self._table.get(key)) is None:
                raise LockError(f"no lock table entry for {key}")
            req = self._my_request(queue, txn_id)  # a txn has one per key
            if req is None or not req.granted:
                raise LockError(
                    f"txn {txn_id} does not hold a lock on {key}"
                )
            queue.remove(req)
            if not queue:
                del self._table[key]
            self._held[txn_id].discard(key)
            if self._waiting:
                self._cond.notify_all()

    def release_all(self, txn_id: int, space: LockSpace | None = None) -> None:
        """Release every lock a transaction holds (in ``space``, or all)."""
        if txn_id not in self._held:
            # Lock-free fast path: entries for this txn are only ever added
            # by its own thread, so absence here is stable.
            return
        with self._mutex:
            held = self._held.get(txn_id)
            if not held:
                self._held.pop(txn_id, None)  # drop an empty leftover entry
                return
            keys = [k for k in held if space is None or k[0] is space]
        for key in keys:
            self.release(txn_id, key[0], key[1])

    # ------------------------------------------------------------- inspection

    def holds(
        self,
        txn_id: int,
        space: LockSpace,
        resource: Hashable,
        mode: LockMode | None = None,
    ) -> bool:
        key: ResourceKey = (space, resource)
        with self._mutex:
            queue = self._table.get(key)
            if queue is None:
                return False
            req = self._my_request(queue, txn_id)
            if req is None or not req.granted:
                return False
            return mode is None or req.mode is mode

    def held_resources(self, txn_id: int) -> set[ResourceKey]:
        with self._mutex:
            return set(self._held.get(txn_id, ()))

    # -------------------------------------------------------------- internals

    def _my_request(self, queue: list, txn_id: int) -> _Request | None:
        for r in queue:
            if r.txn_id == txn_id:
                return r
        return None

    def _grantable_now(
        self, queue: list[_Request], txn_id: int, mode: LockMode
    ) -> bool:
        """May a brand-new request be granted without queueing?

        Requires compatibility with every granted holder and an empty wait
        queue (FIFO fairness: never overtake an earlier waiter).
        """
        for r in queue:
            if r.txn_id == txn_id:
                continue
            if r.granted and not _compatible(r.mode, mode):
                return False
            if not r.granted:
                return False
        return True

    def _grantable_queued(self, queue: list[_Request], req: _Request) -> bool:
        """May a queued request be granted?

        Grant in queue order: ``req`` is grantable when every entry ahead of
        it (granted or still waiting) is mode-compatible, so a group of
        adjacent S waiters wakes together but never overtakes a waiting X.
        """
        for r in queue:
            if r is req:
                return True
            if not _compatible(r.mode, req.mode):
                return False
        return True

    def _fire_wait(self, key: ResourceKey, mode: LockMode) -> None:
        # The mutex is released around the fire; callers re-check state.
        if self.syncpoints is not None:
            self.syncpoints.fire_unlocked(
                self._mutex, "lock.wait", space=key[0].value,
                resource=key[1], mode=mode.value,
            )

    def _park(self) -> bool:
        # Counted, so that a release notifies only while someone waits.
        self._waiting += 1
        try:
            return self._cond.wait(timeout=self.timeout)
        finally:
            self._waiting -= 1

    def _dequeue(self, key: ResourceKey, queue: list, req: _Request) -> None:
        queue.remove(req)  # the request gave up waiting
        if not queue:
            self._table.pop(key, None)
        if self._waiting:
            self._cond.notify_all()

    def _wait_for_grant(
        self, key: ResourceKey, queue: list[_Request], req: _Request
    ) -> None:
        """Block ``req`` until grantable; detect deadlock; grant."""
        if not self._grantable_queued(queue, req):
            self._fire_wait(key, req.mode)
        while not self._grantable_queued(queue, req):
            if self._in_cycle(req.txn_id):
                self._dequeue(key, queue, req)
                raise DeadlockError(
                    f"txn {req.txn_id} chosen as deadlock victim on {key}"
                )
            self.counters.add("lock_waits")
            waited_from = time.perf_counter()
            signalled = self._park()
            self.counters.add(
                "lock_wait_us",
                int((time.perf_counter() - waited_from) * 1_000_000),
            )
            if not signalled:
                self._dequeue(key, queue, req)
                raise LockTimeoutError(
                    f"lock wait on {key} exceeded {self.timeout}s watchdog"
                )
        req.granted = True
        self._held[req.txn_id].add(key)
        # A grant may unblock compatible waiters queued right behind us.
        if self._waiting:
            self._cond.notify_all()

    def _upgrade(
        self, key: ResourceKey, queue: list, req: _Request, txn_id: int
    ) -> None:
        """S -> X upgrade; waits for other holders to drain."""
        self._upgrading[txn_id] = key
        try:
            if len(_holders(queue)) > 1:
                self._fire_wait(key, LockMode.X)
            while len(_holders(queue)) > 1:
                if self._in_cycle(txn_id):
                    raise DeadlockError(
                        f"txn {txn_id} deadlocked upgrading {key}"
                    )
                self.counters.add("lock_waits")
                if not self._park():
                    raise LockTimeoutError(
                        f"upgrade wait on {key} exceeded "
                        f"{self.timeout}s watchdog"
                    )
        finally:
            self._upgrading.pop(txn_id, None)
        req.mode = LockMode.X

    # The waits-for graph is derived *live* from the current queue state on
    # every check.  Cached edges go stale the moment a holder releases —
    # the waiter may not have been scheduled yet, and a stale edge then
    # manufactures a false deadlock (observed with instant-S waiters parked
    # behind a rebuild's X lock that was already released).

    def _blockers_live(self, txn_id: int) -> set[int]:
        """Transactions ``txn_id`` is genuinely blocked on right now."""
        out: set[int] = set()
        for key, queue in self._table.items():
            for req in queue:
                if req.txn_id != txn_id or req.granted:
                    continue
                for r in queue:
                    if r is req:
                        break
                    if r.txn_id != txn_id and not _compatible(
                        r.mode, req.mode
                    ):
                        out.add(r.txn_id)
            if self._upgrading.get(txn_id) == key:
                out |= _holders(queue) - {txn_id}
        return out

    def _in_cycle(self, start: int) -> bool:
        """DFS over the live waits-for graph for a cycle through start."""
        stack = list(self._blockers_live(start))
        seen: set[int] = set()
        while stack:
            txn = stack.pop()
            if txn == start:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(self._blockers_live(txn))
        return False

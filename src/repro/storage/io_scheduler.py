"""Asynchronous I/O pipeline for the online rebuild: read-ahead + write-behind.

The paper's wins come from amortizing per-page costs across batches —
multipage top actions (§4.3) and large-buffer I/O (§6.3).  This module
applies the same batching idea along the *time* axis:

* **Read-ahead.**  The scheduler tracks the rebuild's *position* in leaf
  order and keeps a window of leaves beyond it requested: ``window``
  leaves (``PIPELINE_WINDOW × ntasize``), capped by the room the pool
  reports for speculative frames (:meth:`BufferPool.readahead_room`) — a
  window the ring cannot hold is read only to be evicted unconsumed and
  read again.  The copy loop publishes its position *before* it reads a
  run (:meth:`IOScheduler.advance`); that only moves
  the position within the order the scheduler already knows — nothing is
  re-walked.  The order itself comes from the **level-1 child entries**
  (``leaf_order``, supplied by the rebuild: S-latch, copy the child ids,
  release), so upcoming aligned runs are known without reading a leaf and
  ``_READS_IN_FLIGHT`` reader threads keep that many run reads in the
  device at once, each aligned run claimed by one reader.  Level 1 is the
  only source of order: no reader follows a ``next_page`` pointer.  A
  level-1 read that meets a SHRINK bit blocking it or a busy latch learns
  nothing, and the window parks until a read lands, the position moves
  or the rebuild's top action ends (:meth:`IOScheduler.wake`).
  Read-ahead is purely a hint: it never evicts a dirty frame,
  never pins, never waits on a latch or an address lock, and a failure
  is counted (``prefetch_errors``) and dropped; the window requests each
  leaf it learns once.

* **Write-behind forcing.**  The §3 protocol forces each transaction's new
  pages to disk before the old pages are freed.  Serially that force sits on
  the critical path at every transaction boundary.  Here each completed top
  action hands its new leaves to the forcer (:meth:`IOScheduler.submit_write`),
  which writes them while the next top action is copying.  The transaction
  boundary then issues a **barrier** (:meth:`IOScheduler.force`) — carrying
  only what the rebuild kept back from write-behind — and waits on its
  :class:`CompletionToken`: the §3 invariant (new pages durable before old
  pages freed) holds exactly, the durability point has just been moved off
  the copy loop's critical path.  Eagerly cleaning new pages also means a
  pressured buffer pool evicts them for free instead of through
  one-page-per-call dirty writes.

  The unit of work is a **run**: at most ``pages_per_io`` contiguous page
  ids, i.e. one device call.  A submission is cut into runs as it is queued
  (:meth:`IOScheduler._split_tail`) and ``_WRITES_IN_FLIGHT`` writer
  threads take runs from the one queue, so that many calls sleep in the
  device at once — the mirror of the two readers; a forcer with a single
  call in the device is busy for (runs × service time) of every pass and
  every barrier waits for its backlog.  Cutting by run costs no call: the
  device would have moved the same ``pages_per_io`` pages per call out of
  one large ``write_many``.  A barrier is a **count**: the runs queued
  before it that are not durable yet; each one that lands takes one off,
  in whatever order the writers finish, and the token completes at zero
  (at once, on the caller's thread, when nothing is outstanding).

  The trailing partial run of a submission is retained (``_tail``) for
  the next submission to complete: flushing 33 contiguous pages with
  16-page I/O calls costs 3 calls, but flushing 32 now and the 33rd with
  the *next* submission costs the same 3 calls for more pages.  Only a
  barrier queues the tail as it is.

The scheduler fails safe: if any writer dies or the forcer is killed
mid-flight (:meth:`kill`, used by fault-injection tests), every pending and
future token fails with :class:`~repro.errors.IOSchedulerError` — whatever
the other writers still have in the device completes no token — and the
rebuild's abort path falls back to a synchronous ``flush_pages``: old pages
are never freed on the say-so of a force that did not complete.  A
simulated power failure on a writer (:class:`CrashPoint`) reaches every
waiter as itself.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro.concurrency.syncpoints import CrashPoint
from repro.errors import IOSchedulerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.page import NO_PAGE

_FORCE_TIMEOUT = 60.0  # seconds; a stuck writer surfaces as an error, not a hang
_READS_IN_FLIGHT = 2
"""Reader threads, i.e. run reads kept in the device at once.  Sized by
measurement (docs/performance.md, "Read budget of a pipelined rebuild"):
one reader caps a job at one device service time per run; a third only
adds interpreter-lock hand-offs and, on a small ring, admissions out of
consumption order."""
_WRITES_IN_FLIGHT = 4
"""Writer threads, i.e. disk runs kept in the device at once.  Sized by
measurement (docs/performance.md, "Write budget of a pipelined rebuild"):
one writer is busy for most of a pass and every transaction boundary
waits for its backlog; the step from two to four still shortens the
barrier waits of the job that runs under foreground traffic; beyond four
the copy thread, not the device, bounds the pass."""
_READER_JOIN_TIMEOUT = 2.0
"""Seconds ``close`` / ``kill`` wait for a reader: it holds no durability
obligation, so one parked in a device call is left to finish on its own
(it exits as soon as the call returns) rather than holding shutdown."""

LeafOrder = Callable[[bytes, int], "tuple[list[int], bytes | None] | None"]
"""``leaf_order(unit, count)``: about ``count`` leaf ids in chain order
starting with the leaf whose range holds ``unit``, plus the unit to
continue from (``None`` at the right edge of the index) — or ``None``
when the order cannot be read right now."""


class CompletionToken:
    """Handle for one completion another thread waits on: the
    write-behind forcer hands one out per barrier."""

    __slots__ = ("_event", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._error: BaseException | None = None

    def complete(self) -> None:
        """Mark the token done (wakes every waiter)."""
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set() and self._error is None

    def wait(self, timeout: float = _FORCE_TIMEOUT) -> None:
        """Block until the barrier's pages are durable.

        Raises :class:`IOSchedulerError` if the writer died, was killed, or
        did not finish within ``timeout`` — the caller must then force the
        pages synchronously before freeing anything.  A simulated power
        failure on the writer thread is one for the waiter too: it comes
        back as the :class:`CrashPoint` it is, never as an error to clean
        up after.
        """
        if not self._event.wait(timeout):
            raise IOSchedulerError(
                f"write-behind force did not complete within {timeout:.0f}s"
            )
        if isinstance(self._error, CrashPoint):
            raise CrashPoint(self._error.name) from self._error
        if self._error is not None:
            raise IOSchedulerError(
                f"write-behind force failed: {self._error!r}"
            ) from self._error


class _Barrier:
    """An open barrier: ``remaining`` of the runs numbered below ``upto``
    are not durable yet (guarded by the scheduler's condition)."""

    __slots__ = ("upto", "remaining", "token")

    def __init__(self, upto: int, remaining: int, token: CompletionToken) -> None:
        self.upto = upto
        self.remaining = remaining
        self.token = token


class _Window:
    """The read-ahead state; every field is guarded by the scheduler's
    condition.

    ``order`` is the known leaf order from the rebuild's position on
    (``order[0]`` is the leaf it reads next, never absent) and ``issued``
    how many of its leading entries have been handed to a reader.
    ``resume`` is the unit at which the next level-1 read continues the
    order exactly; ``None`` means the next one re-anchors from the
    position (``unit``) and splices behind the order's tail.
    """

    __slots__ = (
        "unit", "order", "issued", "resume", "end", "busy", "stuck", "epoch",
    )

    def __init__(self, leaf: int, unit: bytes | None) -> None:
        self.order: deque[int] = deque()
        self.epoch = 0
        self.busy = False  # a reader is extending ``order``
        self.reset(leaf, unit)

    def reset(self, leaf: int, unit: bytes | None) -> None:
        """Start over at ``leaf``: nothing known beyond it, nothing
        requested.  The epoch bump voids an extension in progress."""
        self.unit = unit
        self.order.clear()
        self.order.append(leaf)
        self.issued = 0
        self.resume: bytes | None = None
        self.end = False  # ``order`` reaches the end of the leaf chain
        # The last extension learned nothing (level 1 could not be read):
        # wait for a read to finish, the position to move or a wake-up
        # instead of spinning.
        self.stuck = False
        self.epoch += 1


class IOScheduler:
    """Background readers (read-ahead) + writers (write-behind) over a pool.

    ``window`` is how many leaves beyond the rebuild's position
    read-ahead keeps requested, before the cap by the pool's room (see
    the module docstring); ``leaf_order`` is where the order of upcoming
    leaves comes from (``None``: nothing beyond the position).  Write
    submissions are never dropped (they carry durability obligations);
    the writers take them off one queue a run at a time, so runs become
    durable in any order and only a barrier says "all of these".
    """

    def __init__(
        self,
        buffer: BufferPool,
        counters: Counters | None = None,
        window: int = 1,
        leaf_order: LeafOrder | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if window < 1:
            raise IOSchedulerError("io scheduler window must be >= 1")
        self.buffer = buffer
        self.counters = counters if counters is not None else Counters()
        self.window = window
        self.tracer = tracer
        self._leaf_order = leaf_order
        self._cv = threading.Condition()
        # Write side.  Runs are numbered in queue order; a run is in
        # ``_runs`` until a writer takes it and in ``_in_device`` until it
        # is durable.
        self._runs: deque[tuple[int, list[int]]] = deque()
        self._queued = 0  # runs numbered so far
        self._in_device = 0
        self._barriers: list[_Barrier] = []
        self._tail: list[int] = []  # retained trailing partial physical run
        self._window: _Window | None = None  # set by the first advance
        self._reading: set[int] = set()  # aligned runs a reader has claimed
        # Bumped whenever a read or an extension ends, the position moves
        # or a wake-up comes: an extension that learned nothing parks its
        # window (``stuck``) only if none of that happened while it was
        # looking.
        self._news = 0
        self._stop = False
        self._killed = False
        self._broken: BaseException | None = None
        self._writers: list[threading.Thread] = []
        self._readers: list[threading.Thread] = []

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "IOScheduler":
        self._writers = [
            threading.Thread(
                target=self._writer_loop, name=f"io-writer-{i}", daemon=True
            )
            for i in range(_WRITES_IN_FLIGHT)
        ]
        self._readers = [
            threading.Thread(
                target=self._reader_loop, name=f"io-reader-{i}", daemon=True
            )
            for i in range(_READS_IN_FLIGHT)
        ]
        for t in (*self._writers, *self._readers):
            t.start()
        return self

    def close(self) -> None:
        """Drain queued writes (best effort), stop every thread, join."""
        try:
            if self._broken is None and not self._killed:
                self.drain()
        except IOSchedulerError:
            pass
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        self._join()

    def kill(self) -> None:
        """Fault injection: the forcer dies *now*, failing all pending
        tokens, as if the I/O threads crashed mid-transaction; what a
        writer still has in the device completes nothing.  The readers
        go with it."""
        with self._cv:
            self._killed = True
            self._fail_pending_locked(
                IOSchedulerError("io scheduler writer was killed")
            )
        self._join()

    def _join(self) -> None:
        """Join the readers (briefly: they owe nothing) and every writer
        (within the force timeout: one may be finishing a device call)."""
        for t in self._readers:
            t.join(timeout=_READER_JOIN_TIMEOUT)
        deadline = time.monotonic() + _FORCE_TIMEOUT
        for t in self._writers:
            if t is not threading.current_thread():
                t.join(timeout=max(0.0, deadline - time.monotonic()))

    # ----------------------------------------------------------------- writes

    def submit_write(self, page_ids: list[int]) -> None:
        """Queue pages for background forcing (no completion guarantee yet).

        Called after each top action commits with the pages that are
        immutable for the rest of the rebuild transaction (the caller
        keeps back what is not — the last leaf, which the next top action
        fills as its PP — for the barrier), so they can be written any
        time between now and the transaction boundary's barrier.
        """
        if not page_ids:
            return
        with self._cv:
            if self._stop or self._killed or self._broken is not None:
                return  # the barrier will fail / fall back synchronously
            self._queue_locked(page_ids, hold_tail=True)

    def force(self, page_ids: list[int]) -> CompletionToken:
        """Barrier: queue ``page_ids`` and return a token whose ``wait``
        returns only when *every* write queued so far (including the
        retained tail) is durable."""
        token = CompletionToken()
        with self._cv:
            if self._stop or self._killed or self._broken is not None:
                token._fail(
                    self._broken
                    if self._broken is not None
                    else IOSchedulerError("io scheduler is stopped")
                )
                return token
            self._queue_locked(page_ids, hold_tail=False)
            outstanding = len(self._runs) + self._in_device
            if outstanding:
                self._barriers.append(
                    _Barrier(self._queued, outstanding, token)
                )
            else:
                token.complete()
        self.counters.add("writebehind_forces")
        return token

    def _queue_locked(self, page_ids: list[int], hold_tail: bool) -> None:
        """Cut the retained tail plus ``page_ids`` into runs and queue
        them (condition held); with ``hold_tail`` the trailing partial
        run stays behind for the next call to complete."""
        runs, tail = self._split_tail(self._tail + list(page_ids))
        if tail and not hold_tail:
            runs.append(tail)
            tail = []
        self._tail = tail
        for run in runs:
            self._runs.append((self._queued, run))
            self._queued += 1
        if runs:
            self._cv.notify_all()

    def drain(self) -> None:
        """Flush everything queued (tail included) and wait for it."""
        self.force([]).wait()

    # -------------------------------------------------------------- read-ahead

    def advance(self, leaf: int, unit: bytes | None = None) -> None:
        """Hint: the rebuild reads ``leaf`` next (``unit`` is a key unit
        in its range, ``None`` when the caller has none).

        Call *before* reading the run that starts at ``leaf``.  Within the
        order the scheduler already knows this only moves the position —
        what was requested stays requested, nothing resident is walked
        again; a leaf outside it (first call, a resume, a chain rearranged
        under the window) starts the window over from here.
        """
        if leaf == NO_PAGE:
            return
        with self._cv:
            if self._stop or self._killed:
                return
            w = self._window
            if w is None:
                w = self._window = _Window(leaf, unit)
            try:
                at = w.order.index(leaf)
            except ValueError:
                w.reset(leaf, unit)
            else:
                for _ in range(at):
                    w.order.popleft()
                w.issued = max(0, w.issued - at)
                w.unit, w.stuck = unit, False
            self._news += 1
            self._cv.notify_all()

    def wake(self) -> None:
        """The rebuild's top action is over, and with it the latches and
        bits it held on level 1: a window parked on them reads it again."""
        with self._cv:
            if self._window is not None:
                self._window.stuck = False
            self._news += 1
            self._cv.notify_all()

    def wait_readahead(self, timeout: float = _FORCE_TIMEOUT) -> bool:
        """Block until read-ahead has nothing left to do — the window
        requested up to its cap (or the end of the chain) and no read in
        the device.  The read side's counterpart of :meth:`drain`, for
        tests and measurements; returns False on timeout."""
        with self._cv:
            return self._cv.wait_for(self._readahead_idle, timeout)

    def _window_cap(self) -> tuple[int, int]:
        """(leaves the window may hold, the pool's room)."""
        room = self.buffer.readahead_room()
        return max(1, min(self.window, room)), room

    def _readahead_idle(self) -> bool:
        w = self._window
        if w is None:
            return not self._reading
        if self._reading or w.busy:
            return False
        cap = self._window_cap()[0]
        return w.issued >= min(cap, len(w.order)) and (
            w.issued >= cap or w.end or w.stuck
        )

    # ----------------------------------------------------------- writer loops

    def _writer_loop(self) -> None:
        """Take one run at a time off the queue and make it durable.
        The first failure (or a kill) fails every barrier, open or
        future, and ends every writer."""
        while True:
            with self._cv:
                while not (
                    self._runs or self._stop or self._killed
                    or self._broken is not None
                ):
                    self._cv.wait()
                if self._killed or self._broken is not None or not self._runs:
                    return
                number, ids = self._runs.popleft()
                self._in_device += 1
            try:
                # The pool's retry budget is the only one: a run that still
                # fails after it fails every barrier, and the rebuild's
                # abort path flushes synchronously through the pool.
                self.buffer.flush_pages(ids)
            except BaseException as exc:  # noqa: BLE001 - must fail tokens
                with self._cv:
                    self._fail_pending_locked(exc)
                return
            shard = self.counters.local_shard()
            shard["writebehind_batches"] += 1
            shard["writebehind_pages"] += len(ids)
            with self._cv:
                self._in_device -= 1
                if self._killed or self._broken is not None:
                    return
                self._landed_locked(number)

    def _landed_locked(self, number: int) -> None:
        """Run ``number`` is durable: one off every barrier queued after
        it; a barrier with none left completes."""
        still_open = []
        for barrier in self._barriers:
            if number < barrier.upto:
                barrier.remaining -= 1
                if barrier.remaining == 0:
                    barrier.token.complete()
                    continue
            still_open.append(barrier)
        self._barriers = still_open

    def _fail_pending_locked(self, exc: BaseException) -> None:
        if self._broken is None:
            self._broken = exc
        self._runs.clear()
        self._tail = []
        for barrier in self._barriers:
            barrier.token._fail(exc)
        self._barriers = []
        self._cv.notify_all()

    def _split_tail(self, ids: list[int]) -> tuple[list[list[int]], list[int]]:
        """Cut ``ids`` into (runs, retained tail).  A run is what one
        device call moves: up to ``pages_per_io`` consecutive ids, counted
        from the start of each contiguous stretch as ``Disk.write_many``
        does.  The tail is the trailing *partial* run of the final
        stretch — the next contiguous submission can complete it into a
        full-size call instead of paying a rounded-up call now."""
        ppio = self.buffer.disk.pages_per_io
        runs: list[list[int]] = []
        for pid in sorted(set(ids)):
            if runs and runs[-1][-1] == pid - 1 and len(runs[-1]) < ppio:
                runs[-1].append(pid)
            else:
                runs.append([pid])
        if runs and len(runs[-1]) < ppio:
            return runs[:-1], runs[-1]
        return runs, []

    # ----------------------------------------------------------- reader loops

    def _claim(self, cap: int) -> tuple[int | None, list[int] | tuple] | None:
        """Next piece of read-ahead work (condition held), or ``None``.

        Either ``(run, leaves)`` — the unrequested leaves of one aligned
        run, now this reader's to request — or ``(None, extension)`` when
        the window's known order ends short of its cap and must be
        extended first.
        """
        w = self._window
        if w is None:
            return None
        ppio = self.buffer.disk.pages_per_io
        order = w.order
        known = min(cap, len(order))
        if w.issued < known:
            first = w.issued
            run = (order[first] - 1) // ppio
            if run in self._reading:
                # Another reader is on this run (a chain that comes
                # back to it): whether it read it or found it cached
                # is known when it is done, which wakes this one.
                return None
            w.issued += 1
            while w.issued < known and (order[w.issued] - 1) // ppio == run:
                w.issued += 1
            self._reading.add(run)
            return run, [order[i] for i in range(first, w.issued)]
        if (
            w.issued == len(order)
            and w.issued < cap
            and not (w.end or w.busy or w.stuck)
        ):
            w.busy = True
            # A re-anchoring read starts at the position, so it has
            # the requested part of the window to get past first.
            count = cap if w.resume is None else cap - w.issued
            return None, (
                w.epoch, self._news, w.resume, w.unit, order[-1], count,
            )
        return None

    def _request(self, leaves: list[int]) -> str:
        """Ask the pool for the leaves of one aligned run, stopping at the
        first physical read (it brings in the whole run).  Returns the
        span attribute the outcome counts under."""
        for pid in leaves:
            if self.buffer.prefetch(pid):
                return "requested"
        return "skipped"

    def _extend(
        self, resume: bytes | None, unit: bytes | None, tail: int, count: int
    ) -> tuple[list[int], bytes | None, bool]:
        """Learn the leaves behind ``tail``, the last one known, from
        level 1.  Returns (leaves, the unit the next level-1 read
        continues from, whether the order now reaches the chain's end);
        nothing learned when level 1 cannot be read now (a SHRINK bit
        that blocks it or a busy latch on the way)."""
        start = resume if resume is not None else unit
        if start is None or self._leaf_order is None:
            return [], None, False
        found = self._leaf_order(start, count)
        if found is None:
            return [], None, False
        leaves, resume_at = found
        if resume is None and tail in leaves:
            # Read from the position, which is the tail: splice in behind
            # it.  A position the rebuild has replaced already is not
            # among the children; they all lie ahead of it.
            leaves = leaves[leaves.index(tail) + 1:]
        return leaves, resume_at, resume_at is None

    def _reader_loop(self) -> None:
        tracer = self.tracer
        span = None
        while True:
            with self._cv:
                while not (self._stop or self._killed):
                    cap, room = self._window_cap()
                    work = self._claim(cap)
                    if work is not None:
                        break
                    if span is not None:
                        tracer.finish(span)
                        span = None
                    self._cv.wait()
                else:
                    if span is not None:
                        tracer.finish(span)
                    return
            run, arg = work
            w = self._window
            if tracer.enabled and span is None:
                # One span per stretch of work.
                span = tracer.begin(
                    "iosched.readahead", requested=0, skipped=0,
                    window=cap, room=room,
                )
            grown = None
            try:
                if run is None:
                    epoch, news, *how = arg
                    grown = self._extend(*how)
                else:
                    outcome = self._request(arg)
                    if span is not None:
                        span.attrs[outcome] += 1
            except Exception:  # noqa: BLE001 - read-ahead is only a hint
                # A failed prefetch never fails the rebuild: its own
                # demand fetch meets the same page and raises for real.
                self.counters.add("prefetch_errors")
            finally:
                with self._cv:
                    w.stuck = False
                    if run is not None:
                        self._reading.discard(run)
                    else:
                        w.busy = False
                        learned = False
                        if grown is not None and w.epoch == epoch:
                            leaves, w.resume, w.end = grown
                            w.order.extend(leaves)
                            learned = bool(
                                leaves or w.end or w.resume is not None
                            )
                        # What it saw may be stale already (the read it
                        # found in flight has landed): park the window
                        # only if nothing moved in the meantime.
                        w.stuck = not learned and self._news == news
                    self._news += 1
                    self._cv.notify_all()

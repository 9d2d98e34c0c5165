"""Write budget of a pipelined rebuild, as deterministic guards.

§6.3 prices the write side of a rebuild at one pass over the new pages
through ``pages_per_io``-page buffers, and §3 asks only that they be
durable before the old pages are freed.  The ``tuned`` profile's forcer
exists to take that pass off the copy thread.  These tests hold the
design to it without a sleep anywhere: the device is a :class:`GatedDisk`
whose writes park in ``_service`` until the test lets them through.

The pass measured is the one ``oltp_rebuild`` repeats — a warm second
pass on a pool that holds the index, after committed foreground inserts
left some old leaves with a logged change no write has stored:

(a) the copy thread makes no device call inside ``BufferPool.new_page``
    (nor any write at all): a recycled id's resident previous
    incarnation is dropped, not written;
(b) ``_WRITES_IN_FLIGHT`` distinct runs are in the device at once, and
    no page is ever in two calls at once;
(c) a barrier returns only when every page the transaction forces is
    stored with the image the pool holds, and no page changes between
    the moment write-behind is handed it and that barrier (a writer
    serializes without the page's latch);
(d) the pass costs one call per ``pages_per_io`` new pages plus a
    couple per transaction — a top action's last leaf, kept back while
    the next one fills it as its PP, goes out with that one's leaves,
    one contiguous stretch — and every new page is written once;
(e) at one worker the scheduler's own counters repeat exactly.
"""

from __future__ import annotations

import threading

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.errors import PermanentIOError
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.io_scheduler import _WRITES_IN_FLIGHT, IOScheduler
from repro.workload.builder import bulk_load
from tests.conftest import intkey

WAIT = 30.0  # bound on every wait below; none of them is expected to expire

TUNED = RebuildConfig(fillfactor=0.7)
"""Run under the ``pipelined`` fixture: the I/O mode a rebuild picks by
itself on a slow device, here on a device the test gates instead."""
KEYS = 60_000
SLACK_CALLS = 4
"""Calls of a pass beyond its runs and two per transaction (its nonleaf
pages, a PP that was an earlier transaction's leaf): a stretch of new ids
broken at a chunk edge."""


class GatedDisk(Disk):
    """The engine's disk with a device the test can hold, recording every
    call with the thread that issued it and the pages it moves; a write
    that carries the ``poison`` page fails for good."""

    def arm(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.changed = threading.Condition()
        self.in_service: list[frozenset[int]] = []  # writes in the device
        self.calls: list[tuple[str, str, bool]] = []  # (thread, op, in new_page)
        self.overlaps: list[tuple[frozenset[int], frozenset[int]]] = []
        self.here = threading.local()
        self.holds: int | None = None  # writes a closed gate holds; None: all
        self.poison: int | None = None

    def _note(self, op: str) -> None:
        self.calls.append((
            threading.current_thread().name, op,
            getattr(self.here, "in_new_page", False),
        ))

    def read(self, page_id):
        self._note("read")
        return super().read(page_id)

    def read_run(self, start_page, count):
        self._note("read_run")
        return super().read_run(start_page, count)

    def write(self, page_id, data):
        self._note("write")
        self.here.writing = frozenset([page_id])
        try:
            super().write(page_id, data)
        finally:
            self.here.writing = None

    def write_many(self, items):
        if self.poison in items:
            raise PermanentIOError(f"page {self.poison}: medium error")
        self._note("write_many")
        self.here.writing = frozenset(items)
        try:
            super().write_many(items)
        finally:
            self.here.writing = None

    def _service(self, calls):
        pages = getattr(self.here, "writing", None)
        if pages is None:
            return super()._service(calls)
        with self.changed:
            self.overlaps += [
                (pages, other) for other in self.in_service if pages & other
            ]
            self.in_service.append(pages)
            self.changed.notify_all()
            held = self.holds is None or len(self.in_service) <= self.holds
        assert not held or self.gate.wait(WAIT)
        with self.changed:
            self.in_service.remove(pages)

    def parked(self, writes: int) -> bool:
        """Wait until exactly ``writes`` writes sleep in the device."""
        with self.changed:
            return self.changed.wait_for(
                lambda: len(self.in_service) == writes, WAIT
            )


TOUCHED = 12


def warm_index():
    """A bulk-loaded half-full index after one ``tuned`` pass, on a pool
    that holds it and a gated device.  ``TOUCHED`` of the leaves that
    pass freed had taken a committed insert first, and as many of the
    leaves it built have since.  Returns (engine, tree, disk)."""
    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=8192
    )
    tree = bulk_load(engine, [intkey(2 * i) for i in range(KEYS)], 4, fill=0.5)
    engine.checkpoint()
    for round_ in (0, 1):
        for i in range(round_, KEYS, KEYS // TOUCHED):
            tree.insert(intkey(2 * i + 1), KEYS + i)
        if round_ == 0:
            OnlineRebuild(tree, TUNED).run()
    disk = engine.ctx.disk
    disk.__class__ = GatedDisk
    disk.arm()
    return engine, tree, disk


def note_new_page(monkeypatch, disk: GatedDisk) -> None:
    new_page = BufferPool.new_page

    def noting(pool, page_id, scan=False):
        disk.here.in_new_page = True
        try:
            return new_page(pool, page_id, scan)
        finally:
            disk.here.in_new_page = False

    monkeypatch.setattr(BufferPool, "new_page", noting)


# ------------------------------------------------------- (a), (c), (d), (e)


def warm_pass(monkeypatch):
    engine, tree, disk = warm_index()
    note_new_page(monkeypatch, disk)
    pool = engine.buffer
    unstored: list[int] = []
    handed: dict[int, int] = {}  # page -> its page_lsn as write-behind took it
    submit_write = IOScheduler.submit_write

    def page_lsn(pid: int) -> int:
        try:
            return pool.fetch(pid).page_lsn
        finally:
            pool.unpin(pid)

    def noting(sched, page_ids) -> None:
        handed.update((pid, page_lsn(pid)) for pid in page_ids)
        submit_write(sched, page_ids)

    monkeypatch.setattr(IOScheduler, "submit_write", noting)

    def compare(ctx: dict) -> None:
        # The barrier has returned: what it covered is on disk as the
        # pool holds it (nothing else is running to change a page since).
        for pid in ctx["new_pages"]:
            page = pool.fetch(pid)
            try:
                if disk.read_physical(pid) != disk.seal(page.to_bytes()):
                    unstored.append(pid)
            finally:
                pool.unpin(pid)
        # And nothing write-behind was handed changed under a writer.
        unstored.extend(
            pid for pid, lsn in handed.items() if page_lsn(pid) != lsn
        )
        handed.clear()

    engine.syncpoints.on("rebuild.txn_flushed", compare)
    before = engine.counters.snapshot()
    report = OnlineRebuild(tree, TUNED).run()
    engine.syncpoints.remove("rebuild.txn_flushed", compare)
    delta = engine.counters.diff(before)
    tree.verify()
    return report, delta, disk, unstored


def test_warm_pass_writes_once_behind_the_copy_thread(monkeypatch, pipelined):
    report, delta, disk, unstored = warm_pass(monkeypatch)
    pages = report.leaf_pages_rebuilt
    assert pages > 400 and report.top_actions > 12

    # (a) recycled ids whose dead image was resident with a logged change
    # no write had stored — a foreground insert, or the prev-link update
    # of a run's first leaf — and not one call to drop them.
    assert delta["pool_dead_images_dropped"] >= TOUCHED + report.top_actions // 2
    copy_thread = threading.current_thread().name
    assert not [call for call in disk.calls if call[2]]
    assert not [
        call for call in disk.calls
        if call[0] == copy_thread and call[1].startswith("write")
    ]
    assert {t for t, op, _ in disk.calls if op.startswith("write")} <= {
        f"io-writer-{i}" for i in range(_WRITES_IN_FLIGHT)
    }
    assert not disk.overlaps  # (b), over the whole pass

    # (c)
    assert unstored == []

    # (d) one write pass: a call per run of new pages, a couple per
    # transaction — not one per top action.
    new_pages = delta["new_pages_allocated"]
    ppio = disk.pages_per_io
    beyond_runs = 2 * report.transactions + SLACK_CALLS
    assert beyond_runs < report.top_actions
    assert delta["disk_io_calls"] <= -(-new_pages // ppio) + beyond_runs
    assert delta["disk_pages_written"] <= new_pages + beyond_runs

    # (e) every transaction forced once (and the closing drain), every
    # run queued flushed.
    assert delta["writebehind_forces"] == report.transactions + 1
    assert delta["writebehind_pages"] >= new_pages
    assert delta["writebehind_batches"] >= new_pages // ppio


def test_scheduler_counters_repeat_exactly_at_one_worker(monkeypatch, pipelined):
    names = ("writebehind_batches", "writebehind_pages", "writebehind_forces")
    seen = set()
    for _ in range(2):
        _report, delta, _disk, _unstored = warm_pass(monkeypatch)
        seen.add(tuple(delta[name] for name in names))
    assert len(seen) == 1, seen


# ------------------------------------------------------------------- (b)


def dirty_pages(pool: BufferPool, ids: range) -> None:
    for pid in ids:
        page = pool.new_page(pid)
        page.page_lsn = 0
        pool.unpin(pid, dirty=True)


def test_writes_in_flight_distinct_runs_and_a_barrier_that_counts():
    engine = Engine(page_size=2048, io_size=16384, buffer_capacity=256)
    pool, disk = engine.buffer, engine.ctx.disk
    disk.__class__ = GatedDisk
    disk.arm()
    ppio = disk.pages_per_io
    runs = _WRITES_IN_FLIGHT + 2
    dirty_pages(pool, range(1, runs * ppio + 1))
    sched = IOScheduler(pool, counters=engine.counters).start()
    try:
        disk.gate.clear()
        sched.submit_write(list(range(1, runs * ppio + 1)))
        assert disk.parked(_WRITES_IN_FLIGHT)
        held = list(disk.in_service)
        # Every writer is parked in the device, each on a run of its own.
        assert _WRITES_IN_FLIGHT >= 2
        assert all(len(run) == ppio for run in held)
        assert len(frozenset().union(*held)) == _WRITES_IN_FLIGHT * ppio
        # A barrier queued now waits for all of it: the runs in the device
        # and the ones still queued — and for nothing queued after it.
        token = sched.force([])
        assert not token.done
        late = range(runs * ppio + 1, (runs + 1) * ppio + 1)
        dirty_pages(pool, late)
        disk.gate.set()
        token.wait(WAIT)
        assert all(disk.exists(pid) for pid in range(1, runs * ppio + 1))
        disk.gate.clear()
        sched.submit_write(list(late))
        with disk.changed:
            assert disk.changed.wait_for(lambda: disk.in_service, WAIT)
        assert token.done  # the earlier barrier owes the later run nothing
        disk.gate.set()
    finally:
        disk.gate.set()
        sched.close()
    assert not disk.overlaps
    assert all(disk.exists(pid) for pid in late)

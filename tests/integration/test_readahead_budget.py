"""Read budget of a pipelined rebuild, as deterministic guards.

The ``tuned`` profile's reader threads exist to hide the one sequential
read of the old leaves (§6.3) behind copy CPU.  These tests hold the
read-ahead design to that, without a sleep anywhere: the device is a
:class:`GatedDisk` whose run reads park in ``_service`` until the test
lets them through, and "the window is full" is awaited on the
scheduler's own condition (:meth:`IOScheduler.wait_readahead`).

(a) two distinct aligned runs are in the device at once, never one twice;
(b) with the window full, a top action's source reads cost the copy
    thread no physical call (``rebuild_demand_reads``);
(c) the window never exceeds the pool's ``readahead_room()`` and is
    requested past half of it, and ``prefetch_unused`` stays under a bound
    measured on the one-lock pool;
(d) a SHRINK bit on the level-1 page parks read-ahead at the position's
    own run, never in an address-lock wait, and the window fills from
    level 1 once the bit is gone;
(e) the leaf order read off level 1 equals the ``next_page`` chain on a
    tree fragmented by random inserts, deletes, splits and shrinks;
(f) a root whose §6.2 range side entry lies left of the position lets
    level 1 be read, one whose range covers it does not;
(g) level-1 reads chained by the bound each returns — in both of
    :meth:`Traversal.level1`'s modes — visit every leaf once, in chain
    order, each within its bounds, also across a parked nonleaf split.
"""

from __future__ import annotations

import functools
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, OnlineRebuild
from repro.btree import node
from repro.btree.traversal import AccessMode, Traversal
from repro.concurrency.locks import LockMode, LockSpace
from repro.core.copy_phase import level1_leaf_order
from repro.storage.disk import Disk
from repro.storage.io_scheduler import _READS_IN_FLIGHT, IOScheduler
from repro.concurrency.syncpoints import Rendezvous
from repro.storage.page import NO_PAGE, PageFlag
from repro.workload.builder import bulk_load
from tests.conftest import intkey

WAIT = 30.0  # bound on every wait below; none of them is expected to expire

PREFETCH_UNUSED_BOUND = 400
"""``prefetch_unused`` on the configuration of (c), at zero device
latency.  140 runs of the one-lock pool: 0 in 91, at most 100 in 137,
and 223, 296 and 298 once each; the four-shard pool with the consumption
watermark before it read 35–160 (10 runs), and the one-shot hint per top
action before that 473–710 (6 runs).  Writing the window off as it
fills — what the watermark did at every run, and what an uncapped window
does — reads far above the bound."""


class GatedDisk(Disk):
    """The engine's disk with a device the test can hold.

    While the gate is closed a run read parks in ``_service`` — where a
    real device would be seeking — until the test opens it.  Every run
    read is recorded with the thread that issued it.
    """

    def arm(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.changed = threading.Condition()
        self.in_service: list[int] = []  # run starts in the device now
        self.history: list[tuple[int, str]] = []  # (run start, thread)
        self._reading_run = threading.local()

    def read_run(self, start_page, count):
        self._reading_run.start = start_page
        try:
            return super().read_run(start_page, count)
        finally:
            self._reading_run.start = None

    def _service(self, calls):
        start = getattr(self._reading_run, "start", None)
        if start is None:
            return super()._service(calls)
        with self.changed:
            self.in_service.append(start)
            self.history.append((start, threading.current_thread().name))
            self.changed.notify_all()
        assert self.gate.wait(WAIT)
        with self.changed:
            self.in_service.remove(start)


def cold_index(keys: int, **engine_knobs):
    """A bulk-loaded half-full index on a cold pool and a gated device.
    Returns (engine, tree, disk, leaf ids in chain order)."""
    engine = Engine(page_size=2048, io_size=16384, **engine_knobs)
    tree = bulk_load(engine, [intkey(2 * i) for i in range(keys)], 4, fill=0.5)
    chain = list(tree.verify().leaf_page_ids)
    engine.checkpoint()
    engine.buffer.evict_all()
    disk = engine.ctx.disk
    disk.__class__ = GatedDisk
    disk.arm()
    return engine, tree, disk, chain


def scheduler_for(engine, tree, window: int) -> IOScheduler:
    ctx = engine.ctx
    return IOScheduler(
        ctx.buffer, counters=ctx.counters, window=window,
        leaf_order=functools.partial(level1_leaf_order, ctx, tree),
    ).start()


# ------------------------------------------------------------------- (a)


def test_two_distinct_runs_in_the_device_and_never_the_same_run_twice():
    engine, tree, disk, chain = cold_index(40_000, buffer_capacity=2048)
    assert len(chain) > 256
    # As in a rebuild, whose position discovery descends to the first
    # leaf before the first hint: the nonleaf path is resident (the root
    # shares an aligned run with the first leaves, and a level-1 read
    # behind a held read of that run would wait for it).
    assert leaf_covering(engine.ctx, tree, b"") == chain[0]
    sched = scheduler_for(engine, tree, window=128)
    try:
        disk.gate.clear()
        sched.advance(chain[0], b"")
        with disk.changed:
            assert disk.changed.wait_for(
                lambda: len(disk.in_service) == _READS_IN_FLIGHT, WAIT
            )
            held = list(disk.in_service)
        # Every reader is parked in the device, each on a run of its own.
        assert _READS_IN_FLIGHT == 2 and len(set(held)) == 2
        with sched._cv:
            assert len(sched._reading) == 2
        disk.gate.set()
        assert sched.wait_readahead(WAIT)
    finally:
        disk.gate.set()
        sched.close()
    starts = [start for start, _thread in disk.history]
    assert len(starts) == len(set(starts)), "an aligned run was read twice"
    assert len(starts) >= 128 // disk.pages_per_io
    assert all(engine.buffer.is_resident(pid) for pid in chain[:128])
    assert not engine.buffer.is_resident(chain[128 + disk.pages_per_io])


# ------------------------------------------------------------------- (b)


def test_full_window_means_no_source_read_on_the_copy_thread(pipelined):
    engine, tree, disk, chain = cold_index(40_000, buffer_capacity=4096)
    counters = engine.counters
    rebuild = OnlineRebuild(tree)
    marks: list[tuple[int, int]] = []

    def mark() -> None:
        """What the copy thread has had to read itself so far."""
        own = sum(
            1 for _start, thread in disk.history
            if not thread.startswith("io-reader")
        )
        marks.append((counters.rebuild_demand_reads, own))

    def settle(_ctx: dict) -> None:
        # Between top actions: let the readers fill the window first.
        assert rebuild._scheduler.wait_readahead(WAIT)
        mark()

    engine.syncpoints.on("rebuild.nta_end", settle)
    report = rebuild.run()
    engine.syncpoints.remove("rebuild.nta_end", settle)
    mark()

    assert report.leaf_pages_rebuilt == len(chain)
    assert len(marks) > 8
    # The first top action races the first hint (its own runs, and the
    # peek at its successor); after it, never again.
    assert marks[0][0] <= 32 // disk.pages_per_io + 1
    assert marks[-1] == marks[0], marks
    tree.verify()


# ------------------------------------------------------------------- (c)


def test_windows_stay_within_the_rings_room(pipelined):
    """The one window is requested up to the pool's whole room — not a
    share of it — and never past it."""
    engine, tree, disk, chain = cold_index(
        100_000, buffer_capacity=512
    )
    rebuild = OnlineRebuild(tree)
    requested: list[tuple[int, int]] = []

    def sample(_ctx: dict) -> None:
        sched = rebuild._scheduler
        with sched._cv:
            requested.append(
                (sched._window.issued, engine.buffer.readahead_room())
            )

    engine.syncpoints.on("rebuild.nta_end", sample)
    report = rebuild.run()
    engine.syncpoints.remove("rebuild.nta_end", sample)

    assert report.leaf_pages_rebuilt == len(chain)
    assert requested and all(room == 64 for _n, room in requested)
    assert 32 < max(n for n, _room in requested) <= 64
    assert (
        report.counter_deltas["prefetch_unused"] <= PREFETCH_UNUSED_BOUND
    )
    tree.verify()


# ------------------------------------------------------------------- (d)


def level1_page_of(ctx, tree, unit: bytes) -> int:
    page_id = tree.root_page_id
    while True:
        page = ctx.buffer.fetch(page_id)
        try:
            if page.level == 1:
                return page_id
            _pos, child = node.child_search(page, unit, ctx.counters)
        finally:
            ctx.buffer.unpin(page_id)
        page_id = child


def test_shrink_bit_on_level1_parks_readahead():
    engine, tree, disk, chain = cold_index(20_000, buffer_capacity=2048)
    ctx = engine.ctx
    ppio = disk.pages_per_io
    level1 = level1_page_of(ctx, tree, b"")
    # A top action owns the level-1 page: SHRINK bit and X address lock.
    # A reader that tried to wait it out would never come back.
    owner = ctx.txns.begin()
    ctx.locks.acquire(owner.txn_id, LockSpace.ADDRESS, level1, LockMode.X)
    ctx.buffer.fetch(level1).set_flag(PageFlag.SHRINK)
    ctx.buffer.unpin(level1, dirty=True)
    lock_waits = ctx.counters.lock_waits
    resident_before = {p for p in chain if engine.buffer.is_resident(p)}

    assert level1_leaf_order(ctx, tree, b"", 64) is None
    sched = scheduler_for(engine, tree, window=16)
    try:
        sched.advance(chain[0], b"")
        assert sched.wait_readahead(WAIT)
        assert ctx.counters.lock_waits == lock_waits
        assert ctx.counters.prefetch_errors == 0
        # Nothing was learned beyond the position: no leaf outside its
        # own aligned run came in.
        read = {p for p in chain if engine.buffer.is_resident(p)}
        assert chain[0] in read
        assert {
            (p - 1) // ppio for p in read - resident_before
        } == {(chain[0] - 1) // ppio}

        ctx.buffer.fetch(level1).clear_flag(PageFlag.SHRINK)
        ctx.buffer.unpin(level1, dirty=True)
        ctx.locks.release(owner.txn_id, LockSpace.ADDRESS, level1)
        ctx.txns.commit(owner)
        unit = ctx.buffer.fetch(chain[1]).rows[0]
        ctx.buffer.unpin(chain[1])
        sched.advance(chain[1], unit)
        assert sched.wait_readahead(WAIT)
    finally:
        sched.close()
    assert all(engine.buffer.is_resident(pid) for pid in chain[1:17])
    assert ctx.counters.prefetch_errors == 0


# ------------------------------------------------------------------- (e)


def chain_walk(ctx, first: int) -> list[int]:
    """The oracle: the leaf chain, one next_page pointer at a time."""
    out, pid = [], first
    while pid != NO_PAGE:
        out.append(pid)
        page = ctx.buffer.fetch(pid)
        pid = page.next_page
        ctx.buffer.unpin(out[-1])
    return out


def leaf_covering(ctx, tree, unit: bytes) -> int:
    txn = ctx.txns.begin()
    leaf = Traversal(ctx, tree).traverse(unit, AccessMode.READER, 0, txn)
    ctx.release_page(leaf.page_id)
    ctx.txns.commit(txn)
    return leaf.page_id


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=1499)),
        min_size=200, max_size=900,
    ),
    probes=st.lists(
        st.integers(min_value=0, max_value=1499), min_size=1, max_size=4
    ),
)
def test_level1_order_equals_the_leaf_chain(ops, probes):
    engine = Engine(page_size=256, buffer_capacity=1024)
    tree = engine.create_index(key_len=4)
    present: set[int] = set()
    for insert, key in ops:
        if insert and key not in present:
            tree.insert(intkey(key), key)
            present.add(key)
        elif not insert and key in present:
            tree.delete(intkey(key), key)
            present.remove(key)
    ctx = engine.ctx
    chain = chain_walk(ctx, leaf_covering(ctx, tree, b""))
    if len(chain) == 1:
        # A single-leaf tree has no level 1 to read the order from.
        assert level1_leaf_order(ctx, tree, b"", 8) is None
        return
    assert level1_leaf_order(ctx, tree, b"", len(chain)) == (chain, None)
    for key in probes:
        unit = intkey(key) + b"\x00" * 6
        start = chain.index(leaf_covering(ctx, tree, unit))
        # A short count still returns whole level-1 pages, in order.
        leaves, _resume = level1_leaf_order(ctx, tree, unit, 3)
        assert leaves == chain[start:start + len(leaves)]
        assert len(leaves) >= min(3, len(chain) - start)
        # Following the resume unit stitches the rest together exactly.
        rest, resume = level1_leaf_order(ctx, tree, unit, len(chain))
        assert (rest, resume) == (chain[start:], None)


# ------------------------------------------------------------------- (f)


def tall_index():
    """A three-level bulk-loaded index: the root is above level 1.
    Returns (engine, tree, leaf ids in chain order)."""
    engine = Engine(page_size=512, buffer_capacity=4096)
    tree = bulk_load(engine, [intkey(2 * i) for i in range(20_000)], 4)
    assert tree.height() == 3
    ctx = engine.ctx
    return engine, tree, chain_walk(ctx, leaf_covering(ctx, tree, b""))


def test_a_root_shrink_range_left_of_the_position_lets_level1_through():
    """The rebuild's own propagation deletes root entries *behind* its
    position, and publishes their range (§6.2): read-ahead reads on."""
    engine, tree, chain = tall_index()
    ctx = engine.ctx
    root = ctx.buffer.fetch(tree.root_page_id)
    hi = node.entry_key(root.rows[2])
    root.set_flag(PageFlag.SHRINK)
    root.set_blocked_range(b"", hi)
    root.set_flag(PageFlag.SHRINKRANGE)
    ctx.buffer.unpin(tree.root_page_id, dirty=True)

    start = chain.index(leaf_covering(ctx, tree, hi))
    assert start > 0
    assert level1_leaf_order(ctx, tree, hi, len(chain)) == (chain[start:], None)
    # Inside the range the root still blocks.
    assert level1_leaf_order(ctx, tree, b"", 8) is None
    assert level1_leaf_order(ctx, tree, node.entry_key(root.rows[1]), 8) is None


# ------------------------------------------------------------------- (g)


def walk_level1(ctx, tree, wait: bool) -> list[int]:
    """Every level-1 read from the left edge on, each starting at the
    bound the one before returned; checks each leaf against its bounds."""
    txn = ctx.txns.begin() if wait else None
    walk = Traversal(ctx, tree)
    unit_len = tree.key_len + 6
    leaves: list[int] = []
    at = b""
    while True:
        snap = walk.level1(at, txn)
        assert snap is not None
        his = snap.keys[1:] + [snap.bound]
        for child, lo, hi in zip(snap.children, snap.keys, his):
            page = ctx.buffer.fetch(child)
            units = [row[:unit_len] for row in page.rows]
            ctx.buffer.unpin(child)
            assert all(lo <= u and (hi is None or u < hi) for u in units)
        leaves += snap.children
        if snap.bound is None:
            break
        assert snap.bound > at
        at = snap.bound
    if txn is not None:
        ctx.txns.commit(txn)
    return leaves


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=2999)),
        min_size=300, max_size=1500,
    ),
)
def test_level1_reads_chained_by_their_bound_visit_each_leaf_once(ops):
    engine = Engine(page_size=256, buffer_capacity=2048)
    tree = engine.create_index(key_len=4)
    present: set[int] = set()
    for insert, key in ops:
        if insert and key not in present:
            tree.insert(intkey(key), key)
            present.add(key)
        elif not insert and key in present:
            tree.delete(intkey(key), key)
            present.remove(key)
    ctx = engine.ctx
    chain = chain_walk(ctx, leaf_covering(ctx, tree, b""))
    if len(chain) == 1:
        return
    assert walk_level1(ctx, tree, wait=False) == chain
    assert walk_level1(ctx, tree, wait=True) == chain


def test_a_level1_page_still_marked_oldpgofsplit_ends_at_its_side_key():
    """Park a split between the level-1 page's own split and the root's
    new entry: the old page ends at its side key, and the read from that
    key reaches the new page through the side entry (§2.3)."""
    engine = Engine(page_size=256, buffer_capacity=4096, lock_timeout=10.0)
    tree = engine.create_index(key_len=4)
    key = 0
    while tree.height() < 3:
        tree.insert(intkey(key), key)
        key += 1
    ctx = engine.ctx
    rv = Rendezvous(timeout=10.0)
    parked: dict = {}

    def park(attrs: dict) -> None:
        if attrs["level"] == 1 and not parked:
            parked.update(attrs)
            rv.engine_arrived()

    engine.syncpoints.on("split.nonleaf_done", park)

    def inserter() -> None:
        for k in range(key, key + 5000):
            tree.insert(intkey(k), k)
            if parked:
                return

    t = threading.Thread(target=inserter, daemon=True)
    t.start()
    try:
        rv.wait_engine()
        old = ctx.buffer.fetch(parked["page"])
        assert old.has_flag(PageFlag.OLDPGOFSPLIT)
        side_key = old.side_key
        ctx.buffer.unpin(parked["page"])
        chain = chain_walk(ctx, leaf_covering(ctx, tree, b""))
        assert walk_level1(ctx, tree, wait=False) == chain
        assert walk_level1(ctx, tree, wait=True) == chain
        snap = Traversal(ctx, tree).level1(b"", None)
        while snap.page_id != parked["page"]:
            snap = Traversal(ctx, tree).level1(snap.bound, None)
        assert snap.bound == side_key
        after = Traversal(ctx, tree).level1(side_key, None)
        assert after.page_id == parked["new_page"]
    finally:
        rv.release()
        t.join(30)
    assert not t.is_alive()
    engine.syncpoints.remove("split.nonleaf_done", park)
    tree.verify()

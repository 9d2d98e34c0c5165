"""A top action takes each source leaf once and gives it back once.

The locking visit of a source leaf (``_acquire_page``: X latch, address
lock, bit) is also the read, and the leaf stays pinned until the clearing
visit (the top action's give-back).  What that must not cost: a pin left
behind on any way out of a top action, an aborted rebuild on a pool too
small to hold a whole ``ntasize`` run, a rebuild that spins on a page it
cannot read, or one that runs on after the power failed under a fetch.
"""

import math
import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.btree.top_action import TopAction
from repro.concurrency.locks import LockMode, LockSpace
from repro.concurrency.syncpoints import CrashPoint
from repro.core import rebuild as rebuild_module
from repro.core.copy_phase import copy_multipage
from repro.errors import ChecksumError, RebuildAbortedError
from repro.storage.faults import FaultKind, FaultPlan, FaultSpec
from repro.storage.page_manager import ChunkAllocator
from tests.conftest import (
    contents_as_ints,
    intkey,
    make_half_empty,
    pinned_ids,
)

SMALL = RebuildConfig(ntasize=4, xactsize=8)


def _cold(count=3000, **engine_kwargs):
    """A half-empty index on a faulty-disk engine, nothing resident."""
    engine_kwargs.setdefault("buffer_capacity", 2048)
    engine = Engine(fault_plan=FaultPlan(), lock_timeout=15.0, **engine_kwargs)
    index = engine.create_index(key_len=4)
    make_half_empty(index, count)
    expected = contents_as_ints(index)
    leaves = index.verify().leaf_page_ids
    engine.checkpoint()
    engine.buffer.evict_all()
    return engine, index, leaves, expected


def _crash_on_next_read(engine):
    disk = engine.ctx.disk
    for op in ("read", "read_run"):
        disk.plan.at(
            FaultSpec(op, disk.calls[op] + 1, FaultKind.PERMANENT, crash=True)
        )


def _copy_phase(engine, index, p1, config=SMALL):
    """The copy phase of one top action, as the driver calls it; returns
    the top action (what it took) next to the result or the error."""
    ctx = engine.ctx
    top = TopAction(ctx, ctx.txns.begin(), scan=True)
    taken = {}
    chunk = ChunkAllocator(ctx.page_manager)
    try:
        taken["result"] = copy_multipage(top, index, config, chunk, p1)
    except BaseException as exc:  # noqa: BLE001 - handed to the test
        taken["error"] = exc
    return top, taken


# ----------------------------------------------------- pins on every way out


def test_lost_position_gives_everything_back_and_the_retry_completes(
    monkeypatch,
):
    """P1 "vanishes" after PP and P1 were both taken: the top action hands
    both back — bit, pin, lock — before it reports the lost position."""
    engine, index, leaves, expected = _cold()
    manager, pool = engine.ctx.page_manager, engine.buffer
    p1 = leaves[4]  # starts the second top action of an ntasize-4 run
    real, seen_pinned = manager.is_allocated, []

    def vanishing(page_id):
        # The one question asked with P1 pinned is the re-check after its
        # lock + bit ("vanished while locking").
        if page_id == p1 and not seen_pinned and pool.pin_count(p1):
            seen_pinned.extend(pinned_ids(engine))
            return False
        return real(page_id)

    monkeypatch.setattr(manager, "is_allocated", vanishing)
    report = OnlineRebuild(index, SMALL).run()
    assert p1 in seen_pinned and len(seen_pinned) == 2  # PP and P1
    assert report.completed and pinned_ids(engine) == []
    assert contents_as_ints(index) == expected
    index.verify()


def test_busy_p1_is_waited_for_with_nothing_held(monkeypatch):
    """§6.5: everything is released before the instant-lock wait — the
    pins too, or a waiting rebuild sits on frames the lock holder needs."""
    engine, index, leaves, expected = _cold()
    ctx = engine.ctx
    foreign = ctx.txns.begin()
    busy = leaves[6]
    assert ctx.locks.try_acquire(
        foreign.txn_id, LockSpace.ADDRESS, busy, LockMode.X
    )
    waits = []
    real_wait = ctx.locks.wait_instant

    def wait_instant(txn_id, space, resource, mode):
        waits.append((resource, pinned_ids(engine), len(ctx.latches.held_by_me())))
        if ctx.locks.holds(foreign.txn_id, LockSpace.ADDRESS, busy):
            ctx.locks.release(foreign.txn_id, LockSpace.ADDRESS, busy)
        real_wait(txn_id, space, resource, mode)

    monkeypatch.setattr(ctx.locks, "wait_instant", wait_instant)
    report = OnlineRebuild(index, SMALL).run()
    assert waits == [(busy, [], 0)]
    assert report.completed and pinned_ids(engine) == []
    assert contents_as_ints(index) == expected
    index.verify()


def test_a_top_action_that_raises_in_propagation_leaves_no_pin():
    engine, index, _leaves, expected = _cold()
    fired = []

    def boom(_ctx):
        fired.append(1)
        if len(fired) == 3:
            raise RuntimeError("injected propagation failure")

    engine.syncpoints.on("rebuild.group_applied", boom)
    with pytest.raises(RebuildAbortedError) as err:
        OnlineRebuild(index, SMALL).run()
    assert isinstance(err.value.__cause__, RuntimeError)
    assert pinned_ids(engine) == []
    assert not engine.ctx.latches.held_by_me()
    assert contents_as_ints(index) == expected
    index.verify()


# ------------------------------------------------------------- small pools


@pytest.mark.parametrize(
    "frames, min_service",
    [(24, math.inf), (40, math.inf), (64, math.inf), (64, 0.0)],
    ids=["24", "40", "64", "64-tuned"],
)
def test_a_small_pool_gets_shorter_top_actions_not_an_abort(
    frames, min_service, monkeypatch
):
    """``ntasize=32`` on a pool that cannot spare 32 pins: the run ends
    where the pool's bound says (the rebuild does not wait for P_i,
    i > 1), and the rebuild completes — as it did when sources were not
    held."""
    engine = Engine(buffer_capacity=frames, lock_timeout=15.0)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 6000)
    expected = contents_as_ints(index)
    bound = engine.buffer.pin_room()
    assert 1 <= bound < 32
    runs = []
    engine.syncpoints.on(
        "rebuild.copy_locked", lambda c: runs.append(len(c["sources"]))
    )
    monkeypatch.setattr(rebuild_module, "PIPELINE_MIN_SERVICE", min_service)
    report = OnlineRebuild(index, RebuildConfig(ntasize=32)).run()
    assert report.completed and not report.aborted
    assert max(runs) == bound
    assert pinned_ids(engine) == []
    assert contents_as_ints(index) == expected
    assert index.verify().leaf_fill > 0.9


# ------------------------------------------------------- unreadable pages


def test_an_unreadable_pp_ends_the_run_instead_of_spinning():
    """"Busy" is the answer ``_lock_pp_and_p1`` waits and retries on; a PP
    whose image rotted is not busy.  Under a wall-clock guard: before, this
    looped without bound or stop check."""
    engine, index, leaves, _ = _cold()
    assert engine.ctx.disk.plant_rot(leaves[4])
    out = {}
    worker = threading.Thread(
        target=lambda: out.update(
            zip(("top", "taken"), _copy_phase(engine, index, leaves[5]))
        ),
        daemon=True,
    )
    worker.start()
    worker.join(20.0)
    assert not worker.is_alive(), "still retrying an unreadable PP"
    assert isinstance(out["taken"]["error"], ChecksumError)
    assert out["top"].pages == [] and pinned_ids(engine) == []


@pytest.mark.parametrize("which", ["p1", "p2"])
def test_a_rotted_source_leaf_ends_the_run_through_the_one_channel(which):
    """A rotted P_i (i > 1) ends the locking at P_i-1 without a wait; an
    unreadable P1 (or NP, whose back link the top action must flip) ends
    the run: one exception type chained from the checksum error, completed
    top actions kept."""
    engine, index, leaves, _ = _cold()
    # Leaf 8 starts the third top action of an ntasize-4 run; leaf 9 is
    # its P2.  (Eight leaves an aligned 16 KB read apart from the rest
    # would hide the rot behind a run read that skips it.)
    rotted = leaves[8 if which == "p1" else 9]
    assert engine.ctx.disk.plant_rot(rotted)
    runs = []
    engine.syncpoints.on(
        "rebuild.copy_locked", lambda c: runs.append(c["sources"])
    )
    rebuild = OnlineRebuild(index, SMALL)
    done = {}

    def drive():
        try:
            rebuild.run()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            done["error"] = exc

    worker = threading.Thread(target=drive, daemon=True)
    worker.start()
    worker.join(30.0)
    assert not worker.is_alive(), "still retrying an unreadable leaf"
    assert type(done["error"]) is RebuildAbortedError
    assert isinstance(done["error"].__cause__, ChecksumError)
    report = rebuild.last_report
    assert report.aborted and not report.completed
    assert all(rotted not in run for run in runs)
    if which == "p2":
        assert runs[-1] == [leaves[8]]  # ended at P_i-1, did not wait
    # The top action whose NP is the rotted leaf cannot relink it and
    # rolls back; the ones before it stay, their old pages freed.
    assert report.top_actions >= 1
    assert report.leaf_pages_rebuilt == 4 * report.top_actions
    assert report.pages_freed == report.leaf_pages_rebuilt
    assert pinned_ids(engine) == []


# ------------------------------------------- a power failure under a fetch


def test_a_power_failure_on_the_next_leaf_is_not_the_end_of_the_run():
    """An unreadable P_i (i > 1) ends the locking at P_i-1; the machine
    dying under that read is not "unreadable"."""
    engine, index, leaves, _ = _cold()
    ctx = engine.ctx
    # P1 resident by a single-page read, so the next disk read is P2's.
    ctx.buffer.fetch(leaves[0])
    ctx.buffer.unpin(leaves[0])
    _crash_on_next_read(engine)
    top, taken = _copy_phase(engine, index, leaves[0])
    assert isinstance(taken.get("error"), CrashPoint), taken
    assert top.pages == [leaves[0]]  # no cleanup after a power failure


def test_give_back_after_an_abort_skips_what_the_rollback_freed():
    """The abort path's give-back: pinned pages lose pin, bit and lock;
    a page the rolled-back top action had allocated is not fetched."""
    engine, index, leaves, expected = _cold()
    ctx = engine.ctx
    top, taken = _copy_phase(engine, index, leaves[2])
    new_pages = taken["result"].new_pages
    assert set(top.held) == {leaves[1], *taken["result"].old_pages}
    assert set(top.pages) == set(top.held) | set(new_pages)
    top.abort()
    ctx.txns.abort(top.txn)
    assert top.held == {} and pinned_ids(engine) == []
    assert not any(
        ctx.locks.holds(top.txn.txn_id, LockSpace.ADDRESS, pid)
        for pid in top.pages
    )
    assert contents_as_ints(index) == expected
    index.verify()

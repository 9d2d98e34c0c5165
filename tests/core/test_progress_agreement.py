"""The progress a live engine keeps for a rebuild is what a restart
rebuilds from the log, however ``OnlineRebuild.run`` ended — and a run
resumed from it copies nothing at or below its floor."""

import time

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.core import rebuild as rebuild_mod
from repro.concurrency.syncpoints import CrashPoint
from repro.errors import RebuildAbortedError, StorageError
from tests.conftest import contents_as_ints, make_half_empty

CONFIG = RebuildConfig(ntasize=4, xactsize=8)  # two top actions a batch
STALL = 0.25


def _fail_in_top_action(monkeypatch, engine, nth: int, flush_fails: bool):
    """Raise inside top action ``nth``; with ``flush_fails`` the abort
    path's flush of the batch's new pages fails as well."""
    state = {"ended": 0, "failed": False, "flush_failed": False}

    def count(_ctx):
        state["ended"] += 1

    def fail(_ctx):
        if state["ended"] == nth - 1 and not state["failed"]:
            state["failed"] = True
            raise RuntimeError("injected failure")

    engine.syncpoints.on("rebuild.nta_end", count)
    engine.syncpoints.on("rebuild.copy_locked", fail)
    flush_pages = engine.buffer.flush_pages

    def flush_failing_once(page_ids):
        if flush_fails and state["failed"] and not state["flush_failed"]:
            state["flush_failed"] = True
            raise StorageError("injected flush failure")
        return flush_pages(page_ids)

    monkeypatch.setattr(engine.buffer, "flush_pages", flush_failing_once)


def _stall_in_top_action(engine, nth: int) -> None:
    ended = {"n": 0}

    def stall(_ctx):
        ended["n"] += 1
        if ended["n"] == nth:
            time.sleep(STALL + 0.05)

    engine.syncpoints.on("rebuild.nta_end", stall)


@pytest.mark.parametrize(
    "how",
    ["completed", "slice", "watchdog", "abort_flushed", "abort_unflushed"],
)
def test_live_progress_is_what_restart_recovers(monkeypatch, how):
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    expected = contents_as_ints(index)
    rebuild = OnlineRebuild(index, CONFIG)
    if how == "completed":
        rebuild.run()
    elif how == "slice":
        assert not rebuild.run(max_pages=8).completed
    else:
        if how == "watchdog":
            monkeypatch.setattr(rebuild_mod, "WATCHDOG_TIMEOUT", STALL)
            _stall_in_top_action(engine, 3)
        else:
            # Top action 3 completes in the second batch; 4 fails.
            _fail_in_top_action(
                monkeypatch, engine, 4, how == "abort_unflushed"
            )
        with pytest.raises(RebuildAbortedError):
            rebuild.run()
        engine.syncpoints.clear()
    report = rebuild.last_report
    live = engine.rebuild_checkpoint(1)
    floor = live.resume_key() if live is not None else None
    if how == "completed":
        assert floor is None
    elif how == "abort_unflushed":
        # The batch's pages never became durable: its progress is not
        # logged, and the floor stays at the first batch's commit.
        assert floor is not None and floor < report.resume_unit
    else:
        assert floor == report.resume_unit is not None

    engine.crash()
    engine.recover()
    recovered = engine.rebuild_checkpoint(1)
    assert (recovered.resume_key() if recovered else None) == floor

    copied_low: list[bytes] = []
    engine.syncpoints.on(
        "rebuild.nta_end", lambda ctx: copied_low.append(ctx["low_unit"])
    )
    index = engine.index(1)
    assert OnlineRebuild(index, CONFIG).run(
        resume_checkpoint=recovered
    ).completed
    assert copied_low
    if floor is not None:
        assert min(copied_low) > floor
    assert contents_as_ints(index) == expected
    assert index.verify().leaf_fill > 0.85


def test_a_run_that_logged_nothing_leaves_the_progress_it_found():
    """A new rebuild that fails before its first progress record leaves
    the index's progress as it found it — what a restart rebuilds."""
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    engine.syncpoints.on(
        "rebuild.txn_committed",
        lambda _ctx: (_ for _ in ()).throw(CrashPoint("committed")),
    )
    with pytest.raises(CrashPoint):
        OnlineRebuild(index, CONFIG).run()
    engine.syncpoints.clear()
    engine.crash()
    engine.recover()
    found = engine.rebuild_checkpoint(1)
    assert found.resume_key() is not None
    engine.syncpoints.on(
        "rebuild.copy_locked",
        lambda _ctx: (_ for _ in ()).throw(RuntimeError("injected failure")),
    )
    with pytest.raises(RebuildAbortedError):
        OnlineRebuild(engine.index(1), CONFIG).run()  # a new rebuild
    engine.syncpoints.clear()
    assert engine.rebuild_checkpoint(1) is found
    engine.crash()
    engine.recover()
    assert engine.rebuild_checkpoint(1).resume_key() == found.resume_key()


def test_a_truncating_checkpoint_keeps_a_running_rebuilds_progress():
    """A truncating checkpoint cuts the slice's progress records with the
    log prefix; its snapshot of the engine's progress carries the floor
    across the crash, and the resumed pass starts above it."""
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    expected = contents_as_ints(index)
    assert not OnlineRebuild(index, CONFIG).run(max_pages=16).completed
    floor = engine.rebuild_checkpoint(1).resume_key()
    assert floor is not None
    engine.checkpoint(truncate=True)
    engine.crash()
    engine.recover()
    recovered = engine.rebuild_checkpoint(1)
    assert recovered is not None and recovered.resume_key() == floor

    copied_low: list[bytes] = []
    engine.syncpoints.on(
        "rebuild.nta_end", lambda ctx: copied_low.append(ctx["low_unit"])
    )
    index = engine.index(1)
    assert OnlineRebuild(index, CONFIG).run(
        resume_checkpoint=recovered
    ).completed
    assert copied_low and min(copied_low) > floor
    assert contents_as_ints(index) == expected

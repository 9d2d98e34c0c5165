"""Crash-anywhere tests: power failure injected at every rebuild syncpoint,
recovery must restore exactly the last committed contents (DESIGN.md
invariant 7)."""

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from tests.conftest import contents_as_ints, make_half_empty

CRASH_POINTS = [
    ("rebuild.copy_locked", 1),
    ("rebuild.copy_locked", 4),
    ("rebuild.copy_done", 2),
    ("rebuild.level_propagated", 3),
    ("rebuild.group_applied", 5),
    ("rebuild.nta_end", 1),
    ("rebuild.nta_end", 6),
    ("rebuild.txn_flushed", 1),
    ("rebuild.txn_committed", 1),
    ("rebuild.txn_committed", 2),
]


@pytest.mark.parametrize("point,nth", CRASH_POINTS)
def test_crash_at_syncpoint_recovers_contents(point, nth):
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    survivors = make_half_empty(index, 4000)
    expected = contents_as_ints(index)
    count = {"n": 0}

    def boom(ctx):
        count["n"] += 1
        if count["n"] >= nth:
            raise CrashPoint(point)

    engine.syncpoints.on(point, boom)
    with pytest.raises(CrashPoint):
        OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    engine.crash()
    engine.recover()
    index = engine.index(1)
    assert contents_as_ints(index) == expected
    index.verify()
    assert engine.ctx.page_manager.deallocated_pages() == []


def test_crash_then_resume_rebuild_to_completion():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    expected = contents_as_ints(index)
    count = {"n": 0}

    def boom(ctx):
        count["n"] += 1
        if count["n"] == 3:
            raise CrashPoint("mid")

    engine.syncpoints.on("rebuild.txn_committed", boom)
    with pytest.raises(CrashPoint):
        OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    engine.crash()
    engine.recover()
    engine.syncpoints.clear()
    index = engine.index(1)
    # A fresh rebuild finishes the job.
    OnlineRebuild(index, RebuildConfig(ntasize=8, xactsize=24)).run()
    assert contents_as_ints(index) == expected
    stats = index.verify()
    assert stats.leaf_fill > 0.9


def test_double_crash_during_recovery_cycle():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 2000)
    expected = contents_as_ints(index)
    engine.syncpoints.once(
        "rebuild.nta_end",
        lambda ctx: (_ for _ in ()).throw(CrashPoint("first")),
    )
    with pytest.raises(CrashPoint):
        OnlineRebuild(index, RebuildConfig(ntasize=8, xactsize=24)).run()
    engine.crash()
    engine.recover()
    engine.crash()  # crash again immediately after recovery
    engine.recover()
    index = engine.index(1)
    assert contents_as_ints(index) == expected
    index.verify()


def test_crash_then_supervised_resume_skips_copied_units():
    """PR 7's crash-resume contract end to end: crash mid-rebuild, recover
    the durable ``REBUILD_PROGRESS`` checkpoint, and let the supervisor
    resume — completing the rebuild without re-copying any unit at or
    below the durable floor."""
    from repro import RebuildSupervisor

    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    expected = contents_as_ints(index)
    count = {"n": 0}

    def boom(ctx):
        count["n"] += 1
        if count["n"] == 2:
            raise CrashPoint("mid")

    engine.syncpoints.on("rebuild.txn_committed", boom)
    with pytest.raises(CrashPoint):
        OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    engine.crash()
    engine.syncpoints.clear()
    engine.recover()
    checkpoint = engine.rebuild_checkpoint(1)
    assert checkpoint is not None, "no durable progress after 2 commits"
    floor = checkpoint.resume_key()
    assert floor is not None
    violations = []

    def check(ctx):
        low = ctx.get("low_unit") or b""
        if low and low <= floor:
            violations.append(low)

    engine.syncpoints.on("rebuild.nta_end", check)
    index = engine.index(1)
    report = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8)
    ).run(resume_checkpoint=checkpoint)
    assert report.final.completed
    assert report.resumes == 1
    assert violations == [], "resumed rebuild repaid already-durable work"
    assert contents_as_ints(index) == expected
    stats = index.verify()
    assert stats.leaf_fill > 0.9
    # The resumed run logged its own terminal record: a fresh recovery
    # finds nothing left to resume.
    engine.crash()
    engine.recover()
    assert engine.rebuild_checkpoint(1) is None

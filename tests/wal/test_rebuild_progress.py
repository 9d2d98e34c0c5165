"""Durable rebuild progress: ``REBUILD_PROGRESS`` reconstruction, the
epoch supersession rule, ``RebuildCheckpoint.resume_key`` semantics, and
the one progress object a resume may name."""

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.errors import LogFormatError, RebuildError
from repro.wal.records import (
    PROGRESS_COMPLETE,
    PROGRESS_RUNNING,
    LogRecord,
    RecordType,
)
from repro.wal.recovery import RebuildCheckpoint
from tests.conftest import contents_as_ints, make_half_empty


def _ckpt(**kw) -> RebuildCheckpoint:
    return RebuildCheckpoint(epoch=7, index_id=1, **kw)


# ----------------------------------------------------------- resume_key


def test_resume_key_empty_and_completed():
    assert _ckpt().resume_key() is None
    assert _ckpt(last_unit=b"k", completed=True).resume_key() is None


def test_resume_key_serial_running():
    assert _ckpt(last_unit=b"\x05").resume_key() == b"\x05"


# ------------------------------------------------------ the record's states


def _progress_bytes(state: int, ordinal: int = 0) -> bytes:
    """An encoded ``REBUILD_PROGRESS`` record with the state byte and the
    reserved ordinal word (payload offsets 10 and 8) set by hand."""
    rec = LogRecord(
        type=RecordType.REBUILD_PROGRESS, index_id=1, epoch=7,
        last_unit=b"\x05",
    )
    data = bytearray(rec.encode())
    payload = len(data) - len(rec._encode_payload())
    data[payload + 8:payload + 10] = ordinal.to_bytes(2, "little")
    data[payload + 10] = state
    return bytes(data)


@pytest.mark.parametrize("state", [PROGRESS_RUNNING, PROGRESS_COMPLETE])
def test_the_two_progress_states_decode(state):
    rec = LogRecord.decode(_progress_bytes(state))
    assert rec.progress_state == state and rec.last_unit == b"\x05"


@pytest.mark.parametrize(
    "state, ordinal", [(1, 0), (3, 0), (PROGRESS_RUNNING, 1)]
)
def test_any_other_progress_state_or_ordinal_is_a_format_error(
    state, ordinal
):
    """State 1 was "segment done" and a nonzero ordinal a partition of the
    tiled rebuild: a log that carries either is not one this engine
    wrote, and ends like every other malformed record."""
    with pytest.raises(LogFormatError, match="REBUILD_PROGRESS"):
        LogRecord.decode(_progress_bytes(state, ordinal))


# --------------------------------------------------- end-to-end recovery


def _crash_rebuild(engine, index, point: str, nth: int):
    count = {"n": 0}

    def boom(_ctx):
        count["n"] += 1
        if count["n"] == nth:
            raise CrashPoint(point)

    engine.syncpoints.on(point, boom)
    with pytest.raises(CrashPoint):
        OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    engine.crash()
    engine.syncpoints.clear()


def test_recovery_reconstructs_serial_checkpoint():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    expected = contents_as_ints(index)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 3)
    engine.recover()
    ckpt = engine.rebuild_checkpoint(1)
    assert ckpt is not None and not ckpt.completed
    floor = ckpt.resume_key()
    assert floor is not None
    # Resuming after the durable floor finishes the rebuild correctly.
    index = engine.index(1)
    OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run(
        resume_checkpoint=ckpt
    )
    assert contents_as_ints(index) == expected
    index.verify()


def test_completed_rebuild_leaves_no_checkpoint():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 2000)
    OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    engine.crash()
    engine.recover()
    # The terminal PROGRESS_COMPLETE record was flushed, so recovery sees
    # a finished rebuild: nothing to resume.
    assert engine.rebuild_checkpoint(1) is None


def test_higher_epoch_supersedes_older_progress():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    # First rebuild crashes after 2 committed batches of durable progress.
    _crash_rebuild(engine, index, "rebuild.txn_committed", 2)
    engine.recover()
    first = engine.rebuild_checkpoint(1)
    assert first is not None and first.last_unit
    # A second, fresh rebuild (higher epoch) crashes after 1 batch.  Its
    # records alone must form the surviving checkpoint: the log still
    # holds both runs' progress, and trusting the first run's (2-batch)
    # coverage would misdescribe the newer rebuild.
    index = engine.index(1)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 1)
    engine.recover()
    ckpt = engine.rebuild_checkpoint(1)
    assert ckpt.epoch > first.epoch
    # Exactly one RUNNING record from the new epoch: one committed batch.
    assert ckpt.last_unit != first.last_unit
    assert ckpt.resume_key() is not None


def test_two_crashed_rebuilds_leave_only_highest_epoch_checkpoint():
    """Back-to-back crashed rebuilds: recovery exposes exactly one
    resumable checkpoint, carrying the *second* run's epoch — the first
    run's durable progress is dead weight in the log, never a resume
    candidate."""
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 2)
    engine.recover()
    first = engine.rebuild_checkpoint(1)
    assert first is not None
    index = engine.index(1)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 1)
    engine.recover()
    # One checkpoint per index, and it is the newest epoch's.
    assert set(engine.ctx.rebuild_progress) == {1}
    ckpt = engine.rebuild_checkpoint(1)
    assert ckpt is not None and ckpt.epoch > first.epoch


def test_resume_from_stale_epoch_rejected():
    """Resuming from a checkpoint whose epoch a newer rebuild has
    superseded must fail loudly: the stale coverage map describes a tree
    layout the newer run already replaced."""
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 2)
    engine.recover()
    stale = engine.rebuild_checkpoint(1)
    assert stale is not None
    # A newer rebuild starts (and crashes), logging a higher epoch.
    index = engine.index(1)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 1)
    engine.recover()
    index = engine.index(1)
    assert engine.rebuild_checkpoint(1).epoch > stale.epoch
    with pytest.raises(RebuildError, match="stale"):
        OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run(
            resume_checkpoint=stale
        )
    # The engine is not wedged: resuming from the *current* checkpoint
    # still finishes the rebuild.
    current = engine.rebuild_checkpoint(1)
    assert current is not None
    OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run(
        resume_checkpoint=current
    )
    index.verify()


def test_a_checkpoint_held_across_a_crash_is_stale():
    """The object a caller held before a crash describes what the lost
    process knew; recovery rebuilds the index's progress from the log as
    a new object, and only that one resumes."""
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    config = RebuildConfig(ntasize=4, xactsize=8)
    OnlineRebuild(index, config).run(max_pages=16)
    held = engine.rebuild_checkpoint(1)
    assert held.resume_key() is not None
    engine.crash()
    engine.recover()
    current = engine.rebuild_checkpoint(1)
    assert current.resume_key() == held.resume_key()
    with pytest.raises(RebuildError, match="stale"):
        OnlineRebuild(engine.index(1), config).run(resume_checkpoint=held)
    OnlineRebuild(engine.index(1), config).run(resume_checkpoint=current)
    engine.index(1).verify()


def test_another_indexs_checkpoint_is_stale():
    engine = Engine(buffer_capacity=2048)
    first = engine.create_index(key_len=4)
    second = engine.create_index(key_len=4)
    make_half_empty(first, 4000)
    make_half_empty(second, 4000)
    config = RebuildConfig(ntasize=4, xactsize=8)
    OnlineRebuild(second, config).run(max_pages=8)
    other = engine.rebuild_checkpoint(2)
    assert other.resume_key() is not None
    with pytest.raises(RebuildError, match="stale"):
        OnlineRebuild(first, config).run(resume_checkpoint=other)
    # Neither index's progress moved.
    assert engine.rebuild_checkpoint(1) is None
    assert engine.rebuild_checkpoint(2) is other
    first.verify()

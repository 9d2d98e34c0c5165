"""Durable rebuild progress: ``REBUILD_PROGRESS`` reconstruction, the
epoch supersession rule, and ``RebuildCheckpoint.resume_key`` semantics."""

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.errors import RebuildError
from repro.core.partition import segments_from_checkpoint
from repro.wal.recovery import PartitionProgress, RebuildCheckpoint
from tests.conftest import contents_as_ints, make_half_empty


def _ckpt(parts: dict[int, PartitionProgress], **kw) -> RebuildCheckpoint:
    return RebuildCheckpoint(epoch=7, index_id=1, partitions=parts, **kw)


# ----------------------------------------------------------- resume_key


def test_resume_key_empty_and_completed():
    assert _ckpt({}).resume_key() is None
    done = _ckpt({0: PartitionProgress(last_unit=b"k")}, completed=True)
    assert done.resume_key() is None


def test_resume_key_serial_running():
    ckpt = _ckpt({0: PartitionProgress(start_unit=b"", last_unit=b"\x05")})
    assert ckpt.resume_key() == b"\x05"


def test_resume_key_contiguous_prefix():
    # p0 done through A, p1 running through B: coverage reaches B.
    ckpt = _ckpt(
        {
            0: PartitionProgress(last_unit=b"\x10", done=True),
            1: PartitionProgress(start_unit=b"\x11", last_unit=b"\x20"),
        }
    )
    assert ckpt.resume_key() == b"\x20"


def test_resume_key_stops_at_first_unfinished_partition():
    # p1 has no durable progress yet, so p2's units are NOT contiguous
    # coverage — the serial resume floor is p0's last unit.
    ckpt = _ckpt(
        {
            0: PartitionProgress(last_unit=b"\x10", done=True),
            1: PartitionProgress(start_unit=b"\x11"),
            2: PartitionProgress(start_unit=b"\x22", last_unit=b"\x30"),
        }
    )
    assert ckpt.resume_key() == b"\x10"


def test_resume_key_missing_ordinal_truncates_coverage():
    ckpt = _ckpt(
        {
            0: PartitionProgress(last_unit=b"\x10", done=True),
            2: PartitionProgress(start_unit=b"\x22", last_unit=b"\x30"),
        }
    )
    assert ckpt.resume_key() == b"\x10"


def test_resume_key_requires_partition_zero_from_start():
    ckpt = _ckpt({0: PartitionProgress(start_unit=b"\x09", last_unit=b"\x10")})
    assert ckpt.resume_key() is None


# ------------------------------------------------- segments_from_checkpoint


def test_segments_reconstruct_the_original_tiling():
    ckpt = _ckpt(
        {
            0: PartitionProgress(last_unit=b"\x08", done=True),
            1: PartitionProgress(start_unit=b"\x11", last_unit=b"\x18"),
            2: PartitionProgress(start_unit=b"\x22"),
        }
    )
    specs = segments_from_checkpoint(ckpt)
    assert [s.ordinal for s in specs] == [0, 1, 2]
    assert specs[0].done and not specs[1].done and not specs[2].done
    # The tiling is contiguous: each stop is the right neighbor's start.
    assert specs[0].start_unit is None
    assert specs[0].stop_before == b"\x11"
    assert specs[1].start_unit == b"\x11"
    assert specs[1].stop_before == b"\x22"
    assert specs[2].stop_before is None
    # Workers with durable progress restart strictly after it; those
    # without restart at their segment start.
    assert specs[1].probe == b"\x18\x00"
    assert specs[2].probe == b"\x22"


def test_segments_reject_gappy_or_offset_checkpoints():
    assert segments_from_checkpoint(_ckpt({})) is None
    gappy = _ckpt(
        {
            0: PartitionProgress(done=True),
            2: PartitionProgress(start_unit=b"\x22"),
        }
    )
    assert segments_from_checkpoint(gappy) is None
    offset = _ckpt({0: PartitionProgress(start_unit=b"\x05")})
    assert segments_from_checkpoint(offset) is None


# --------------------------------------------------- end-to-end recovery


def _crash_rebuild(engine, index, point: str, nth: int, workers: int = 1):
    count = {"n": 0}

    def boom(_ctx):
        count["n"] += 1
        if count["n"] == nth:
            raise CrashPoint(point)

    engine.syncpoints.on(point, boom)
    with pytest.raises(CrashPoint):
        OnlineRebuild(
            index,
            RebuildConfig(ntasize=4, xactsize=8, parallel_workers=workers),
        ).run()
    engine.crash()
    engine.syncpoints.clear()


def test_recovery_reconstructs_serial_checkpoint():
    engine = Engine(buffer_capacity=2048)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    expected = contents_as_ints(index)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 2)
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
    assert first is not None and len(first.partitions) == 1
    # A second, fresh rebuild (higher epoch) crashes after 1 batch.  Its
    # records alone must form the surviving checkpoint: the log still
    # holds both runs' progress, and trusting the first run's (2-batch)
    # coverage would misdescribe the newer rebuild.
    index = engine.index(1)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 1)
    engine.recover()
    ckpt = engine.rebuild_checkpoint(1)
    assert ckpt.epoch > first.epoch
    assert len(ckpt.partitions) == 1
    # Exactly one RUNNING record from the new epoch: one committed batch.
    assert ckpt.partitions[0].last_unit != first.partitions[0].last_unit
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
    assert set(engine.rebuild_checkpoints) == {1}
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
    with pytest.raises(RebuildError, match="superseded"):
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


def test_recovery_reconstructs_parallel_checkpoint():
    engine = Engine(buffer_capacity=2048, lock_timeout=5.0)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000)
    expected = contents_as_ints(index)
    _crash_rebuild(engine, index, "rebuild.txn_committed", 3, workers=2)
    engine.recover()
    ckpt = engine.rebuild_checkpoint(1)
    assert ckpt is not None
    assert segments_from_checkpoint(ckpt) is not None
    index = engine.index(1)
    OnlineRebuild(
        index, RebuildConfig(ntasize=4, xactsize=8, parallel_workers=2)
    ).run(resume_checkpoint=ckpt)
    assert contents_as_ints(index) == expected
    index.verify()

"""Crash-schedule sweep: every syncpoint crash and every injected-fault
site across build → fragment → rebuild, with recovery verified after each.

The quick test strides through the enumerated schedules so the tier-1 run
stays fast; the exhaustive sweep (every schedule, plus re-running the
rebuild to completion after each recovery) is marked ``slow`` and runs in
the dedicated CI job.  ``REPRO_FAULT_SEED`` gates a randomized smoke test
whose seed is printed on failure for replay.
"""

import collections
import os

import pytest

from repro.storage.faults import FaultKind
from repro.testing import CrashScheduleHarness, ScrubCrashHarness
from repro.testing.crashsched import run_random_schedule


def _fail_report(report) -> str:
    lines = [f"{len(report.failures)} schedule(s) failed:"]
    lines.extend(f"  {failure}" for failure in report.failures)
    return "\n".join(lines)


def test_quick_sweep_strided():
    harness = CrashScheduleHarness(key_count=2000, seed=11)
    report = harness.run_sweep(stride=4)
    assert report.schedules_run > 0
    assert report.ok, _fail_report(report)


@pytest.mark.slow
def test_exhaustive_sweep_all_schedules():
    harness = CrashScheduleHarness(key_count=2000, seed=11)
    report = harness.run_sweep()
    assert report.schedules_run >= 30, "schedule enumeration shrank"
    assert report.crashes_simulated > 0
    assert report.ok, _fail_report(report)


@pytest.mark.slow
def test_exhaustive_sweep_rebuild_finishes_after_recovery():
    """Recovery is not just consistent — the rebuild is restartable: after
    every crash schedule, a fresh rebuild runs to completion and verifies."""
    harness = CrashScheduleHarness(
        key_count=2000, seed=11, finish_after_recovery=True
    )
    report = harness.run_sweep(stride=2)
    assert report.ok, _fail_report(report)


@pytest.mark.skipif(
    "REPRO_FAULT_SEED" not in os.environ,
    reason="randomized smoke runs only when REPRO_FAULT_SEED is set",
)
def test_randomized_schedule_smoke():
    seed = int(os.environ["REPRO_FAULT_SEED"])
    outcome = run_random_schedule(seed)
    assert outcome.ok, (
        f"random schedule failed (replay with REPRO_FAULT_SEED={seed}): "
        f"{outcome.schedule}: {outcome.error}"
    )


# ------------------------------------------------------ resumable rebuild


def test_resume_sweep_strided():
    """Crash → recover → *resume* (not restart): the supervised follow-up
    rebuild starts from the recovered ``REBUILD_PROGRESS`` checkpoint and
    must never re-copy a unit at or below the durable floor."""
    harness = CrashScheduleHarness(
        key_count=2000, seed=11, resume_after_recovery=True
    )
    schedules = harness.enumerate_schedules(include_faults=False)
    report = harness.run_sweep(schedules=schedules, stride=3)
    assert report.schedules_run > 0
    assert report.ok, _fail_report(report)
    assert report.resumes_taken > 0, (
        "no schedule produced a durable checkpoint — resume path untested"
    )


@pytest.mark.slow
def test_exhaustive_resume_sweep_all_schedules():
    """Every syncpoint crash and every injected-fault site, each followed
    by a supervised resume asserting the no-repaid-work guarantee."""
    harness = CrashScheduleHarness(
        key_count=2000, seed=11, resume_after_recovery=True
    )
    report = harness.run_sweep()
    assert report.schedules_run >= 30, "schedule enumeration shrank"
    assert report.ok, _fail_report(report)
    assert report.resumes_taken > 0


# ---------------------------------------- tuned knobs on a pool that evicts

TUNED = dict(
    key_count=4000, seed=11, buffer_capacity=32, resume_after_recovery=True,
    pipelined=True,
)
"""The benchmark's ``tuned`` profile on a 32-frame pool under ~50 source
leaves: every schedule evicts (run-aligned writes) and retires source
pages unwritten before its crash point."""


def test_tuned_crash_between_retire_and_commit_resumes_clean():
    """``rebuild.nta_end`` fires after a top action retired its source
    leaves and before its transaction commits: the dropped frames' only
    copy is the stored image, and recovery + resume must not miss the
    writes that never happened."""
    harness = CrashScheduleHarness(**TUNED)
    schedules = [
        s for s in harness.enumerate_schedules(include_faults=False)
        if s.point == "rebuild.nta_end"
    ]
    report = harness.run_sweep(schedules=schedules, stride=2)
    assert report.crashes_simulated == report.schedules_run > 0
    assert report.ok, _fail_report(report)  # clean + zero floor violations
    assert all(o.retired_unwritten > 0 for o in report.outcomes)
    assert report.resumes_taken > 0


def test_tuned_torn_write_on_the_writer_thread_is_a_crash():
    """With write-behind on, a ``torn write_many + crash`` fires on the
    writer thread and reaches the driver through a barrier token: the
    power failed there too — no abort protocol, recovery takes over."""
    harness = CrashScheduleHarness(**TUNED)
    torn = [
        s for s in harness.enumerate_schedules()
        if s.fault is FaultKind.TORN and s.crash and s.torn_byte >= 0
    ]
    report = harness.run_sweep(schedules=torn[:1])
    assert report.crashes_simulated == report.schedules_run == 1
    assert report.ok, _fail_report(report)


@pytest.mark.slow
def test_tuned_exhaustive_resume_sweep():
    """Every syncpoint crash and every injected-fault site of the run
    with the tuned knobs, each recovered and resumed under the floor
    check.

    The syncpoint schedules are 49 in 30 of 30 enumerations, traced or
    not: the 48 of the copy loop plus the pass's one
    ``rebuild.pipeline_started``.  The fault schedules follow the
    ``write_many`` calls the writer threads happen to make: 32 in 157 of
    160 enumerations, 37 or 38 in the other 3."""
    harness = CrashScheduleHarness(**TUNED)
    schedules = harness.enumerate_schedules()
    kinds = collections.Counter(s.kind for s in schedules)
    assert kinds["syncpoint"] == 49, "schedule enumeration moved"
    assert kinds["fault"] >= 30, "fault enumeration shrank"
    report = harness.run_sweep(schedules=schedules)
    assert report.ok, _fail_report(report)
    assert report.resumes_taken > 0
    assert any(o.retired_unwritten > 0 for o in report.outcomes)


# ------------------------------------------ recycled ids, dead images dropped

RECYCLING = dict(
    key_count=4000, seed=11, buffer_capacity=2048, resume_after_recovery=True,
    pipelined=True, fillfactor=0.7,
    warm_passes=2,
)
"""The benchmark's repeated ``tuned`` fill-0.7 pass on a pool that holds
the index: committed inserts touch the leaves before every pass, so the
swept pass allocates ids whose previous incarnation is still resident
with a logged change no write has stored — ``BufferPool.new_page`` drops
those frames, and the crash that follows loses what they carried."""


def test_recycling_pass_sweep_strided():
    """Crash the recycling pass at every fifth syncpoint firing: recover,
    ``verify()``, contents equal the model, resume under the floor check."""
    harness = CrashScheduleHarness(**RECYCLING)
    schedules = harness.enumerate_schedules(include_faults=False)
    report = harness.run_sweep(schedules=schedules, stride=5)
    assert report.crashes_simulated == report.schedules_run > 0
    assert report.ok, _fail_report(report)
    assert any(o.dead_images_dropped > 0 for o in report.outcomes)


@pytest.mark.slow
def test_recycling_pass_exhaustive_sweep():
    """Every syncpoint of the recycling pass: 37 schedules (36 of the
    copy loop, one ``rebuild.pipeline_started``) in 30 of 30
    enumerations, traced or not."""
    harness = CrashScheduleHarness(**RECYCLING)
    schedules = harness.enumerate_schedules(include_faults=False)
    assert len(schedules) == 37, "schedule enumeration moved"
    report = harness.run_sweep(schedules=schedules)
    assert report.ok, _fail_report(report)
    assert report.crashes_simulated > 0
    assert sum(o.dead_images_dropped > 0 for o in report.outcomes) > (
        report.schedules_run // 2
    )


# --------------------------------------------------------- scrubber crashes


def _fail_scrub_report(report) -> str:
    lines = [f"{len(report.failures)} scrub schedule(s) failed:"]
    lines.extend(f"  {failure}" for failure in report.failures)
    return "\n".join(lines)


def test_scrub_crash_sweep_all_points():
    """Crash the detect → quarantine → targeted-rebuild → lift ladder at
    every ``scrub.*`` syncpoint.  After each crash, recovery must either
    reconstruct the fence from a durable QUARANTINE record or drop it
    safely, no reader may ever see a raw ChecksumError, and a follow-up
    pass must converge (range healed, or fenced with everything outside
    it intact)."""
    harness = ScrubCrashHarness(key_count=1200, seed=13)
    report = harness.run_sweep()
    assert report.schedules_run >= 6, "scrub syncpoint enumeration shrank"
    assert report.crashes_simulated == report.schedules_run
    assert report.ok, _fail_scrub_report(report)
    # Both recovery behaviors must actually be exercised by the sweep:
    # fences reconstructed from durable SETs, and post-repair crashes
    # that heal on the follow-up pass.
    assert report.refences_seen > 0, "no schedule re-fenced after recovery"
    assert report.heals > 0, "no schedule healed after recovery"


@pytest.mark.skipif(
    "REPRO_FAULT_SEED" not in os.environ,
    reason="randomized smoke runs only when REPRO_FAULT_SEED is set",
)
def test_randomized_resume_schedule_smoke():
    seed = int(os.environ["REPRO_FAULT_SEED"])
    outcome = run_random_schedule(seed, resume_after_recovery=True)
    assert outcome.ok, (
        f"random resume schedule failed (replay with REPRO_FAULT_SEED="
        f"{seed}): {outcome.schedule}: {outcome.error}"
    )

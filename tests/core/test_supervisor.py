"""RebuildSupervisor: retry/backoff and resume; the copy loop's watchdog
and pacing."""

import threading
import time

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.core import rebuild as rebuild_mod
from repro.core import supervisor as supervisor_mod
from repro.core.pacer import PACER_CAP, PACER_STEP, Pacer
from repro.core.rebuild import STORM_RETRIES
from repro.core.supervisor import RebuildSupervisor
from repro.errors import RebuildAbortedError, RebuildError, RebuildWatchdogError
from repro.obs.metrics import Histogram
from repro.storage.faults import FaultPlan
from tests.conftest import contents_as_ints, make_half_empty, pinned_ids


pytestmark = pytest.mark.usefixtures("fast_retries")


def _engine(count: int = 2000, **kw):
    engine = Engine(buffer_capacity=2048, **kw)
    index = engine.create_index(key_len=4)
    make_half_empty(index, count)
    return engine, index, contents_as_ints(index)


STALL = 0.25
"""The watchdog deadline the watchdog tests set: far above a top action
of these small indexes."""


def _stall_at(engine, nth: int) -> None:
    """Hold the copy thread past ``STALL`` once, in top action ``nth``."""
    count = {"n": 0}

    def stall(_ctx):
        count["n"] += 1
        if count["n"] == nth:
            time.sleep(STALL + 0.05)

    engine.syncpoints.on("rebuild.nta_end", stall)


def _crash_at(engine, index, point: str, nth: int) -> None:
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


# -------------------------------------------------------------- happy path


def test_clean_run_is_one_unsupervised_looking_attempt():
    engine, index, expected = _engine()
    report = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8)
    ).run()
    assert report.attempts == 1
    assert report.retries == 0 and report.resumes == 0
    assert report.final is not None and report.final.completed
    assert contents_as_ints(index) == expected
    index.verify()
    c = engine.counters
    assert c.supervisor_retries == 0
    assert c.supervisor_gave_up == 0
    assert c.watchdog_trips == 0


# ----------------------------------------------------------- retry / resume


def test_aborted_rebuild_is_retried_and_resumed():
    engine, index, expected = _engine(4000)
    fails = {"left": 1}

    def flaky(_ctx):
        if fails["left"]:
            fails["left"] -= 1
            raise RuntimeError("injected transient failure")

    # Fail on the 3rd top action: the first two committed batches give the
    # failed attempt durable progress the retry must not repay.
    fired = {"n": 0}

    def arm(_ctx):
        fired["n"] += 1
        if fired["n"] == 3:
            flaky(_ctx)

    engine.syncpoints.on("rebuild.nta_end", arm)
    supervisor = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8)
    )
    report = supervisor.run()
    assert report.attempts == 2
    assert report.retries == 1
    assert report.resumes == 1, "retry did not resume from reported progress"
    assert report.final.completed
    assert contents_as_ints(index) == expected
    index.verify()
    assert engine.counters.supervisor_retries == 1
    assert engine.counters.supervisor_resumes == 1


def test_gives_up_after_max_attempts(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "MAX_ATTEMPTS", 2)
    engine, index, expected = _engine()
    engine.syncpoints.on(
        "rebuild.copy_locked",
        lambda _ctx: (_ for _ in ()).throw(RuntimeError("always broken")),
    )
    supervisor = RebuildSupervisor(index, RebuildConfig(ntasize=4, xactsize=8))
    with pytest.raises(RebuildAbortedError):
        supervisor.run()
    assert engine.counters.supervisor_retries == 1
    assert engine.counters.supervisor_gave_up == 1
    # §4.1.3 all the way down: every aborted attempt left the index whole.
    assert contents_as_ints(index) == expected
    index.verify()


# --------------------------------------------------------- the one channel


@pytest.mark.parametrize("how", ["watchdog", "top_action_raises", "crash"])
def test_every_failure_takes_the_one_channel(monkeypatch, how):
    """However a run fails: one exception type chained from the cause, a
    ``resume_unit`` that ends the copied prefix, an index that verifies —
    and a supervised retry that copies strictly after it and leaves
    nothing unrebuilt.  A crash is the one exception: it comes out as
    itself and recovery takes over.  No way out of ``run`` leaves a frame
    pinned."""
    engine, index, expected = _engine(8000)
    config = RebuildConfig(ntasize=4, xactsize=8)
    cause = RuntimeError("injected failure")
    errors: list[tuple[BaseException, bytes | None]] = []
    left_pinned: list[list[int]] = []  # per run(), returned or raised
    real_run = OnlineRebuild.run

    def recording_run(self, *args, **kwargs):
        try:
            return real_run(self, *args, **kwargs)
        except BaseException as exc:
            errors.append((exc, self.last_report.resume_unit))
            raise
        finally:
            left_pinned.append(pinned_ids(engine))

    monkeypatch.setattr(OnlineRebuild, "run", recording_run)
    supervisor = RebuildSupervisor(index, config)
    done = {"top_actions": 0, "tripped": False}
    copied_low: list[bytes] = []  # low units copied after the failure
    monkeypatch.setattr(rebuild_mod, "WATCHDOG_TIMEOUT", STALL)

    def on_nta_end(ctx):
        if errors:
            copied_low.append(ctx["low_unit"])
            return
        done["top_actions"] += 1
        if done["top_actions"] != 3:
            # The failure finds the run with a transaction committed and
            # more to do.
            return
        if how == "watchdog":
            time.sleep(STALL + 0.05)
        elif how == "crash":
            raise CrashPoint("rebuild.nta_end")

    def on_copy_locked(_ctx):
        if (
            how == "top_action_raises"
            and done["top_actions"] >= 3
            and not done["tripped"]
        ):
            done["tripped"] = True
            raise cause

    engine.syncpoints.on("rebuild.nta_end", on_nta_end)
    engine.syncpoints.on("rebuild.copy_locked", on_copy_locked)

    if how == "crash":
        with pytest.raises(CrashPoint):
            supervisor.run()
        ((error, resume_unit),) = errors
        assert isinstance(error, CrashPoint) and resume_unit is not None
        engine.crash()
        engine.recover()
        index = engine.index(1)
        checkpoint = engine.rebuild_checkpoint(1)
        floor = checkpoint.resume_key()
        report = RebuildSupervisor(index, config).run(
            resume_checkpoint=checkpoint
        )
    else:
        report = supervisor.run()
        assert report.attempts == 2 and report.resumes == 1
        ((error, floor),) = errors
        assert type(error) is RebuildAbortedError
        if how == "watchdog":
            assert isinstance(error.__cause__, RebuildWatchdogError)
        else:
            assert error.__cause__ is cause
        failed = report.attempt_reports[0]
        assert failed.aborted and not failed.completed
        assert failed.resume_unit == floor
    assert floor is not None
    assert len(left_pinned) == 2 and not any(left_pinned)
    assert copied_low and min(copied_low) > floor
    assert report.final.completed
    assert contents_as_ints(index) == expected
    assert index.verify().leaf_fill > 0.85  # no stretch was skipped


# ------------------------------------------------------------------ watchdog


def test_watchdog_trip_commits_its_transaction(monkeypatch):
    """A trip ends a plain run at the boundary after the slow top action:
    that action's transaction is forced and committed with its progress
    record, so restart recovers exactly the floor the run reported."""
    monkeypatch.setattr(rebuild_mod, "WATCHDOG_TIMEOUT", STALL)
    engine, index, expected = _engine(4000)
    rebuild = OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8))
    said: list[dict] = []
    engine.syncpoints.on("rebuild.supervisor.watchdog", said.append)
    _stall_at(engine, 3)
    with pytest.raises(RebuildAbortedError) as raised:
        rebuild.run()
    error = raised.value.__cause__
    assert isinstance(error, RebuildWatchdogError)
    report = rebuild.last_report
    assert report.aborted and not report.completed
    # Both say what stalled: which index, how far it got, for how long.
    (what,) = said
    assert what["index_id"] == 1
    assert what["resume_unit"] == report.resume_unit is not None
    assert STALL < what["stalled_seconds"] < 5.0
    assert "index 1" in str(error)
    assert f"{what['stalled_seconds']:.1f}s" in str(error)
    assert engine.counters.watchdog_trips == 1
    assert report.top_actions == 3 and report.transactions == 2
    engine.crash()
    engine.recover()
    assert engine.rebuild_checkpoint(1).resume_key() == report.resume_unit
    index = engine.index(1)
    assert contents_as_ints(index) == expected
    index.verify()


def test_watchdog_ignores_a_finished_run(monkeypatch):
    """The watchdog's clock starts with each run: the time since the
    previous run finished is no top action's."""
    monkeypatch.setattr(rebuild_mod, "WATCHDOG_TIMEOUT", STALL)
    engine, index, expected = _engine(4000)
    rebuild = OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8))
    first = rebuild.run(max_pages=8)
    assert not first.completed
    time.sleep(STALL + 0.05)
    checkpoint = engine.rebuild_checkpoint(1)
    assert checkpoint.resume_key() == first.resume_unit
    assert rebuild.run(resume_checkpoint=checkpoint).completed
    assert engine.counters.watchdog_trips == 0
    assert contents_as_ints(index) == expected
    index.verify()


# ------------------------------------------------------------- caller errors


@pytest.mark.parametrize("how", ["stale_checkpoint", "claim_held"])
def test_a_callers_error_is_not_retried(how):
    """Only an aborted run is retried.  A stale checkpoint or a rebuild
    already running on the index is the caller's error: it comes out of
    the first attempt, and no retry or give-up is counted."""
    engine, index, _ = _engine(4000)
    config = RebuildConfig(ntasize=4, xactsize=8)
    checkpoint = None
    if how == "stale_checkpoint":
        # Two crashed rebuilds: the first one's checkpoint is superseded
        # by the second one's epoch.
        for nth in (2, 1):
            _crash_at(engine, index, "rebuild.txn_committed", nth)
            engine.recover()
            index = engine.index(1)
            checkpoint = checkpoint or engine.rebuild_checkpoint(1)
        match = "stale"
    else:
        assert index.rebuild_claim.acquire(blocking=False)
        match = "already has a rebuild in progress"
    with pytest.raises(RebuildError, match=match) as raised:
        RebuildSupervisor(index, config).run(resume_checkpoint=checkpoint)
    assert type(raised.value) is RebuildError
    assert engine.counters.supervisor_retries == 0
    assert engine.counters.supervisor_gave_up == 0


# ------------------------------------------------------------------ pacing


def _step_each_top_action(monkeypatch, engine, pacer, before_step):
    """Run a paced rebuild stepping at every boundary; ``before_step(n)``
    runs at the end of top action ``n``.  Returns the pacer's delay as
    each top action ended (what the previous step left)."""
    monkeypatch.setattr(rebuild_mod, "PACE_INTERVAL", 0.0)
    delays: list[float] = []

    def on_nta_end(_ctx):
        delays.append(pacer.delay)
        before_step(len(delays))

    engine.syncpoints.on("rebuild.nta_end", on_nta_end)
    index = engine.index(1)
    OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8), pacer).run()
    return delays


def test_storm_step_throttles_then_decays(monkeypatch):
    engine, _index, _ = _engine(4000)
    bursts = {1: STORM_RETRIES, 2: STORM_RETRIES + 1, 3: 1}

    def storm(n):
        engine.counters.add("io_retries", bursts.get(n, 0))

    delays = _step_each_top_action(monkeypatch, engine, Pacer(), storm)
    # Two stormy steps widen; calm ones (one retry is no storm) decay.
    assert delays[:5] == pytest.approx(
        [0.0, PACER_STEP, 2 * PACER_STEP, PACER_STEP, 0.0]
    )
    assert engine.counters.supervisor_throttles == 2


def test_latency_budget_breach_throttles(monkeypatch):
    """A pacer over a workload's histograms: a step whose window holds an
    op over the budget widens the rebuild's sleep, and the same op does
    not keep it widened — the next window is empty, and calm."""
    engine, _index, _ = _engine(4000)
    oltp = Histogram("oltp_insert_seconds")
    ops = {1: 0.001, 2: 0.080}

    def record(n):
        if n in ops:
            oltp.record(ops[n])

    pacer = Pacer([oltp], budget_ms=50.0)
    delays = _step_each_top_action(monkeypatch, engine, pacer, record)
    assert delays[:4] == pytest.approx([0.0, 0.0, PACER_STEP, 0.0])
    assert engine.counters.supervisor_throttles == 1


def test_pacer_widens_to_its_cap_and_decays_to_zero():
    pacer = Pacer()
    steps = round(PACER_CAP / PACER_STEP)
    assert all(pacer.step(pressured=True) for _ in range(steps))
    assert pacer.delay == pytest.approx(PACER_CAP)
    assert not pacer.step(pressured=True)  # at the cap: no wider
    assert pacer.delay == pytest.approx(PACER_CAP)
    assert not any(pacer.step() for _ in range(steps))
    assert pacer.delay == 0.0


def test_a_plain_run_never_sleeps_and_fires_no_supervisor_point(
    monkeypatch,
):
    engine, index, expected = _engine(4000)
    copy_thread = threading.get_ident()
    sleepers: list[int] = []
    real_sleep = time.sleep

    def sleep(seconds):
        sleepers.append(threading.get_ident())
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", sleep)
    points: list[str] = []
    engine.syncpoints.observe(lambda name, _attrs: points.append(name))
    OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    assert copy_thread not in sleepers
    assert "rebuild.nta_end" in points
    assert not [p for p in points if p.startswith("rebuild.supervisor.")]
    assert contents_as_ints(index) == expected


def test_a_supervised_run_starts_only_the_io_threads(monkeypatch, pipelined):
    engine, index, expected = _engine(4000)
    started: list[str] = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    report = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8)
    ).run()
    assert report.final.completed
    assert started and all(name.startswith("io-") for name in started)
    assert contents_as_ints(index) == expected


def test_supervised_rebuild_completes_under_transient_storm(monkeypatch):
    monkeypatch.setattr(rebuild_mod, "PACE_INTERVAL", 0.02)
    monkeypatch.setattr(rebuild_mod, "STORM_RETRIES", 4)
    plan = FaultPlan(
        seed=23,
        transient_read_rate=0.02,
        transient_write_rate=0.02,
        max_rate_faults=150,
    )
    engine = Engine(buffer_capacity=2048, fault_plan=plan, io_retry_limit=20)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 3000)
    expected = contents_as_ints(index)
    supervisor = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8)
    )
    report = supervisor.run()
    assert report.final.completed
    assert contents_as_ints(index) == expected
    index.verify()


# --------------------------------------------------------------------- knobs


def test_rebuild_config_validation():
    with pytest.raises(RebuildError):
        RebuildConfig(xactsize=8, ntasize=32)

"""RebuildSupervisor: retry/backoff, watchdog, throttling."""

import threading
import time

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.core import supervisor as supervisor_mod
from repro.core.supervisor import (
    PACER_CAP,
    PACER_STEP,
    STORM_RETRIES,
    Pacer,
    RebuildSupervisor,
    SupervisorConfig,
    SupervisorReport,
    _Monitor,
)
from repro.errors import RebuildAbortedError, RebuildError, RebuildWatchdogError
from repro.obs.metrics import Histogram
from repro.storage.faults import FaultPlan
from tests.conftest import contents_as_ints, make_half_empty, pinned_ids

FAST = SupervisorConfig(retry_backoff=0.001)


def _engine(count: int = 2000, **kw):
    engine = Engine(buffer_capacity=2048, **kw)
    index = engine.create_index(key_len=4)
    make_half_empty(index, count)
    return engine, index, contents_as_ints(index)


# -------------------------------------------------------------- happy path


def test_clean_run_is_one_unsupervised_looking_attempt():
    engine, index, expected = _engine()
    report = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8), FAST
    ).run()
    assert report.attempts == 1
    assert report.retries == 0 and report.resumes == 0
    assert not report.gave_up
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
        index, RebuildConfig(ntasize=4, xactsize=8), FAST
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


def test_gives_up_after_max_attempts():
    engine, index, expected = _engine()
    engine.syncpoints.on(
        "rebuild.copy_locked",
        lambda _ctx: (_ for _ in ()).throw(RuntimeError("always broken")),
    )
    supervisor = RebuildSupervisor(
        index,
        RebuildConfig(ntasize=4, xactsize=8),
        SupervisorConfig(max_attempts=2, retry_backoff=0.001),
    )
    with pytest.raises(RebuildAbortedError):
        supervisor.run()
    assert engine.counters.supervisor_retries == 1
    assert engine.counters.supervisor_gave_up == 1
    # §4.1.3 all the way down: every aborted attempt left the index whole.
    assert contents_as_ints(index) == expected
    index.verify()


def test_stop_interrupts_retry_backoff(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "RETRY_BACKOFF_CAP", 30.0)
    engine, index, _ = _engine(1000)
    engine.syncpoints.on(
        "rebuild.copy_locked",
        lambda _ctx: (_ for _ in ()).throw(RuntimeError("always broken")),
    )
    backing_off = threading.Event()
    engine.syncpoints.on(
        "rebuild.supervisor.retry", lambda _ctx: backing_off.set()
    )
    supervisor = RebuildSupervisor(
        index,
        RebuildConfig(ntasize=4, xactsize=8),
        SupervisorConfig(max_attempts=3, retry_backoff=30.0),
    )
    result: dict = {}

    def drive():
        try:
            supervisor.run()
        except RebuildError as exc:
            result["error"] = exc

    thread = threading.Thread(target=drive)
    start = time.monotonic()
    thread.start()
    # Attempt 1 has failed and the 30 s backoff is about to begin (a
    # stop() that lands before the wait cuts it just the same).
    assert backing_off.wait(10.0)
    supervisor.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "stop() did not cut the backoff short"
    assert time.monotonic() - start < 10.0
    assert isinstance(result.get("error"), RebuildAbortedError)


# --------------------------------------------------------- the one channel


@pytest.mark.parametrize("how", ["fail_midrun", "top_action_raises", "crash"])
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
    supervisor = RebuildSupervisor(index, config, FAST)
    done = {"top_actions": 0, "tripped": False}
    copied_low: list[bytes] = []  # low units copied after the failure

    def fail_from_another_thread():
        poster = threading.Thread(
            target=supervisor.rebuild.fail, args=(cause,)
        )
        poster.start()
        poster.join(10.0)

    def on_nta_end(ctx):
        if errors:
            copied_low.append(ctx["low_unit"])
            return
        done["top_actions"] += 1
        if done["top_actions"] != 3:
            # The failure finds the run with a transaction committed and
            # more to do.
            return
        if how == "fail_midrun":
            fail_from_another_thread()
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
        report = RebuildSupervisor(index, config, FAST).run(
            resume_checkpoint=checkpoint
        )
    else:
        report = supervisor.run()
        assert report.attempts == 2 and report.resumes == 1
        ((error, floor),) = errors
        assert type(error) is RebuildAbortedError
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


def _monitor_fixture(count=1000):
    engine, index, _ = _engine(count)
    config = RebuildConfig()
    supervisor = RebuildSupervisor(index, config, SupervisorConfig())
    rebuild = OnlineRebuild(index, config)
    monitor = _Monitor(supervisor, rebuild, SupervisorReport())
    return engine, rebuild, monitor


def test_watchdog_sweep_fails_stale_worker(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "WATCHDOG_TIMEOUT", 0.05)
    engine, rebuild, monitor = _monitor_fixture()
    rebuild.heartbeat = time.monotonic() - 1.0
    said: list[dict] = []
    engine.syncpoints.on("rebuild.supervisor.watchdog", said.append)
    monitor._sweep()
    error = rebuild._state.error
    assert isinstance(error, RebuildWatchdogError)
    # Both say what stalled: which index, how far it got, for how long.
    (what,) = said
    assert what["index_id"] == 1 and what["resume_unit"] is None
    assert 1.0 <= what["stalled_seconds"] < 5.0
    assert "index 1" in str(error) and "resume_unit None" in str(error)
    assert f"{what['stalled_seconds']:.1f}s" in str(error)
    assert rebuild._state.stop.is_set()
    assert engine.counters.watchdog_trips == 1
    assert monitor.report.watchdog_trips == 1
    # One trip per attempt: the sweep does not pile on more errors.
    monitor._sweep()
    assert engine.counters.watchdog_trips == 1


def test_watchdog_sweep_leaves_live_workers_alone():
    engine, rebuild, monitor = _monitor_fixture()
    rebuild.heartbeat = time.monotonic()
    monitor._sweep()
    assert rebuild._state.error is None
    assert engine.counters.watchdog_trips == 0


def test_watchdog_ignores_a_finished_run(monkeypatch):
    """A finished run has no heartbeat to go stale: with the copy loop
    done longer ago than the deadline, the sweep must not trip on it."""
    engine, index, expected = _engine(4000)
    config = RebuildConfig(ntasize=4, xactsize=8)
    supervisor = RebuildSupervisor(index, config, SupervisorConfig())
    rebuild = OnlineRebuild(index, config)
    monitor = _Monitor(supervisor, rebuild, SupervisorReport())
    beats: list[float | None] = []
    engine.syncpoints.on(
        "rebuild.nta_end", lambda _ctx: beats.append(rebuild.heartbeat)
    )
    rebuild.run()
    assert beats and None not in beats
    assert rebuild.heartbeat is None
    # Any heartbeat in the past would now be past the deadline.
    monkeypatch.setattr(supervisor_mod, "WATCHDOG_TIMEOUT", 0.0)
    monitor._sweep()
    assert rebuild._state.error is None
    assert monitor.report.watchdog_trips == 0
    assert engine.counters.watchdog_trips == 0
    assert contents_as_ints(index) == expected
    index.verify()


def test_watchdog_trip_retries_and_completes(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "WATCHDOG_TIMEOUT", 0.1)
    monkeypatch.setattr(supervisor_mod, "WATCHDOG_POLL", 0.02)
    engine, index, expected = _engine(4000)
    tripped = threading.Event()
    engine.syncpoints.on(
        "rebuild.supervisor.watchdog", lambda _ctx: tripped.set()
    )

    def stall_once(_ctx):
        # Hold the copy thread until the watchdog has seen it stalled.
        if not tripped.is_set():
            assert tripped.wait(10.0)

    engine.syncpoints.on("rebuild.txn_committed", stall_once)
    supervisor = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8), FAST
    )
    report = supervisor.run()
    assert report.watchdog_trips >= 1
    assert report.attempts >= 2
    assert report.final.completed
    assert contents_as_ints(index) == expected
    index.verify()
    assert engine.counters.watchdog_trips >= 1


# ---------------------------------------------------------------- throttling


def test_storm_sweep_throttles_then_decays():
    engine, rebuild, monitor = _monitor_fixture()
    engine.counters.add("io_retries", STORM_RETRIES)
    monitor._sweep()
    assert rebuild.throttle_sleep == pytest.approx(PACER_STEP)
    assert engine.counters.supervisor_throttles == 1
    # Another stormy sweep widens further, up to the cap.
    engine.counters.add("io_retries", STORM_RETRIES + 1)
    monitor._sweep()
    assert rebuild.throttle_sleep == pytest.approx(2 * PACER_STEP)
    # Calm sweeps (one retry is no storm) decay back to zero.
    engine.counters.add("io_retries", 1)
    monitor._sweep()
    monitor._sweep()
    assert rebuild.throttle_sleep == 0.0
    assert monitor.report.throttles == 2


def test_latency_budget_breach_throttles():
    """A pacer over a workload's histograms: a sweep whose window holds an
    op over the budget widens the rebuild's sleep, and the same op does
    not keep it widened — the next window is empty, and calm."""
    engine, index, _ = _engine(1000)
    oltp = Histogram("oltp_insert_seconds")
    config = RebuildConfig()
    supervisor = RebuildSupervisor(
        index, config, pacer=Pacer([oltp], budget_ms=50.0)
    )
    rebuild = OnlineRebuild(index, config)
    monitor = _Monitor(supervisor, rebuild, SupervisorReport())
    oltp.record(0.001)
    monitor._sweep()
    assert rebuild.throttle_sleep == 0.0
    oltp.record(0.080)
    monitor._sweep()
    assert rebuild.throttle_sleep == pytest.approx(PACER_STEP)
    assert engine.counters.supervisor_throttles == 1
    monitor._sweep()
    assert rebuild.throttle_sleep == 0.0


def test_pacer_widens_to_its_cap_and_decays_to_zero():
    pacer = Pacer()
    steps = round(PACER_CAP / PACER_STEP)
    assert all(pacer.step(pressured=True) for _ in range(steps))
    assert pacer.delay == pytest.approx(PACER_CAP)
    assert not pacer.step(pressured=True)  # at the cap: no wider
    assert pacer.delay == pytest.approx(PACER_CAP)
    assert not any(pacer.step() for _ in range(steps))
    assert pacer.delay == 0.0


def test_raising_sweep_is_recorded_and_the_attempt_completes(monkeypatch):
    """Monitoring must not kill a run, and must not fail silently either:
    the first sweep that raises is in the report and in the trace."""
    monkeypatch.setattr(supervisor_mod, "WATCHDOG_POLL", 0.005)
    engine = Engine(buffer_capacity=2048, trace=True)
    index = engine.create_index(key_len=4)
    make_half_empty(index, 2000)
    expected = contents_as_ints(index)
    swept = threading.Event()

    def broken_sweep(self):
        swept.set()
        raise RuntimeError("sweep bug")

    monkeypatch.setattr(_Monitor, "_sweep", broken_sweep)
    # The copy thread waits for the monitor's first sweep at its first
    # transaction boundary.
    engine.syncpoints.on(
        "rebuild.txn_committed", lambda _ctx: swept.wait(10.0)
    )
    report = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8), FAST
    ).run()
    assert swept.is_set()
    assert report.attempts == 1 and report.final.completed
    assert "RuntimeError: sweep bug" in report.monitor_error
    events = [
        s for s in engine.ctx.tracer.spans()
        if s.name == "rebuild.supervisor.monitor_error"
    ]
    assert len(events) == 1, "one event for the first error, not one a sweep"
    assert contents_as_ints(index) == expected


def test_supervised_rebuild_completes_under_transient_storm(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "WATCHDOG_POLL", 0.02)
    monkeypatch.setattr(supervisor_mod, "STORM_RETRIES", 4)
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
        index, RebuildConfig(ntasize=4, xactsize=8), FAST
    )
    report = supervisor.run()
    assert report.final.completed and not report.gave_up
    assert contents_as_ints(index) == expected
    index.verify()


# --------------------------------------------------------------------- knobs


def test_policy_validation():
    with pytest.raises(RebuildError):
        SupervisorConfig(max_attempts=0)
    with pytest.raises(RebuildError):
        SupervisorConfig(retry_backoff=-1.0)


def test_rebuild_config_validation():
    with pytest.raises(RebuildError):
        RebuildConfig(xactsize=8, ntasize=32)

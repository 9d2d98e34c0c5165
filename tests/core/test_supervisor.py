"""RebuildSupervisor: retry/backoff, watchdog, throttling."""

import threading
import time

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.core import supervisor as supervisor_mod
from repro.core.supervisor import (
    RebuildSupervisor,
    SupervisorConfig,
    SupervisorReport,
    _Monitor,
)
from repro.errors import RebuildAbortedError, RebuildError, RebuildWatchdogError
from repro.storage.faults import FaultPlan
from tests.conftest import contents_as_ints, make_half_empty, pinned_ids

FAST = SupervisorConfig(retry_backoff=0.001, retry_backoff_cap=0.01)


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


def test_stop_interrupts_retry_backoff():
    engine, index, _ = _engine(1000)
    engine.syncpoints.on(
        "rebuild.copy_locked",
        lambda _ctx: (_ for _ in ()).throw(RuntimeError("always broken")),
    )
    supervisor = RebuildSupervisor(
        index,
        RebuildConfig(ntasize=4, xactsize=8),
        SupervisorConfig(max_attempts=3, retry_backoff=30.0,
                         retry_backoff_cap=30.0),
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
    time.sleep(0.3)  # let attempt 1 fail and the 30 s backoff begin
    supervisor.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "stop() did not cut the backoff short"
    assert time.monotonic() - start < 10.0
    assert isinstance(result.get("error"), RebuildAbortedError)


# --------------------------------------------------------- the one channel


@pytest.mark.parametrize(
    "how", ["fail_midrun", "fail_paused", "top_action_raises", "crash"]
)
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
        elif how == "fail_paused":
            supervisor.rebuild.pause()
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
    engine.syncpoints.on(
        "rebuild.paused", lambda _ctx: fail_from_another_thread()
    )

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
    rebuild._beat = time.monotonic() - 1.0
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
    rebuild._beat = time.monotonic()
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
    beats: list[dict] = []
    engine.syncpoints.on(
        "rebuild.nta_end", lambda _ctx: beats.append(rebuild.heartbeats())
    )
    rebuild.run()
    assert beats and all(set(beat) == {0} for beat in beats)
    assert rebuild.heartbeats() == {}
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
    engine, index, expected = _engine(4000)
    stalled = {"done": False}

    def stall_once(_ctx):
        if not stalled["done"]:
            stalled["done"] = True
            time.sleep(0.6)  # well past the deadline patched above

    engine.syncpoints.on("rebuild.txn_committed", stall_once)
    supervisor = RebuildSupervisor(
        index,
        RebuildConfig(ntasize=4, xactsize=8),
        SupervisorConfig(watchdog_poll=0.02, retry_backoff=0.001),
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
    policy = monitor.supervisor.policy
    engine.counters.add("io_retries", policy.storm_retry_threshold + 1)
    monitor._sweep()
    assert rebuild.throttle_sleep == pytest.approx(policy.throttle_step)
    assert engine.counters.supervisor_throttles == 1
    # Another stormy sweep widens further, up to the cap.
    engine.counters.add("io_retries", policy.storm_retry_threshold + 1)
    monitor._sweep()
    assert rebuild.throttle_sleep == pytest.approx(2 * policy.throttle_step)
    # Calm sweeps decay back toward the configured baseline.
    monitor._sweep()
    monitor._sweep()
    assert rebuild.throttle_sleep == pytest.approx(0.0)


def test_latency_budget_breach_throttles():
    engine, index, _ = _engine(1000)

    class Stats:
        def latency_percentiles(self):
            return {"all": {"p50": 1.0, "p95": 20.0, "p99": 80.0}}

    config = RebuildConfig()
    supervisor = RebuildSupervisor(
        index, config,
        SupervisorConfig(storm_retry_threshold=0, latency_budget_ms=50.0),
        oltp_stats=Stats(),
    )
    rebuild = OnlineRebuild(index, config)
    monitor = _Monitor(supervisor, rebuild, SupervisorReport())
    monitor._sweep()
    assert rebuild.throttle_sleep > 0.0
    assert engine.counters.supervisor_throttles == 1


def test_supervised_rebuild_completes_under_transient_storm():
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
        index,
        RebuildConfig(ntasize=4, xactsize=8),
        SupervisorConfig(watchdog_poll=0.02, storm_retry_threshold=4,
                         retry_backoff=0.001),
    )
    report = supervisor.run()
    assert report.final.completed and not report.gave_up
    assert contents_as_ints(index) == expected
    index.verify()


# ------------------------------------------------------------ pause / resume


def test_pause_gate_holds_rebuild_between_top_actions():
    engine, index, expected = _engine()
    supervisor = RebuildSupervisor(
        index, RebuildConfig(ntasize=4, xactsize=8), FAST
    )
    paused = threading.Event()
    engine.syncpoints.on("rebuild.paused", lambda _ctx: paused.set())

    def pause_once(_ctx):
        rebuild = supervisor.rebuild
        if rebuild is not None and not paused.is_set():
            rebuild.pause()

    engine.syncpoints.on("rebuild.txn_committed", pause_once)

    def release():
        assert paused.wait(10.0)
        assert supervisor.rebuild.paused
        supervisor.rebuild.unpause()

    releaser = threading.Thread(target=release)
    releaser.start()
    report = supervisor.run()
    releaser.join(timeout=10.0)
    assert paused.is_set(), "rebuild never parked on the pause gate"
    assert report.final.completed
    assert contents_as_ints(index) == expected


# --------------------------------------------------------------------- knobs


def test_policy_validation():
    with pytest.raises(RebuildError):
        SupervisorConfig(max_attempts=0)
    with pytest.raises(RebuildError):
        SupervisorConfig(watchdog_poll=0.0)
    with pytest.raises(RebuildError):
        SupervisorConfig(retry_backoff=-1.0)


def test_rebuild_config_validation():
    with pytest.raises(RebuildError):
        RebuildConfig(pipeline_depth=-1)

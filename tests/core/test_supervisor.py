"""RebuildSupervisor: retry/backoff, watchdog, throttling, degradation."""

import threading
import time

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.core.supervisor import (
    RebuildSupervisor,
    SupervisorConfig,
    SupervisorReport,
    _Monitor,
)
from repro.errors import RebuildAbortedError, RebuildError, RebuildWatchdogError
from repro.storage.faults import FaultPlan
from repro.storage.io_scheduler import CompletionToken
from tests.conftest import contents_as_ints, make_half_empty

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


# --------------------------------------------------------------- degradation


def test_attempt_degradation_ladder():
    engine, index, _ = _engine(1000)
    config = RebuildConfig(parallel_workers=4)
    supervisor = RebuildSupervisor(index, config, SupervisorConfig())
    first = supervisor._attempt(1)
    assert first.config is config
    assert first.throttle_sleep == 0.0
    second = supervisor._attempt(2)
    assert second.config.parallel_workers == 2
    assert second.throttle_sleep == pytest.approx(0.002)
    third = supervisor._attempt(3)
    assert third.config.parallel_workers == 1  # serial fallback
    assert third.throttle_sleep == pytest.approx(0.004)
    assert supervisor._attempt(5).config.parallel_workers == 1
    # The monitor widens from, and decays back to, the attempt's own
    # baseline — never below what the ladder set.
    policy = supervisor.policy
    monitor = _Monitor(supervisor, second, SupervisorReport())
    engine.counters.add("io_retries", policy.storm_retry_threshold + 1)
    monitor._sweep()
    assert second.throttle_sleep == pytest.approx(
        0.002 + policy.throttle_step
    )
    monitor._sweep()
    monitor._sweep()
    assert second.throttle_sleep == pytest.approx(0.002)


# ------------------------------------------------------------------ watchdog


def _monitor_fixture(count=1000, **config_kw):
    engine, index, _ = _engine(count)
    config = RebuildConfig(**config_kw)
    supervisor = RebuildSupervisor(index, config, SupervisorConfig())
    rebuild = OnlineRebuild(index, config)
    monitor = _Monitor(supervisor, rebuild, SupervisorReport())
    return engine, rebuild, monitor


def test_watchdog_sweep_fails_stale_worker():
    engine, rebuild, monitor = _monitor_fixture(watchdog_timeout=0.05)
    rebuild._beats[0] = time.monotonic() - 1.0
    monitor._sweep()
    assert isinstance(rebuild._poison, RebuildWatchdogError)
    assert engine.counters.watchdog_trips == 1
    assert monitor.report.watchdog_trips == 1
    # One trip per attempt: the sweep does not pile on more poison.
    monitor._sweep()
    assert engine.counters.watchdog_trips == 1


def test_watchdog_sweep_leaves_live_workers_alone():
    engine, rebuild, monitor = _monitor_fixture(watchdog_timeout=60.0)
    rebuild._beats[0] = time.monotonic()
    monitor._sweep()
    assert rebuild._poison is None
    assert engine.counters.watchdog_trips == 0


def test_watchdog_trip_retries_and_completes():
    engine, index, expected = _engine(4000)
    stalled = {"done": False}

    def stall_once(_ctx):
        if not stalled["done"]:
            stalled["done"] = True
            time.sleep(0.6)  # well past watchdog_timeout below

    engine.syncpoints.on("rebuild.txn_committed", stall_once)
    supervisor = RebuildSupervisor(
        index,
        RebuildConfig(ntasize=4, xactsize=8, watchdog_timeout=0.1),
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


# ------------------------------------------------------------- seam deadline


def test_seam_wait_deadline_raises_cleanly():
    engine, index, _ = _engine(1000)
    rebuild = OnlineRebuild(index, RebuildConfig(watchdog_timeout=0.05))
    token = CompletionToken()  # the left neighbor never completes it
    busy_wait = rebuild._seam_wait(token, None)
    deadline = time.monotonic() + 5.0
    with pytest.raises(RebuildError, match="watchdog_timeout"):
        while time.monotonic() < deadline:
            busy_wait()
    assert engine.counters.seam_wait_timeouts == 1


# --------------------------------------------------------------------- knobs


def test_policy_validation():
    with pytest.raises(RebuildError):
        SupervisorConfig(max_attempts=0)
    with pytest.raises(RebuildError):
        SupervisorConfig(watchdog_poll=0.0)
    with pytest.raises(RebuildError):
        SupervisorConfig(retry_backoff=-1.0)


def test_rebuild_config_validation():
    with pytest.raises(Exception):
        RebuildConfig(watchdog_timeout=0.0)

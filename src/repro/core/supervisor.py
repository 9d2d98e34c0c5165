"""Rebuild supervision: retry with backoff, watchdog, graceful degradation.

The paper's §4.1.3 abort protocol guarantees an interrupted rebuild keeps
every completed top action, and PR 7's durable ``REBUILD_PROGRESS``
records make that progress survive a crash — but someone still has to
*restart* the rebuild.  :class:`RebuildSupervisor` owns that lifecycle:

* **Retry with capped exponential backoff.**  A
  :class:`~repro.errors.RebuildAbortedError` (injected fault, lock storm,
  writer failure) is retried up to ``max_attempts`` times, sleeping
  ``retry_backoff * 2**attempt`` capped at ``retry_backoff_cap`` — the
  same policy shape as :meth:`BufferPool.retrying`, one layer up.  Each
  retry *resumes* from the failed run's ``resume_unit`` (the §4.1.3
  guarantee makes that sound: completed top actions were flushed and
  committed before the abort path raised), so work is never repaid.

* **Watchdog.**  A monitor thread polls the rebuild's heartbeat; a copy
  loop still running with no completed top action for
  ``WATCHDOG_TIMEOUT`` seconds is failed *cleanly* — through
  :meth:`OnlineRebuild.fail`, the run's first-error-wins channel, which
  winds it down at its next top-action boundary — rather than left to
  hang the run.

* **Graceful degradation.**  The monitor watches transient-fault traffic
  (the ``io_retries`` counter — the FaultyDisk's visible error rate) and,
  when given an :class:`~repro.workload.runner.OltpStats`, the workload's
  p99 latency.  Pressure widens the rebuild's top-action sleep (shedding
  I/O and lock traffic) instead of aborting; calm decays it back.  With
  no supervisor, none of this machinery runs.

Syncpoints ``rebuild.supervisor.retry`` / ``resume`` / ``gave_up`` /
``watchdog`` / ``throttle`` and the matching counters make every decision
observable and crash-schedulable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.btree.tree import BTree
from repro.core.config import RebuildConfig
from repro.core.rebuild import OnlineRebuild, RebuildReport
from repro.errors import (
    RebuildAbortedError,
    RebuildError,
    RebuildWatchdogError,
)
from repro.wal.recovery import RebuildCheckpoint

WATCHDOG_TIMEOUT = 60.0
"""Seconds without a completed top action before the watchdog fails a
running rebuild."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs of one :class:`RebuildSupervisor`."""

    max_attempts: int = 5
    """Total rebuild attempts (first run + retries) before giving up."""
    retry_backoff: float = 0.05
    """Base retry sleep in seconds, doubled per failed attempt."""
    retry_backoff_cap: float = 2.0
    """Upper bound on one retry sleep."""
    watchdog_poll: float = 0.25
    """Seconds between monitor sweeps (heartbeats, error rates, latency)."""
    storm_retry_threshold: int = 8
    """``io_retries`` counter growth per poll that counts as a transient
    fault storm (0 disables storm throttling)."""
    throttle_step: float = 0.002
    """Seconds added to the running rebuild's top-action sleep per
    pressure observation."""
    throttle_cap: float = 0.05
    """Upper bound on the monitor-imposed top-action sleep."""
    latency_budget_ms: float = 0.0
    """OLTP p99 budget in milliseconds; breaches throttle the rebuild.
    0 disables latency-based throttling (or pass no ``oltp_stats``)."""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RebuildError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.retry_backoff < 0 or self.retry_backoff_cap < 0:
            raise RebuildError("retry backoff knobs must be >= 0")
        if self.watchdog_poll <= 0:
            raise RebuildError(
                f"watchdog_poll must be > 0, got {self.watchdog_poll}"
            )


@dataclass
class SupervisorReport:
    """What one supervised rebuild lifecycle did."""

    attempts: int = 0
    retries: int = 0
    resumes: int = 0
    """Retries that restarted from a durable checkpoint or a failed
    attempt's reported progress instead of from the first leaf."""
    throttles: int = 0
    watchdog_trips: int = 0
    gave_up: bool = False
    final: RebuildReport | None = None
    attempt_reports: list[RebuildReport] = field(default_factory=list)


class RebuildSupervisor:
    """Owns one index's rebuild lifecycle: run, watch, retry, throttle.

    One supervisor drives one rebuild to completion (or exhaustion); it is
    not reentrant.  ``oltp_stats`` may be a live
    :class:`~repro.workload.runner.OltpStats` that a concurrent workload
    appends latency samples to — the monitor reads its percentiles to
    detect OLTP pressure.
    """

    def __init__(
        self,
        tree: BTree,
        config: RebuildConfig | None = None,
        policy: SupervisorConfig | None = None,
        oltp_stats=None,
    ) -> None:
        self.tree = tree
        self.ctx = tree.ctx
        self.config = config if config is not None else RebuildConfig()
        self.policy = policy if policy is not None else SupervisorConfig()
        self.oltp_stats = oltp_stats
        self.rebuild: OnlineRebuild | None = None
        """The attempt currently running (tests poke its gate)."""
        self._wake = threading.Event()  # cuts retry backoff short on stop
        self._stopped = False

    def stop(self) -> None:
        """Cut a retry backoff short and fail the current attempt; the
        in-flight top action still finishes or aborts cleanly."""
        self._stopped = True
        self._wake.set()
        rebuild = self.rebuild
        if rebuild is not None:
            rebuild.fail(RebuildAbortedError("supervisor stopped"))

    # -------------------------------------------------------------- lifecycle

    def run(
        self,
        resume_checkpoint: RebuildCheckpoint | None = None,
        start_key: bytes | None = None,
        end_key: bytes | None = None,
    ) -> SupervisorReport:
        """Drive the rebuild to completion, retrying as needed.
        ``resume_checkpoint`` (from :meth:`Engine.recover`) resumes an
        interrupted rebuild's durable progress; later attempts resume
        from whatever the failed attempt itself reported.

        ``start_key`` / ``end_key`` scope every attempt to one key range —
        the integrity scrubber's *targeted repair* dispatch (a quarantined
        segment is rebuilt through here, with the same retry/watchdog/
        throttle machinery as a full rebuild).  Retries keep the end bound
        and resume strictly after the failed attempt's progress, so a
        range repair never repays completed top actions either.

        Raises the last attempt's error after ``max_attempts`` failures
        (counter ``supervisor_gave_up``); re-raises a
        :class:`CrashPoint` immediately — a simulated power failure is
        not retryable by definition.
        """
        ctx, policy = self.ctx, self.policy
        report = SupervisorReport()
        resume_after: bytes | None = None
        last_error: BaseException | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if self._stopped:
                break
            report.attempts = attempt
            rebuild = self.rebuild = OnlineRebuild(self.tree, self.config)
            if resume_after is not None or (
                attempt == 1 and resume_checkpoint is not None
            ):
                report.resumes += 1
                ctx.counters.add("supervisor_resumes")
                ctx.syncpoints.fire(
                    "rebuild.supervisor.resume",
                    attempt=attempt,
                    resume_after=resume_after,
                )
            monitor = _Monitor(self, rebuild, report)
            monitor.start()
            attempt_span = (
                ctx.tracer.begin("supervisor.attempt", attempt=attempt)
                if ctx.tracer.enabled
                else None
            )
            try:
                final = rebuild.run(
                    # A resume supersedes the start bound (the driver
                    # restarts strictly after the durable progress); the
                    # end bound caps every attempt of a range repair.
                    start_key=start_key if resume_after is None else None,
                    end_key=end_key,
                    resume_after=resume_after,
                    resume_checkpoint=(
                        resume_checkpoint if attempt == 1 else None
                    ),
                )
                report.final = final
                report.attempt_reports.append(final)
                return report
            except RebuildError as exc:
                # Not a CrashPoint: a power failure is not supervised.
                last_error = exc
            finally:
                monitor.stop()
                self.rebuild = None
                if attempt_span is not None:
                    ctx.tracer.finish(attempt_span)
            failed = rebuild.last_report
            if failed is not None:
                report.attempt_reports.append(failed)
                # §4.1.3: the abort path flushed and committed every
                # completed top action before raising, so the next
                # attempt may resume strictly after them.
                if failed.resume_unit is not None:
                    resume_after = failed.resume_unit
            if attempt >= policy.max_attempts or self._stopped:
                break
            report.retries += 1
            ctx.counters.add("supervisor_retries")
            ctx.syncpoints.fire(
                "rebuild.supervisor.retry",
                attempt=attempt,
                error=type(last_error).__name__,
            )
            with ctx.tracer.span("supervisor.retry_backoff", attempt=attempt):
                self._wake.wait(
                    min(
                        policy.retry_backoff * (1 << (attempt - 1)),
                        policy.retry_backoff_cap,
                    )
                )
        report.gave_up = last_error is not None
        if report.gave_up:
            ctx.counters.add("supervisor_gave_up")
            ctx.syncpoints.fire(
                "rebuild.supervisor.gave_up", attempts=report.attempts
            )
            raise last_error
        return report


class _Monitor(threading.Thread):
    """Per-attempt watchdog + pressure monitor.

    Sweeps every ``watchdog_poll`` seconds while the attempt runs:

    * a heartbeat older than ``WATCHDOG_TIMEOUT`` fails the run cleanly
      (``watchdog_trips``);
    * an ``io_retries`` burst past ``storm_retry_threshold``, or an OLTP
      p99 past ``latency_budget_ms``, widens the rebuild's top-action
      sleep by ``throttle_step`` (capped); calm sweeps decay it back.
    """

    def __init__(
        self,
        supervisor: RebuildSupervisor,
        rebuild: OnlineRebuild,
        report: SupervisorReport,
    ) -> None:
        super().__init__(name="rebuild-supervisor-monitor", daemon=True)
        self.supervisor = supervisor
        self.rebuild = rebuild
        self.report = report
        self._halt = threading.Event()  # NB: Thread owns a private _stop()
        self._last_retries = supervisor.ctx.counters.io_retries
        self._tripped = False

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def run(self) -> None:  # noqa: D102 - thread body
        policy = self.supervisor.policy
        while not self._halt.wait(policy.watchdog_poll):
            try:
                self._sweep()
            except Exception:  # noqa: BLE001 - monitoring must not kill runs
                continue

    def _sweep(self) -> None:
        supervisor, rebuild = self.supervisor, self.rebuild
        ctx, policy = supervisor.ctx, supervisor.policy
        now = time.monotonic()
        # --- watchdog: a copy loop with no top-action progress is stuck
        # (a finished run has no heartbeat).
        if not self._tripped:
            for beat in rebuild.heartbeats().values():
                stalled = now - beat
                if stalled > WATCHDOG_TIMEOUT:
                    self._tripped = True
                    self.report.watchdog_trips += 1
                    ctx.counters.add("watchdog_trips")
                    index_id = supervisor.tree.index_id
                    last = rebuild.last_report
                    resume_unit = last.resume_unit if last else None
                    if ctx.tracer.enabled:
                        ctx.tracer.event(
                            "supervisor.watchdog_trip",
                            index_id=index_id,
                            resume_unit=resume_unit,
                            stalled_seconds=stalled,
                        )
                    ctx.syncpoints.fire(
                        "rebuild.supervisor.watchdog",
                        index_id=index_id,
                        resume_unit=resume_unit,
                        stalled_seconds=stalled,
                    )
                    rebuild.fail(
                        RebuildWatchdogError(
                            f"rebuild of index {index_id} made no top-action "
                            f"progress for {stalled:.1f}s (last resume_unit "
                            f"{resume_unit!r})"
                        )
                    )
        # --- pressure: transient-fault storms and OLTP latency breaches.
        retries = ctx.counters.io_retries
        burst = retries - self._last_retries
        self._last_retries = retries
        pressured = (
            policy.storm_retry_threshold > 0
            and burst >= policy.storm_retry_threshold
        )
        if not pressured and (
            policy.latency_budget_ms > 0.0
            and supervisor.oltp_stats is not None
        ):
            pcts = supervisor.oltp_stats.latency_percentiles().get("all")
            pressured = (
                pcts is not None and pcts["p99"] > policy.latency_budget_ms
            )
        if pressured:
            widened = min(
                policy.throttle_cap,
                rebuild.throttle_sleep + policy.throttle_step,
            )
            if widened > rebuild.throttle_sleep:
                rebuild.throttle_sleep = widened
                self.report.throttles += 1
                ctx.counters.add("supervisor_throttles")
                if ctx.tracer.enabled:
                    ctx.tracer.event(
                        "supervisor.throttle", sleep=widened, burst=burst
                    )
                ctx.syncpoints.fire(
                    "rebuild.supervisor.throttle", sleep=widened, burst=burst
                )
        elif rebuild.throttle_sleep > 0.0:
            # Calm: decay back.
            rebuild.throttle_sleep = max(
                0.0, rebuild.throttle_sleep - policy.throttle_step
            )

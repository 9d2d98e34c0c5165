"""Rebuild supervision: retry with backoff, watchdog, graceful degradation.

The paper's §4.1.3 abort protocol guarantees an interrupted rebuild keeps
every completed top action, and PR 7's durable ``REBUILD_PROGRESS``
records make that progress survive a crash — but someone still has to
*restart* the rebuild.  :class:`RebuildSupervisor` owns that lifecycle:

* **Retry with capped exponential backoff.**  A
  :class:`~repro.errors.RebuildAbortedError` (injected fault, lock storm,
  writer failure) is retried up to ``max_attempts`` times, sleeping
  ``retry_backoff * 2**attempt`` capped at ``RETRY_BACKOFF_CAP`` — the
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

* **Graceful degradation.**  Every sweep the monitor steps the
  supervisor's :class:`Pacer`, telling it of transient-fault traffic (the
  ``io_retries`` counter — the FaultyDisk's visible error rate); a pacer
  built over a live workload's latency histograms also reads its p99
  since the previous step.  Pressure widens the rebuild's top-action
  sleep (shedding I/O and lock traffic) instead of aborting; calm decays
  it back.  With no supervisor, none of this machinery runs.

Syncpoints ``rebuild.supervisor.retry`` / ``resume`` / ``gave_up`` /
``watchdog`` / ``throttle`` / ``monitor_error`` and the matching counters
make every decision observable (a traced engine records each as an event)
and crash-schedulable.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterable

from repro.btree.tree import BTree
from repro.core.config import RebuildConfig
from repro.core.rebuild import OnlineRebuild, RebuildReport
from repro.errors import (
    RebuildAbortedError,
    RebuildError,
    RebuildWatchdogError,
)
from repro.obs.metrics import Histogram, merged, since
from repro.wal.recovery import RebuildCheckpoint

WATCHDOG_TIMEOUT = 60.0
"""Seconds without a completed top action before the watchdog fails a
running rebuild."""
WATCHDOG_POLL = 0.25  # seconds between monitor sweeps
RETRY_BACKOFF_CAP = 2.0  # upper bound on one retry sleep, seconds
STORM_RETRIES = 8  # io_retries growth per sweep that counts as a storm
PACER_STEP = 0.002  # seconds a pacer widens by under pressure, decays by calm
PACER_CAP = 0.05  # upper bound on a pacer's delay, seconds


class Pacer:
    """The one widen/decay rule of background work beside OLTP traffic.

    Each :meth:`step` is one observation.  Pressured — the caller says so,
    or the p99 of what ``histograms`` (a live workload's
    ``OltpStats.histograms.values()``) recorded *since the previous step*
    is over ``budget_ms`` — adds ``PACER_STEP`` to :attr:`delay`, up to
    ``PACER_CAP``; calm takes one step off, down to zero.  The caller
    sleeps :attr:`delay` between its units of work, never under a latch
    or a lock.  One thread steps a pacer at a time.
    """

    def __init__(
        self, histograms: Iterable[Histogram] = (), budget_ms: float = 0.0
    ) -> None:
        self.histograms = tuple(histograms)
        self.budget_ms = budget_ms
        self.delay = 0.0
        self._seen = merged(self.histograms).snapshot()

    def step(self, pressured: bool = False) -> bool:
        """Observe once and move :attr:`delay`; True when it widened."""
        view = merged(self.histograms)
        now = view.snapshot()
        p99_ms = view.percentile(0.99, since(now, self._seen)) * 1000.0
        self._seen = now
        if not (pressured or p99_ms > self.budget_ms):
            self.delay = max(0.0, self.delay - PACER_STEP)
            return False
        before = self.delay
        self.delay = min(PACER_CAP, before + PACER_STEP)
        return self.delay > before


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs of one :class:`RebuildSupervisor`."""

    max_attempts: int = 5
    """Total rebuild attempts (first run + retries) before giving up."""
    retry_backoff: float = 0.05
    """Base retry sleep in seconds, doubled per failed attempt."""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RebuildError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.retry_backoff < 0:
            raise RebuildError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
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
    monitor_error: str = ""
    """Traceback of the first monitor sweep that raised (the attempt keeps
    running unwatched by that sweep; later sweeps still run)."""
    gave_up: bool = False
    final: RebuildReport | None = None
    attempt_reports: list[RebuildReport] = field(default_factory=list)


class RebuildSupervisor:
    """Owns one index's rebuild lifecycle: run, watch, retry, throttle.

    One supervisor drives one rebuild to completion (or exhaustion); it is
    not reentrant.  ``pacer`` is the :class:`Pacer` the monitor steps —
    build it over a concurrent workload's live histograms to shed load
    when its p99 breaches a budget; the default one reacts to fault
    storms alone.
    """

    def __init__(
        self,
        tree: BTree,
        config: RebuildConfig | None = None,
        policy: SupervisorConfig | None = None,
        pacer: Pacer | None = None,
    ) -> None:
        self.tree = tree
        self.ctx = tree.ctx
        self.config = config if config is not None else RebuildConfig()
        self.policy = policy if policy is not None else SupervisorConfig()
        self.pacer = pacer if pacer is not None else Pacer()
        self.rebuild: OnlineRebuild | None = None
        """The attempt currently running."""
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
            attempt_span = ctx.tracer.begin(
                "supervisor.attempt", attempt=attempt
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
                        RETRY_BACKOFF_CAP,
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

    Sweeps every ``WATCHDOG_POLL`` seconds while the attempt runs:

    * a heartbeat older than ``WATCHDOG_TIMEOUT`` fails the run cleanly
      (``watchdog_trips``);
    * the supervisor's :class:`Pacer` takes one step — told of an
      ``io_retries`` burst of ``STORM_RETRIES`` or more — and its delay
      becomes the rebuild's top-action sleep.
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
        ctx = self.supervisor.ctx
        while not self._halt.wait(WATCHDOG_POLL):
            try:
                self._sweep()
            except Exception:  # noqa: BLE001 - monitoring must not kill runs
                if not self.report.monitor_error:
                    self.report.monitor_error = traceback.format_exc()
                    ctx.syncpoints.fire(
                        "rebuild.supervisor.monitor_error",
                        error=self.report.monitor_error,
                    )

    def _sweep(self) -> None:
        supervisor, rebuild = self.supervisor, self.rebuild
        ctx, pacer = supervisor.ctx, supervisor.pacer
        # --- watchdog: a copy loop with no top-action progress is stuck
        # (a finished run has no heartbeat).
        beat = rebuild.heartbeat
        if not self._tripped and beat is not None:
            stalled = time.monotonic() - beat
            if stalled > WATCHDOG_TIMEOUT:
                self._tripped = True
                self.report.watchdog_trips += 1
                ctx.counters.add("watchdog_trips")
                index_id = supervisor.tree.index_id
                last = rebuild.last_report
                resume_unit = last.resume_unit if last else None
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
        # --- pressure: transient-fault storms, and whatever the pacer
        # reads from the workload itself.
        retries = ctx.counters.io_retries
        burst = retries - self._last_retries
        self._last_retries = retries
        if pacer.step(pressured=burst >= STORM_RETRIES):
            self.report.throttles += 1
            ctx.counters.add("supervisor_throttles")
            ctx.syncpoints.fire(
                "rebuild.supervisor.throttle", sleep=pacer.delay, burst=burst
            )
        rebuild.throttle_sleep = pacer.delay

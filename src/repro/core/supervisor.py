"""Rebuild supervision: retry with backoff and resume, on the copy thread.

The paper's §4.1.3 abort protocol guarantees an interrupted rebuild keeps
every completed top action, and the durable ``REBUILD_PROGRESS``
records make that progress survive a crash — but someone still has to
*restart* the rebuild.  :class:`RebuildSupervisor` owns that lifecycle:

* **Retry with capped exponential backoff.**  A
  :class:`~repro.errors.RebuildAbortedError` (injected fault, lock storm,
  writer failure, watchdog trip) is retried up to ``MAX_ATTEMPTS`` times,
  sleeping ``RETRY_BACKOFF * 2**attempt`` capped at ``RETRY_BACKOFF_CAP``
  — the same policy shape as :meth:`BufferPool.retrying`, one layer up.
  Each retry *resumes* from the index's progress as the engine keeps it
  (``Engine.rebuild_checkpoint``), which the failed run left at its last
  logged unit (the §4.1.3 guarantee makes that sound: the abort path
  flushed the completed top actions and logged their progress before it
  raised), so work is never repaid.  Any other
  :class:`~repro.errors.RebuildError` — a stale checkpoint, a rebuild
  already running on the index — is the caller's, and propagates from the
  first attempt.

* **Graceful degradation.**  Every attempt's copy loop steps the
  supervisor's :class:`~repro.core.pacer.Pacer` at its top-action
  boundaries: ``io_retries`` storms (and a live workload's p99, for a
  pacer built over its histograms) widen the sleep there, calm decays it.

The supervisor starts no thread: the watchdog and the pacer run on the
copy thread (:mod:`repro.core.rebuild`), in every attempt.  A supervised
run is always a whole-index pass (a resumed one continues one).
Syncpoints ``rebuild.supervisor.retry`` / ``resume`` / ``gave_up`` and
the matching counters make every decision observable and
crash-schedulable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.btree.tree import BTree
from repro.core.config import RebuildConfig
from repro.core.pacer import Pacer
from repro.core.rebuild import OnlineRebuild, RebuildReport
from repro.errors import RebuildAbortedError
from repro.testing import invariants
from repro.wal.recovery import RebuildCheckpoint

MAX_ATTEMPTS = 5  # total attempts (first run + retries) before giving up
RETRY_BACKOFF = 0.05  # first retry sleep, seconds, doubled per failure
RETRY_BACKOFF_CAP = 2.0  # upper bound on one retry sleep, seconds


@dataclass
class SupervisorReport:
    """What one supervised rebuild lifecycle did."""

    attempts: int = 0
    retries: int = 0
    resumes: int = 0
    """Attempts that continued logged progress — the caller's
    checkpoint, or a failed attempt's — instead of starting at the first
    leaf."""
    final: RebuildReport | None = None
    attempt_reports: list[RebuildReport] = field(default_factory=list)


class RebuildSupervisor:
    """Owns one index's rebuild lifecycle: run, retry, resume.

    One supervisor drives one rebuild to completion (or exhaustion); it is
    not reentrant.  ``pacer`` is the :class:`Pacer` every attempt's copy
    loop steps — build it over a concurrent workload's live histograms to
    shed load when its p99 breaches a budget; the default one reacts to
    fault storms alone.
    """

    def __init__(
        self,
        tree: BTree,
        config: RebuildConfig | None = None,
        pacer: Pacer | None = None,
    ) -> None:
        self.tree = tree
        self.ctx = tree.ctx
        self.config = config if config is not None else RebuildConfig()
        self.pacer = pacer if pacer is not None else Pacer()

    # -------------------------------------------------------------- lifecycle

    def run(
        self, resume_checkpoint: RebuildCheckpoint | None = None
    ) -> SupervisorReport:
        """Drive the rebuild to completion, retrying as needed.
        ``resume_checkpoint`` (``Engine.rebuild_checkpoint``) continues an
        unfinished rebuild; each retry continues the progress the failed
        attempt logged.

        Raises the last attempt's error after ``MAX_ATTEMPTS`` failures
        (counter ``supervisor_gave_up``).  Only a
        :class:`RebuildAbortedError` is retried: any other error — a
        :class:`CrashPoint` (a simulated power failure), a
        :class:`~repro.errors.RebuildError` the caller caused —
        propagates from the attempt that raised it.
        """
        ctx = self.ctx
        report = SupervisorReport()
        checkpoint = resume_checkpoint
        last_error: BaseException | None = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            report.attempts = attempt
            rebuild = OnlineRebuild(self.tree, self.config, self.pacer)
            floor = checkpoint.resume_key() if checkpoint is not None else None
            if floor is not None:
                report.resumes += 1
                ctx.counters.add("supervisor_resumes")
                ctx.syncpoints.fire(
                    "rebuild.supervisor.resume", attempt=attempt, floor=floor
                )
            attempt_span = ctx.tracer.begin(
                "supervisor.attempt", attempt=attempt
            )
            try:
                final = rebuild.run(resume_checkpoint=checkpoint)
                report.final = final
                report.attempt_reports.append(final)
                return report
            except RebuildAbortedError as exc:
                last_error = exc
            finally:
                ctx.tracer.finish(attempt_span)
            # An aborted run raised after its report was made.  §4.1.3:
            # the abort path flushed every completed top action and logged
            # its progress before raising, so the next attempt may resume
            # strictly after them.
            report.attempt_reports.append(rebuild.last_report)
            checkpoint = ctx.rebuild_progress.get(self.tree.index_id)
            if attempt >= MAX_ATTEMPTS:
                break
            report.retries += 1
            ctx.counters.add("supervisor_retries")
            ctx.syncpoints.fire(
                "rebuild.supervisor.retry",
                attempt=attempt,
                error=type(last_error).__name__,
            )
            if invariants.hook is not None:
                invariants.hook.unlatched(ctx.latches, "retry backoff")
            with ctx.tracer.span("supervisor.retry_backoff", attempt=attempt):
                time.sleep(
                    min(
                        RETRY_BACKOFF * (1 << (attempt - 1)),
                        RETRY_BACKOFF_CAP,
                    )
                )
        ctx.counters.add("supervisor_gave_up")
        ctx.syncpoints.fire(
            "rebuild.supervisor.gave_up", attempts=report.attempts
        )
        raise last_error


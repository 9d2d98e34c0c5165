"""Live rebuild/scrub progress: phase and units copied.

:class:`ProgressReporter` is a passive bulletin board.  The rebuild
driver posts its start, end and per-top-action unit counts (the same
unit stream that feeds the durable ``REBUILD_PROGRESS`` floor), the
scrubber posts pass state, and readers take a consistent
:class:`ProgressSnapshot` via :meth:`ProgressReporter.snapshot` — that
is what :meth:`repro.engine.Engine.progress` returns.

Unlike the tracer/metrics, the reporter is *always* constructed (it's a
handful of attribute writes per top action, far off any hot path), so
``Engine.progress()`` works whether or not tracing is on.

Monotonicity contract: ``units_copied`` never decreases within one
rebuild epoch, so a poller can use it as a progress bar without jitter.
A new epoch (a retry after an abort, which legitimately restarts from
the durable floor) resets the counter; the epoch is part of the snapshot
so consumers can tell the two apart.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

# Rebuild phases, in lifecycle order.
IDLE = "idle"
COPY = "copy"
COMPLETE = "complete"
ABORTED = "aborted"


@dataclass(frozen=True)
class ProgressSnapshot:
    """Point-in-time progress view (all fields plain data)."""

    phase: str
    epoch: int
    index_id: int | None
    units_copied: int
    started_at: float | None  # monotonic
    updated_at: float | None  # monotonic
    scrub_passes: int
    scrub_pass_active: bool
    scrub_leaves_checked: int

    def to_dict(self) -> dict:
        out = {
            "phase": self.phase,
            "epoch": self.epoch,
            "index_id": self.index_id,
            "units_copied": self.units_copied,
            "scrub_passes": self.scrub_passes,
            "scrub_pass_active": self.scrub_pass_active,
            "scrub_leaves_checked": self.scrub_leaves_checked,
        }
        return out


class ProgressReporter:
    """Thread-safe progress bulletin board; one per engine context.

    Writers (rebuild driver, scrubber) call the
    ``*_started`` / ``add_units`` / ``*_finished`` posters; readers call
    :meth:`snapshot`.  A short mutex guards every post — each is a few
    integer updates, so the lock is never held across I/O or latching.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._reset_locked()
        self._scrub_passes = 0
        self._scrub_pass_active = False
        self._scrub_leaves_checked = 0

    def _reset_locked(self) -> None:
        self._phase = IDLE
        self._epoch = 0
        self._index_id: int | None = None
        self._units_copied = 0
        self._started_at: float | None = None
        self._updated_at: float | None = None

    # -------------------------------------------------------------- rebuild

    def rebuild_started(
        self, index_id: int, epoch: int, units_floor: int = 0
    ) -> None:
        """A rebuild attempt begins copying.  ``units_floor`` carries
        resumed progress (units already durable from a prior attempt)."""
        with self._lock:
            self._reset_locked()
            self._phase = COPY
            self._epoch = epoch
            self._index_id = index_id
            self._units_copied = max(0, units_floor)
            self._started_at = self._clock()
            self._updated_at = self._started_at

    def add_units(self, units: int) -> None:
        """Post units copied by one top action."""
        if units <= 0:
            return
        with self._lock:
            self._units_copied += units
            self._updated_at = self._clock()

    def rebuild_finished(self, aborted: bool = False) -> None:
        with self._lock:
            self._phase = ABORTED if aborted else COMPLETE
            self._updated_at = self._clock()

    # ---------------------------------------------------------------- scrub

    def scrub_pass_started(self) -> None:
        with self._lock:
            self._scrub_pass_active = True

    def scrub_leaves(self, count: int) -> None:
        if count <= 0:
            return
        with self._lock:
            self._scrub_leaves_checked += count

    def scrub_pass_finished(self) -> None:
        with self._lock:
            self._scrub_pass_active = False
            self._scrub_passes += 1

    # -------------------------------------------------------------- reading

    def snapshot(self) -> ProgressSnapshot:
        with self._lock:
            return ProgressSnapshot(
                phase=self._phase,
                epoch=self._epoch,
                index_id=self._index_id,
                units_copied=self._units_copied,
                started_at=self._started_at,
                updated_at=self._updated_at,
                scrub_passes=self._scrub_passes,
                scrub_pass_active=self._scrub_pass_active,
                scrub_leaves_checked=self._scrub_leaves_checked,
            )

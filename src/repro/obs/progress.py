"""Live rebuild/scrub progress: phase, units copied, ETA.

:class:`ProgressReporter` is a passive bulletin board.  The rebuild
driver posts phase transitions and per-top-action unit counts (the same
unit stream that feeds the durable ``REBUILD_PROGRESS`` floor), the
scrubber posts pass state, and readers take a consistent
:class:`ProgressSnapshot` via :meth:`ProgressReporter.snapshot` — that
is what :meth:`repro.engine.Engine.progress` returns.

Unlike the tracer/metrics, the reporter is *always* constructed (it's a
handful of attribute writes per top action, far off any hot path), so
``Engine.progress()`` works whether or not tracing is on.

Monotonicity contract: ``units_copied`` never decreases within one
rebuild epoch — posts are folded with ``max()`` — so a poller can use it
as a progress bar without jitter.  A new epoch (a retry after an abort,
which legitimately restarts from the durable floor) resets the counter;
the epoch is part of the snapshot so consumers can tell the two apart.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

# Rebuild phases, in lifecycle order.
IDLE = "idle"
PLAN = "plan"
COPY = "copy"
MERGE = "merge"
COMPLETE = "complete"
ABORTED = "aborted"

_PHASE_ORDER = {IDLE: 0, PLAN: 1, COPY: 2, MERGE: 3, COMPLETE: 4, ABORTED: 4}


@dataclass(frozen=True)
class ProgressSnapshot:
    """Point-in-time progress view (all fields plain data)."""

    phase: str
    epoch: int
    index_id: int | None
    units_copied: int
    units_total: int | None
    workers: dict[int, int]  # partition ordinal -> units copied
    started_at: float | None  # monotonic
    updated_at: float | None  # monotonic
    scrub_passes: int
    scrub_pass_active: bool
    scrub_leaves_checked: int

    @property
    def fraction(self) -> float | None:
        """Completed fraction in [0, 1], or None when total is unknown."""
        if self.units_total is None or self.units_total <= 0:
            return 1.0 if self.phase == COMPLETE else None
        return min(1.0, self.units_copied / self.units_total)

    @property
    def eta_seconds(self) -> float | None:
        """Remaining-time estimate from the observed copy rate; None
        until there is a rate and a total to extrapolate against."""
        if (
            self.units_total is None
            or self.started_at is None
            or self.updated_at is None
            or self.units_copied <= 0
        ):
            return None
        elapsed = self.updated_at - self.started_at
        if elapsed <= 0.0:
            return None
        rate = self.units_copied / elapsed
        remaining = max(0, self.units_total - self.units_copied)
        return remaining / rate

    def to_dict(self) -> dict:
        out = {
            "phase": self.phase,
            "epoch": self.epoch,
            "index_id": self.index_id,
            "units_copied": self.units_copied,
            "units_total": self.units_total,
            "workers": dict(self.workers),
            "fraction": self.fraction,
            "eta_seconds": self.eta_seconds,
            "scrub_passes": self.scrub_passes,
            "scrub_pass_active": self.scrub_pass_active,
            "scrub_leaves_checked": self.scrub_leaves_checked,
        }
        return out


class ProgressReporter:
    """Thread-safe progress bulletin board; one per engine context.

    Writers (rebuild driver, partition workers, scrubber) call the
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
        self._units_total: int | None = None
        self._workers: dict[int, int] = {}
        self._started_at: float | None = None
        self._updated_at: float | None = None

    # -------------------------------------------------------------- rebuild

    def rebuild_started(
        self,
        index_id: int,
        epoch: int,
        units_total: int | None = None,
        units_floor: int = 0,
    ) -> None:
        """A rebuild attempt begins planning.  ``units_floor`` carries
        resumed progress (units already durable from a prior attempt)."""
        with self._lock:
            self._reset_locked()
            self._phase = PLAN
            self._epoch = epoch
            self._index_id = index_id
            self._units_total = units_total
            self._units_copied = max(0, units_floor)
            self._started_at = self._clock()
            self._updated_at = self._started_at

    def set_units_total(self, units_total: int) -> None:
        with self._lock:
            self._units_total = units_total
            self._updated_at = self._clock()

    def phase_change(self, phase: str) -> None:
        """Advance the phase; never regresses (max over lifecycle order)
        except that terminal phases always stick."""
        with self._lock:
            if _PHASE_ORDER.get(phase, 0) >= _PHASE_ORDER.get(self._phase, 0):
                self._phase = phase
            self._updated_at = self._clock()

    def add_units(self, units: int, worker: int = 0) -> None:
        """Post units copied by one worker (monotonic per worker; the
        global count is the sum of per-worker maxima plus any floor)."""
        if units <= 0:
            return
        with self._lock:
            self._workers[worker] = self._workers.get(worker, 0) + units
            self._units_copied += units
            self._updated_at = self._clock()

    def rebuild_finished(self, aborted: bool = False) -> None:
        with self._lock:
            self._phase = ABORTED if aborted else COMPLETE
            if not aborted:
                # The walk can overshoot the plan estimate slightly
                # (splits during the copy), and a one-segment run never
                # plans a total at all; either way a finished rebuild
                # copied everything — pin the bar at 100%.
                self._units_total = max(
                    self._units_total or 0, self._units_copied
                )
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
                units_total=self._units_total,
                workers=dict(self._workers),
                started_at=self._started_at,
                updated_at=self._updated_at,
                scrub_passes=self._scrub_passes,
                scrub_pass_active=self._scrub_pass_active,
                scrub_leaves_checked=self._scrub_leaves_checked,
            )

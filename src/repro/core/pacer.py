"""The :class:`Pacer`, stepped by the online rebuild at its top-action
boundaries and by the integrity scrubber between its level-1 batches."""

from __future__ import annotations

import time
from typing import Iterable

from repro.obs.metrics import Histogram, merged, since
from repro.testing import invariants

PACER_STEP = 0.002  # seconds a pacer widens by under pressure, decays by calm
PACER_CAP = 0.05  # upper bound on a pacer's delay, seconds


class Pacer:
    """The one widen/decay rule of background work beside OLTP traffic.

    Each :meth:`step` is one observation.  Pressured — the caller says
    so, or the p99 of what ``histograms`` (a live workload's
    ``OltpStats.histograms.values()``) recorded *since the previous step*
    is over ``budget_ms`` — adds ``PACER_STEP`` to :attr:`delay`, up to
    ``PACER_CAP``; calm takes one step off, down to zero.  The caller
    sleeps :attr:`delay` between its units of work (:meth:`pause`), never
    under a latch or a lock.  One thread steps a pacer at a time.
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

    def pause(self, latches) -> None:  # noqa: ANN001 - LatchManager
        """Sleep :attr:`delay`; the calling thread holds none of
        ``latches``."""
        if invariants.hook is not None:
            invariants.hook.unlatched(latches, "pacing sleep")
        if self.delay > 0.0:
            time.sleep(self.delay)

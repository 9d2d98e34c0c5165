"""Deterministic test harnesses shipped with the library.

:mod:`repro.testing.crashsched` enumerates crash points and injected-fault
sites in a build → fragment → rebuild-under-OLTP scenario and checks that
recovery restores the exact logical state after every one of them.
:mod:`repro.testing.cleanup` holds the left-behind check every sweep ends
with: no page pinned, latched, address-locked or carrying a protocol bit.
"""

from repro.testing.cleanup import NOTHING_LEFT, left_behind, pinned_ids
from repro.testing.crashsched import (
    CrashScheduleHarness,
    Schedule,
    ScheduleOutcome,
    ScrubCrashHarness,
    ScrubSweepReport,
    SweepReport,
)

__all__ = [
    "NOTHING_LEFT",
    "CrashScheduleHarness",
    "Schedule",
    "ScheduleOutcome",
    "ScrubCrashHarness",
    "ScrubSweepReport",
    "SweepReport",
    "left_behind",
    "pinned_ids",
]

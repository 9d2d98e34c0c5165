"""Deterministic test harnesses shipped with the library.

:mod:`repro.testing.crashsched` enumerates crash points and injected-fault
sites in a build → fragment → rebuild-under-OLTP scenario and checks that
recovery restores the exact logical state after every one of them.
:mod:`repro.testing.cleanup` holds the left-behind check every sweep ends
with: no page pinned, latched, address-locked or carrying a protocol bit.
:mod:`repro.testing.invariants` checks protocol rules while a run goes,
and :mod:`repro.testing.mutants` names the bugs each check must catch.

The names below are imported on first use: the engine reads
:mod:`~repro.testing.invariants`, so this package must import without
importing the engine.
"""

import importlib

_EXPORTS = {
    "NOTHING_LEFT": "cleanup",
    "left_behind": "cleanup",
    "pinned_ids": "cleanup",
    "CrashScheduleHarness": "crashsched",
    "Schedule": "crashsched",
    "ScheduleOutcome": "crashsched",
    "ScrubCrashHarness": "crashsched",
    "ScrubSweepReport": "crashsched",
    "SweepReport": "crashsched",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):  # noqa: ANN202 - PEP 562 lazy export
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

"""HeldSetting: an engine-wide override shared by overlapping runs."""

import os
import sys
import threading
import time
import types

from repro.context import HeldSetting


def test_first_holder_finds_last_holder_restores():
    owner = types.SimpleNamespace(window=0.5)
    hold = HeldSetting(owner, "window")
    hold.acquire(0.002)
    hold.acquire(0.002)
    assert owner.window == 0.002
    hold.release(0.002)
    assert owner.window == 0.002, "restored while a run still held it"
    hold.release(0.002)
    assert owner.window == 0.5


def test_falsy_value_holds_nothing():
    owner = types.SimpleNamespace(ring=7)
    hold = HeldSetting(owner, "ring")
    hold.acquire(0)
    assert owner.ring == 7
    hold.acquire(64)
    hold.release(0)  # the run that asked for nothing leaves first
    assert owner.ring == 64
    hold.release(64)
    assert owner.ring == 7


def test_overlapping_holders_stress():
    """More threads than cores hold and release for a bounded time: while
    a thread holds, the override is in force; once all have left, the
    value found first is back (a lost holder count would strand it)."""
    owner = types.SimpleNamespace(ring=3)
    hold = HeldSetting(owner, "ring")
    workers = 4 * (os.cpu_count() or 2)
    deadline = time.monotonic() + 1.0
    wrong: list[int] = []

    def churn():
        while time.monotonic() < deadline:
            hold.acquire(64)
            if owner.ring != 64:
                wrong.append(owner.ring)
            hold.release(64)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert owner.ring == 3

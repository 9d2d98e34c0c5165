"""Scans racing writers and back-to-back rebuilds, with the interpreter
switching threads every few bytecodes.

A scan hands rows out of a run it qualified earlier and only checks the
leaf's frame version in between; a lost or late check would show as a
loaded key returned twice, skipped, or out of order.  The even keys are
never touched, so every scan must return exactly the even keys of its
range, ascending, whatever happens to the odd keys and the leaves around
them.  More threads than cores; bounded by the rebuild passes.
"""

import random
import sys
import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.workload.builder import bulk_load
from tests.conftest import intkey

KEYS = 6_000  # even ordinals loaded, odd ordinals are the write space
WIDTH = 300
PASSES = 5


@pytest.mark.parametrize("lock_rows", [False, True])
def test_scans_return_every_stable_key_once_under_writes_and_rebuilds(lock_rows):
    engine = Engine(
        page_size=512, buffer_capacity=4096, lock_timeout=30.0,
        lock_rows=lock_rows,
    )
    tree = bulk_load(engine, [intkey(2 * i) for i in range(KEYS)], 4, fill=0.5)
    stop = threading.Event()
    errors: list[str] = []
    scans = [0, 0]

    def scanner(ordinal: int) -> None:
        rnd = random.Random(ordinal)
        while not stop.is_set():
            first = rnd.randrange(KEYS - WIDTH)
            lo, hi = 2 * first, 2 * (first + WIDTH) - 1
            got = [
                int.from_bytes(key, "big")
                for key, _rowid in tree.scan(intkey(lo), intkey(hi))
            ]
            if got != sorted(set(got)) or [k for k in got if k % 2 == 0] != list(
                range(lo, hi, 2)
            ):
                errors.append(f"scan [{lo}, {hi}] returned {got}")
                stop.set()
            scans[ordinal] += 1

    def writer() -> None:
        rnd = random.Random(7)
        while not stop.is_set():
            k = 2 * rnd.randrange(KEYS) + 1
            try:
                if rnd.random() < 0.5:
                    tree.insert(intkey(k), k)
                else:
                    tree.delete(intkey(k), k)
            except (DuplicateKeyError, KeyNotFoundError):
                pass

    def guarded(fn, *args):
        def body():
            try:
                fn(*args)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
                stop.set()

        return threading.Thread(target=body, daemon=True)

    threads = [guarded(scanner, 0), guarded(scanner, 1), guarded(writer)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for _ in range(PASSES):
            if stop.is_set():
                break
            OnlineRebuild(
                tree, RebuildConfig(ntasize=4, xactsize=16)
            ).run()
    finally:
        stop.set()
        for t in threads:
            t.join(30.0)
        sys.setswitchinterval(interval)

    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert min(scans) > 0
    assert not engine.ctx.latches.held_by_me()
    tree.verify()
    assert [k for k, _ in tree.contents() if k[-1] % 2 == 0] == [
        intkey(2 * i) for i in range(KEYS)
    ]

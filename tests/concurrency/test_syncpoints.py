"""Unit tests for the syncpoint (failpoint) registry."""

import threading

import pytest

from repro.concurrency.syncpoints import CrashPoint, Rendezvous, SyncPoints


def test_fire_without_hooks_is_noop():
    sp = SyncPoints()
    sp.fire("anything", detail=1)  # must not raise


def test_hook_receives_context():
    sp = SyncPoints()
    seen = []
    sp.on("evt", seen.append)
    sp.fire("evt", page=5)
    assert seen[0]["page"] == 5
    assert seen[0]["syncpoint"] == "evt"


def test_once_detaches_after_first_fire():
    sp = SyncPoints()
    seen = []
    sp.once("evt", seen.append)
    sp.fire("evt")
    sp.fire("evt")
    assert len(seen) == 1


def test_remove_and_clear():
    sp = SyncPoints()
    seen = []
    hook = seen.append
    sp.on("evt", hook)
    sp.remove("evt", hook)
    sp.fire("evt")
    sp.on("evt", hook)
    sp.clear()
    sp.fire("evt")
    assert seen == []


def test_hooks_can_raise_crashpoint():
    sp = SyncPoints()

    def boom(ctx):
        raise CrashPoint("evt")

    sp.on("evt", boom)
    with pytest.raises(CrashPoint):
        sp.fire("evt")


def test_record_fires():
    """An observer sees every name with its attributes, in firing order,
    before the point's hooks run — and ``clear()`` leaves it attached."""
    sp = SyncPoints()
    seen = []
    sp.observe(lambda name, attrs: seen.append((name, attrs)))
    sp.on("b", lambda ctx: seen.append(("hook", ctx)))
    sp.fire("a")
    sp.fire("b", page=3)
    sp.clear()
    sp.fire("c")
    assert seen == [
        ("a", {}),
        ("b", {"page": 3}),
        ("hook", {"page": 3, "syncpoint": "b"}),
        ("c", {}),
    ]


def test_observer_sees_the_crash_point_before_the_hook_raises():
    sp = SyncPoints()
    seen = []
    sp.observe(lambda name, _attrs: seen.append(name))

    def boom(ctx):
        raise CrashPoint("evt")

    sp.on("evt", boom)
    with pytest.raises(CrashPoint):
        sp.fire("evt")
    assert seen == ["evt"]


def test_rendezvous_handshake():
    rv = Rendezvous(timeout=5.0)
    progress = []

    def engine():
        progress.append("before")
        rv.engine_arrived()
        progress.append("after")

    t = threading.Thread(target=engine)
    t.start()
    rv.wait_engine()
    assert progress == ["before"]  # engine is parked
    rv.release()
    t.join(5)
    assert progress == ["before", "after"]


def test_rendezvous_times_out_without_engine():
    rv = Rendezvous(timeout=0.1)
    with pytest.raises(TimeoutError):
        rv.wait_engine()

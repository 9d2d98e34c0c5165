"""Engine-level multi-index coverage: catalog, independent and concurrent
rebuilds, recovery of several indexes."""

import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.errors import ReproError
from tests.conftest import contents_as_ints, intkey, make_half_empty


def test_catalog_assigns_distinct_ids(engine):
    a = engine.create_index(key_len=4)
    b = engine.create_index(key_len=8)
    assert a.index_id != b.index_id
    assert engine.index(a.index_id) is a
    assert engine.index(b.index_id) is b


def test_duplicate_index_id_rejected(engine):
    engine.create_index(key_len=4, index_id=7)
    with pytest.raises(ReproError):
        engine.create_index(key_len=4, index_id=7)


def test_indexes_are_isolated(engine):
    a = engine.create_index(key_len=4)
    b = engine.create_index(key_len=4)
    a.insert(intkey(1), 1)
    assert not b.contains(intkey(1), 1)
    b.insert(intkey(1), 99)
    a.delete(intkey(1), 1)
    assert b.contains(intkey(1), 99)
    a.verify()
    b.verify()


def test_rebuild_one_index_leaves_other_untouched(engine):
    a = engine.create_index(key_len=4)
    b = engine.create_index(key_len=4)
    make_half_empty(a, 1500)
    make_half_empty(b, 1500)
    b_pages_before = set(b.verify().leaf_page_ids)
    b_contents = b.contents()
    OnlineRebuild(a, RebuildConfig(ntasize=8, xactsize=32)).run()
    assert set(b.verify().leaf_page_ids) == b_pages_before
    assert b.contents() == b_contents
    a.verify()


def test_concurrent_rebuilds_of_different_indexes(engine):
    a = engine.create_index(key_len=4)
    b = engine.create_index(key_len=4)
    make_half_empty(a, 2000)
    make_half_empty(b, 2000)
    a_before, b_before = a.contents(), b.contents()
    errors = []

    def rebuild(tree):
        try:
            OnlineRebuild(tree, RebuildConfig(ntasize=8, xactsize=32)).run()
        except Exception:
            import traceback

            errors.append(traceback.format_exc())

    threads = [
        threading.Thread(target=rebuild, args=(t,)) for t in (a, b)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert errors == [], errors[:1]
    assert a.contents() == a_before
    assert b.contents() == b_before
    a.verify()
    b.verify()
    assert a.verify().leaf_fill > 0.9
    assert b.verify().leaf_fill > 0.9


def test_overlapping_rebuilds_restore_engine_settings(engine, pipelined):
    """A starts, B starts, A ends, B ends, both pipelined: the log's
    group-commit window stays held while either rebuild runs and is let
    go when the last one ends — A's end must not close it under B."""
    a = engine.create_index(key_len=4)
    b = engine.create_index(key_len=4)
    make_half_empty(a, 1500)
    make_half_empty(b, 1500)
    a_before, b_before = a.contents(), b.contents()
    log = engine.ctx.log
    assert log._window_holders == 0
    config = RebuildConfig(ntasize=8, xactsize=16)
    a_running, b_running, a_ended = (threading.Event() for _ in range(3))
    seen: dict[str, int] = {}
    errors = []

    def order(_ctx):
        # Fires on the rebuild's own thread, between two of its
        # transactions, with nothing latched or locked.
        me = threading.current_thread().name
        if me == "A" and not a_running.is_set():
            a_running.set()
            assert b_running.wait(30.0), "B never started"
            seen["both"] = log._window_holders
        elif me == "B" and not b_running.is_set():
            b_running.set()
            assert a_ended.wait(30.0), "A never ended"
            seen["b_alone"] = log._window_holders

    engine.syncpoints.on("rebuild.txn_committed", order)

    def rebuild(tree):
        try:
            OnlineRebuild(tree, config).run()
        except BaseException:
            import traceback

            errors.append(traceback.format_exc())

    def run_a():
        rebuild(a)
        a_ended.set()

    def run_b():
        if a_running.wait(30.0):
            rebuild(b)
        else:
            errors.append("A never reached its first commit")

    threads = [
        threading.Thread(target=run_a, name="A"),
        threading.Thread(target=run_b, name="B"),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
        assert not t.is_alive()
    assert errors == [], errors[:1]
    assert seen == {"both": 2, "b_alone": 1}
    assert log._window_holders == 0
    assert engine.counters.rebuild_pipeline_starts == 2
    assert a.contents() == a_before and b.contents() == b_before
    a.verify()
    b.verify()


def test_recovery_restores_all_indexes(engine):
    a = engine.create_index(key_len=4)
    b = engine.create_index(key_len=8)
    make_half_empty(a, 800)
    for k in range(100):
        b.insert(b"%08d" % k, k)
    a_contents = a.contents()
    engine.crash()
    engine.recover()
    a, b = engine.index(a.index_id), engine.index(b.index_id)
    assert a.contents() == a_contents
    assert b.key_len == 8
    assert b.lookup(b"%08d" % 7) == [7]
    a.verify()
    b.verify()


def test_crash_during_rebuild_of_one_does_not_hurt_other(engine):
    from repro.concurrency.syncpoints import CrashPoint

    a = engine.create_index(key_len=4)
    b = engine.create_index(key_len=4)
    make_half_empty(a, 1500)
    make_half_empty(b, 600)
    b_contents = b.contents()
    a_contents = a.contents()
    engine.syncpoints.once(
        "rebuild.nta_end",
        lambda ctx: (_ for _ in ()).throw(CrashPoint("boom")),
    )
    with pytest.raises(CrashPoint):
        OnlineRebuild(a, RebuildConfig(ntasize=8, xactsize=16)).run()
    engine.crash()
    engine.recover()
    a, b = engine.index(a.index_id), engine.index(b.index_id)
    assert a.contents() == a_contents
    assert b.contents() == b_contents
    a.verify()
    b.verify()

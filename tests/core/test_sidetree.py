"""Side-tree ([ZS96]/[SBC97]-style) baseline: correctness, and the §7
cost behaviors the paper's inline algorithm avoids."""

import threading
import time

import pytest

from repro import Engine, RebuildConfig
from repro.concurrency.txn import TxnState
from repro.core import sidetree as sidetree_mod
from repro.core.sidetree import sidetree_rebuild
from repro.errors import RebuildError
from tests.conftest import contents_as_ints, intkey, make_half_empty


def test_quiesced_rebuild_preserves_contents(index):
    make_half_empty(index, 2500)
    before = index.contents()
    report = sidetree_rebuild(index)
    assert index.contents() == before
    stats = index.verify()
    assert stats.leaf_fill > 0.9
    assert report.journal_entries == 0
    assert report.switch_seconds >= 0


def test_doubled_storage_during_build(engine, index):
    """§7 on [SBC97]: 'A separate copy of the table is made ... doubling
    the storage requirement.'"""
    make_half_empty(index, 2500)
    peak = {}
    engine.syncpoints.on(
        "sidetree.built", lambda ctx: peak.update(ctx)
    )
    report = sidetree_rebuild(index)
    after = index.verify()
    # While the side tree existed, a complete second copy of the index was
    # allocated on top of the old one (the final tree's size, give or take
    # the reinstalled root).
    assert report.peak_extra_pages >= after.leaf_pages
    assert peak["pages"] == report.peak_extra_pages


def test_concurrent_updates_captured_in_sidefile(engine, index):
    make_half_empty(index, 2500)
    stop = threading.Event()
    errors = []
    inserted = []

    def writer():
        # A bounded, throttled writer: enough traffic to populate the
        # sidefile, not so much that the drain loop chases forever.
        try:
            for k in range(1_000_000, 1_000_300):
                if stop.is_set():
                    break
                index.insert(intkey(k), k)
                inserted.append(k)
                time.sleep(0.001)
        except Exception:
            import traceback

            errors.append(traceback.format_exc())

    t = threading.Thread(target=writer, daemon=True)
    t.start()
    try:
        report = sidetree_rebuild(index, drain_threshold=8)
    finally:
        stop.set()
        t.join(30)
    assert errors == [], errors[:1]
    index.verify()
    # Every concurrent insert that happened before the switch must have
    # traveled through the sidefile into the new tree; later ones went to
    # the (already switched) tree directly.  Either way: all present.
    got = set(contents_as_ints(index))
    for k in inserted:
        assert k in got, k


def test_switch_blocks_operations(engine, index):
    """§7 on [ZS96]: switching requires an exclusive lock on the tree."""
    make_half_empty(index, 1500)
    blocked_for = {}

    # Close the gate manually (what the switch does) and measure a writer.
    index.close_gate_and_quiesce()
    done = threading.Event()

    def writer():
        started = time.perf_counter()
        index.insert(intkey(123_456), 123_456)
        blocked_for["s"] = time.perf_counter() - started
        done.set()

    t = threading.Thread(target=writer, daemon=True)
    t.start()
    assert not done.wait(0.3), "gate failed to block the writer"
    index.open_gate()
    assert done.wait(10)
    t.join(5)
    assert blocked_for["s"] > 0.25


def test_an_aborted_insert_never_reaches_the_side_tree(engine, index):
    """The journal sees the insert when it runs; the drain must wait for
    its transaction and undo it in the side tree once it aborted."""
    make_half_empty(index, 1000)
    before = index.contents()

    def insert_and_abort(_ctx):
        txn = engine.ctx.txns.begin()
        index.insert(intkey(1001), 1001, txn=txn)
        engine.ctx.txns.abort(txn)
        assert not index.contains(intkey(1001), 1001)

    engine.syncpoints.on("sidetree.built", insert_and_abort)
    report = sidetree_rebuild(index)
    assert report.journal_entries == 1
    assert not index.contains(intkey(1001), 1001)
    assert index.contents() == before
    index.verify()


def test_an_aborted_delete_is_put_back_with_its_payload(engine, index):
    for k in range(600):
        index.insert(intkey(k), k, payload=b"p%d" % k)
    before = index.contents_with_payloads()

    def delete_and_abort(_ctx):
        txn = engine.ctx.txns.begin()
        index.delete(intkey(7), 7, txn=txn)
        engine.ctx.txns.abort(txn)

    engine.syncpoints.on("sidetree.built", delete_and_abort)
    sidetree_rebuild(index)
    assert index.contents_with_payloads() == before
    index.verify()


def test_the_scan_waits_out_a_transaction_older_than_the_journal(
    engine, index, monkeypatch
):
    """An insert made before the journal existed is never journaled: the
    scan must not copy it while its transaction can still roll back."""
    make_half_empty(index, 1000)
    txn = engine.ctx.txns.begin()
    index.insert(intkey(1001), 1001, txn=txn)

    class AbortWhileWaited:
        """The module's clock; the rebuild's first wait aborts ``txn``."""

        monotonic = staticmethod(time.monotonic)
        perf_counter = staticmethod(time.perf_counter)

        @staticmethod
        def sleep(_seconds):
            if txn.state is TxnState.ACTIVE:
                engine.ctx.txns.abort(txn)

    monkeypatch.setattr(sidetree_mod, "time", AbortWhileWaited)
    sidetree_rebuild(index)
    assert not index.contains(intkey(1001), 1001)
    index.verify()


def test_a_transaction_left_open_bounds_the_switch(
    engine, index, monkeypatch
):
    """§7's unbounded wait, bounded: the old pages cannot go while a
    journaled change may still roll back, so the rebuild gives up."""
    monkeypatch.setattr(sidetree_mod, "SETTLE_TIMEOUT", 0.05)
    make_half_empty(index, 1000)
    opened = []

    def insert_and_leave_open(_ctx):
        opened.append(engine.ctx.txns.begin())
        index.insert(intkey(1001), 1001, txn=opened[0])

    engine.syncpoints.on("sidetree.built", insert_and_leave_open)
    with pytest.raises(RebuildError, match="still active"):
        sidetree_rebuild(index)
    engine.ctx.txns.commit(opened[0])
    assert index.contains(intkey(1001), 1001)
    index.verify()


def test_rebuild_flag_guard(index):
    make_half_empty(index, 500)
    index._rebuild_active = True
    with pytest.raises(RebuildError):
        sidetree_rebuild(index)
    index._rebuild_active = False


def test_sidetree_with_payloads(index):
    for k in range(600):
        index.insert(intkey(k), k, payload=b"p%d" % k)
    for k in range(0, 600, 2):
        index.delete(intkey(k), k)
    before = index.contents_with_payloads()
    sidetree_rebuild(index)
    assert index.contents_with_payloads() == before
    index.verify()


def test_empty_tree(index):
    report = sidetree_rebuild(index)
    assert index.contents() == []
    index.verify()

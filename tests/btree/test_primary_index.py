"""Primary-index rows (paper footnote 2): data payloads ride in the leaf
after the (key, rowid) unit and move opaquely through splits, shrinks,
rebuilds, and recovery."""

import random

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.errors import DuplicateKeyError
from tests.conftest import intkey


def payload_for(k: int) -> bytes:
    return (b"record-%06d-" % k) + bytes([k % 251]) * (k % 40)


@pytest.fixture
def primary(engine):
    return engine.create_index(key_len=4)


def fill_primary(index, count, seed=4):
    order = list(range(count))
    random.Random(seed).shuffle(order)
    for k in order:
        index.insert(intkey(k), k, payload=payload_for(k))
    return order


def test_get_returns_payload(primary):
    primary.insert(intkey(7), 7, payload=b"hello world")
    assert primary.get(intkey(7), 7) == b"hello world"
    assert primary.get(intkey(8), 8) is None


def test_secondary_rows_have_empty_payload(primary):
    primary.insert(intkey(7), 7)
    assert primary.get(intkey(7), 7) == b""


def test_duplicate_detection_ignores_payload(primary):
    primary.insert(intkey(7), 7, payload=b"one")
    with pytest.raises(DuplicateKeyError):
        primary.insert(intkey(7), 7, payload=b"two")


def test_delete_by_unit_removes_payload_row(primary):
    primary.insert(intkey(7), 7, payload=b"data")
    primary.delete(intkey(7), 7)
    assert primary.get(intkey(7), 7) is None


def test_payloads_survive_splits(primary):
    fill_primary(primary, 1200)
    primary.verify()
    for k in (0, 617, 1199):
        assert primary.get(intkey(k), k) == payload_for(k)


def test_scan_with_payloads(primary):
    fill_primary(primary, 300)
    rows = list(primary.scan(intkey(10), intkey(12), with_payload=True))
    assert rows == [
        (intkey(k), k, payload_for(k)) for k in (10, 11, 12)
    ]
    # The payload-less scan still yields pairs.
    pairs = list(primary.scan(intkey(10), intkey(12)))
    assert pairs == [(intkey(k), k) for k in (10, 11, 12)]


def test_payloads_survive_shrinks(primary):
    fill_primary(primary, 800)
    for k in range(0, 400):
        primary.delete(intkey(k), k)
    primary.verify()
    for k in (400, 555, 799):
        assert primary.get(intkey(k), k) == payload_for(k)


def test_online_rebuild_moves_payloads(primary):
    fill_primary(primary, 2000)
    for k in range(0, 2000, 2):
        primary.delete(intkey(k), k)
    before = primary.contents_with_payloads()
    OnlineRebuild(primary, RebuildConfig(ntasize=8, xactsize=32)).run()
    assert primary.contents_with_payloads() == before
    stats = primary.verify()
    assert stats.leaf_fill > 0.9
    assert primary.get(intkey(1001), 1001) == payload_for(1001)


def test_payloads_survive_crash_recovery(engine, primary):
    fill_primary(primary, 600)
    before = primary.contents_with_payloads()
    engine.crash()
    engine.recover()
    primary = engine.index(1)
    assert primary.contents_with_payloads() == before
    primary.verify()


def test_loser_txn_payload_rows_undone(engine, primary):
    fill_primary(primary, 400)
    txn = engine.ctx.txns.begin()
    primary.insert(intkey(9000), 9000, txn=txn, payload=b"uncommitted")
    primary.delete(intkey(5), 5, txn=txn)
    engine.ctx.log.flush_all()
    engine.crash()
    engine.recover()
    primary = engine.index(1)
    assert primary.get(intkey(9000), 9000) is None
    assert primary.get(intkey(5), 5) == payload_for(5)
    primary.verify()


def test_crash_mid_rebuild_with_payloads(engine, primary):
    from repro.concurrency.syncpoints import CrashPoint

    fill_primary(primary, 1500)
    for k in range(0, 1500, 2):
        primary.delete(intkey(k), k)
    before = primary.contents_with_payloads()
    engine.syncpoints.once(
        "rebuild.nta_end",
        lambda ctx: (_ for _ in ()).throw(CrashPoint("boom")),
    )
    with pytest.raises(CrashPoint):
        OnlineRebuild(primary, RebuildConfig(ntasize=8, xactsize=16)).run()
    engine.crash()
    engine.recover()
    primary = engine.index(1)
    assert primary.contents_with_payloads() == before
    primary.verify()


def test_variable_payload_sizes_pack_by_bytes(primary):
    # Large payloads mean fewer rows per page; fill accounting is bytewise.
    for k in range(200):
        primary.insert(intkey(k), k, payload=bytes(300 + (k % 7) * 50))
    stats = primary.verify()
    assert stats.rows == 200
    assert stats.leaf_pages > 30  # a handful of big rows per 2 KB page
    OnlineRebuild(primary, RebuildConfig(ntasize=8, xactsize=32)).run()
    assert primary.verify().rows == 200

"""Scan-resistant pool under a real rebuild (issue 8).

The ring is physical: whatever the replacement policy did, the rebuilt
index must hold exactly the same keys and verify clean.
The point of the ring is then proved end-to-end: a hot working set
belonging to *another* index survives a pressured rebuild untouched.
"""

from __future__ import annotations

from repro import Engine, OnlineRebuild, RebuildConfig
from tests.conftest import contents_as_ints, intkey, make_half_empty


def build_two_indexes(buffer_capacity: int, big_keys: int = 8_000):
    engine = Engine(buffer_capacity=buffer_capacity, lock_timeout=30.0)
    big = engine.create_index(key_len=4)
    make_half_empty(big, big_keys)
    hot = engine.create_index(key_len=4)
    for k in range(60):
        hot.insert(intkey(k), rowid=k)
    return engine, big, hot


def touch_hot(hot, n: int = 60) -> None:
    for k in range(n):
        assert hot.lookup(intkey(k)) == [k]


def hot_misses_during(engine, fn) -> int:
    """Demand misses the hot working set suffers after running ``fn``."""
    fn()
    before = engine.counters.snapshot()["pool_demand_misses"]
    touch_hot(engine.index(2))
    return engine.counters.snapshot()["pool_demand_misses"] - before


def test_rebuild_with_ring_preserves_contents(pipelined):
    engine, big, _hot = build_two_indexes(4096)
    expected = contents_as_ints(big)
    engine.ctx.buffer.evict_all()
    report = OnlineRebuild(big, RebuildConfig(ntasize=8, xactsize=32)).run()
    assert report.completed
    assert contents_as_ints(big) == expected
    assert big.verify().leaf_fill > 0.85
    assert engine.counters.snapshot()["ring_admits"] > 0


def test_hot_index_survives_pressured_rebuild_with_ring():
    # The rebuild retires its source leaves as it goes (they leave the
    # pool unwritten), so the pollution the ring exists for is the *new*
    # pages: 24k keys rebuild into ~72 of them, more than a 64-frame
    # pool holds; they recycle its 16-frame ring and the other index's
    # pages stay.
    def misses(big_keys: int) -> int:
        engine, big, hot = build_two_indexes(64, big_keys=big_keys)
        touch_hot(hot)
        config = RebuildConfig(ntasize=8, xactsize=32)
        return hot_misses_during(
            engine, lambda: OnlineRebuild(big, config).run()
        )

    assert misses(big_keys=8_000) == 0
    assert misses(big_keys=24_000) == 0

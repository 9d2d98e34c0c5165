"""Workload builder tests: bulk load fills, decluster, thinning."""

import pytest

from repro import Engine
from repro.errors import ReproError
from repro.workload import (
    build_by_inserts,
    bulk_load,
    declustering_metric,
    keys_for_config,
    thin_out,
)


@pytest.fixture
def engine():
    return Engine(buffer_capacity=4096)


def test_bulk_load_exact_fill(engine):
    keys, klen = keys_for_config("int4", 20000)
    index = bulk_load(engine, keys, klen, fill=0.5)
    stats = index.verify()
    assert stats.rows == 20000
    assert 0.45 <= stats.leaf_fill <= 0.55  # the Table 1 precondition


def test_bulk_load_full_fill(engine):
    keys, klen = keys_for_config("int4", 10000)
    index = bulk_load(engine, keys, klen, fill=1.0)
    assert index.verify().leaf_fill > 0.9


def test_bulk_load_is_clustered(engine):
    keys, klen = keys_for_config("int4", 20000)
    index = bulk_load(engine, keys, klen, fill=0.5)
    assert declustering_metric(index) < 1.3


def test_bulk_load_contents_sorted(engine):
    keys, klen = keys_for_config("int4", 3000)
    index = bulk_load(engine, keys, klen)
    got = [k for k, _ in index.contents()]
    assert got == sorted(keys)


def test_bulk_load_rejects_duplicates(engine):
    with pytest.raises(ReproError):
        bulk_load(engine, [b"aaaa", b"aaaa"], 4)


def test_bulk_load_empty(engine):
    index = bulk_load(engine, [], 4)
    assert index.contents() == []


def test_bulk_load_survives_crash(engine):
    keys, klen = keys_for_config("int4", 5000)
    index = bulk_load(engine, keys, klen, fill=0.5)
    engine.crash()
    engine.recover()
    index = engine.index(1)
    assert index.verify().rows == 5000


def _dealloc_count(engine):
    return engine.ctx.log.usage_snapshot()["counts"].get("DEALLOC", 0)


def test_bulk_load_single_leaf_writes_the_root_only(engine):
    keys, klen = keys_for_config("int4", 40)
    index = bulk_load(engine, keys, klen)
    stats = index.verify()
    assert stats.height == 1  # the root is the one leaf
    assert stats.leaf_page_ids == [index.root_page_id]
    assert stats.rows == 40
    # No top page is written and then retired: the load frees nothing.
    assert _dealloc_count(engine) == 0
    before = index.contents()
    assert [k for k, _ in before] == sorted(keys)
    engine.crash()
    engine.recover()
    index = engine.index(1)
    assert index.contents() == before
    assert index.verify().leaf_page_ids == [index.root_page_id]


def test_bulk_load_three_levels():
    engine = Engine(page_size=512)
    keys, klen = keys_for_config("int4", 6000)
    index = bulk_load(engine, keys, klen, fill=0.5)
    stats = index.verify()
    assert stats.height >= 3
    assert stats.rows == 6000
    assert _dealloc_count(engine) == 0
    before = index.contents()
    assert [k for k, _ in before] == sorted(keys)
    engine.crash()
    engine.recover()
    index = engine.index(1)
    assert index.contents() == before
    assert index.verify().height == stats.height


def test_build_by_inserts_declusters(engine):
    keys, klen = keys_for_config("int4", 8000)
    index = build_by_inserts(engine, keys, klen, shuffled=True, seed=1)
    assert declustering_metric(index) > 1.5  # scattered on disk
    assert index.verify().rows == 8000


def test_build_by_inserts_sequential(engine):
    keys, klen = keys_for_config("int4", 3000)
    index = build_by_inserts(engine, keys, klen, shuffled=False)
    stats = index.verify()
    # Ascending inserts split 50/50: utilization lands near one half.
    assert 0.4 <= stats.leaf_fill <= 0.65


def test_thin_out_stride(engine):
    keys, klen = keys_for_config("int4", 4000)
    index = build_by_inserts(engine, keys, klen, shuffled=True)
    survivors = thin_out(index, keys, keep_one_in=2)
    stats = index.verify()
    assert stats.rows == len(survivors) == 2000


def test_thin_out_random(engine):
    keys, klen = keys_for_config("int4", 4000)
    index = build_by_inserts(engine, keys, klen, shuffled=True)
    survivors = thin_out(index, keys, keep_one_in=4, seed=3)
    assert index.verify().rows == len(survivors) == 1000

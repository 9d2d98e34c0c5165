"""§6.3 I/O budget of a pressured rebuild, as exact counts.

The paper prices a rebuild at one sequential read pass of the old leaves
plus one write pass of the new pages, moved ``pages_per_io`` at a time.
This guard holds the engine to that shape on a cold pool a fifth the size
of the index: single-threaded (serial worker, no scheduler threads), so
every count repeats exactly.
"""

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.workload.builder import bulk_load
from tests.conftest import intkey

NONLEAF_SLACK = 32
"""Pages other than new leaves one pass may write: the rebuilt level-1
pages, the seam PPs forced with each transaction, dirty upper levels the
ring recycles."""


def test_pressured_rebuild_reads_once_and_writes_only_new_pages(monkeypatch):
    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=256, pool_shards=4
    )
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(100_000)], 4, fill=0.5
    )
    old_leaves = set(tree.verify().leaf_page_ids)
    assert len(old_leaves) > 4 * 256  # the pool holds ~20 % of the leaves
    engine.checkpoint()
    engine.buffer.evict_all()

    written: list[int] = []
    disk = engine.ctx.disk
    write, write_many = disk.write, disk.write_many
    monkeypatch.setattr(
        disk, "write", lambda pid, image: (written.append(pid), write(pid, image))
    )
    monkeypatch.setattr(
        disk, "write_many",
        lambda items: (written.extend(items), write_many(items)),
    )

    before = engine.counters.snapshot()
    report = OnlineRebuild(tree, RebuildConfig(ring_frames=64)).run()
    delta = engine.counters.diff(before)

    assert report.leaf_pages_rebuilt == len(old_leaves)
    assert old_leaves.isdisjoint(written), "an old leaf image was rewritten"
    assert (
        delta["disk_pages_written"]
        <= delta["new_pages_allocated"] + NONLEAF_SLACK
    )
    assert delta["disk_io_calls"] / report.leaf_pages_rebuilt <= 0.35
    assert delta["pool_retired_unwritten"] >= 0.9 * len(old_leaves)
    tree.verify()

"""The windows in which a scan knows a leaf only by its id.

A scan re-latches its own leaf, or latches the right neighbor, by a page
id it read while it held no latch.  Whatever happens between that read
and the latch — here a whole rebuild, which copies the leaf away, commits
and frees it, followed by a delete of a key the stale image still holds —
must send the scan back to the tree, not onto the dead page: the page's
image keeps looking like a valid leaf (rows intact, SHRINK cleared at the
top action's end), only its allocation state tells.

Single-threaded and deterministic: the interleaved work runs inside a
wrapper around the latch manager, at the moment the scan asks for the
latch.
"""

import pytest

from repro import Engine, OnlineRebuild
from repro.concurrency.latch import LatchMode
from repro.storage.page_manager import PageState
from tests.conftest import fill_index, intkey

COUNT = 400


@pytest.fixture
def index():
    engine = Engine(page_size=512, buffer_capacity=2048)
    tree = engine.create_index(key_len=4)
    fill_index(tree, COUNT, seed=None)
    engine.checkpoint()
    return tree


def first_key(tree, page_id: int) -> int:
    page = tree.ctx.buffer.fetch(page_id)
    tree.ctx.buffer.unpin(page_id)
    return int.from_bytes(page.rows[0][:4], "big")


def before_s_latch_on(tree, page_id: int, work) -> list[int]:
    """Run ``work`` once, right before the next S latch on ``page_id``."""
    latches = tree.ctx.latches
    acquire = latches.acquire
    fired: list[int] = []

    def racing(pid, mode, *shard):
        if pid == page_id and mode is LatchMode.S and not fired:
            fired.append(pid)
            work()
        acquire(pid, mode, *shard)

    latches.acquire = racing
    return fired


def ints(rows) -> list[int]:
    return [int.from_bytes(key, "big") for key, _rowid in rows]


def test_own_leaf_rebuilt_away_and_freed_before_the_relatch(index):
    leaf = index.verify().leaf_page_ids[1]
    start = first_key(index, leaf)
    it = index.scan(lo=intkey(start))
    got = ints([next(it), next(it)])
    doomed = start + 2  # the next row of the parked run

    def rebuild_then_delete():
        OnlineRebuild(index).run()
        assert index.ctx.page_manager.state(leaf) is PageState.FREE
        index.delete(intkey(doomed), doomed)

    # A change behind the cursor sends the scan to re-latch its leaf.
    index.delete(intkey(start), start)
    fired = before_s_latch_on(index, leaf, rebuild_then_delete)
    got += ints(it)

    assert fired == [leaf]
    assert got == [k for k in range(start, COUNT) if k != doomed]


def test_right_neighbor_rebuilt_away_and_freed_before_its_latch(index):
    leaves = index.verify().leaf_page_ids
    leaf, neighbor = leaves[1], leaves[2]
    start, boundary = first_key(index, leaf), first_key(index, neighbor)
    it = index.scan(lo=intkey(start))
    got = ints(next(it) for _ in range(boundary - start))  # all of ``leaf``
    doomed = boundary  # the neighbor's first row

    def rebuild_then_delete():
        OnlineRebuild(index).run()
        assert index.ctx.page_manager.state(neighbor) is PageState.FREE
        index.delete(intkey(doomed), doomed)

    fired = before_s_latch_on(index, neighbor, rebuild_then_delete)
    got += ints(it)

    assert fired == [neighbor]
    assert got == [k for k in range(start, COUNT) if k != doomed]

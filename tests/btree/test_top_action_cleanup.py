"""A top action that fails gives back everything it holds (§2.2, §4.1.1).

Split, shrink and the rebuild take pages through one
:class:`~repro.btree.top_action.TopAction`.  When one of them raises part
way — a neighbour it must relink cannot be read, or anything at a fire
point — the original exception comes out, and no page is left pinned,
latched, address-locked or bitted: a later writer to the same leaf is
not stopped by a bit nobody will clear.
"""

import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.errors import ChecksumError, RebuildAbortedError
from repro.storage.faults import FaultPlan
from tests.conftest import (
    NOTHING_LEFT,
    contents_as_ints,
    intkey,
    left_behind,
    make_half_empty,
)


class Injected(Exception):
    """The failure a hook raises at a fire point."""


def _finishes(work, timeout=5.0):
    """Run ``work`` on a daemon thread; True when it returned in time (a
    writer spinning on a stale bit never returns)."""
    out = {}

    def run():
        try:
            work()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            out["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout)
    if "error" in out:
        raise out["error"]
    return not worker.is_alive()


def _fail_at(engine, point, nth):
    """Raise :class:`Injected` the ``nth`` time ``point`` fires."""
    seen = []

    def hook(_ctx):
        seen.append(1)
        if len(seen) == nth:
            raise Injected(f"{point} #{nth}")

    engine.syncpoints.on(point, hook)


def test_a_split_that_cannot_read_the_right_neighbour_gives_everything_back():
    """The split's last latched visit — the right neighbour's back link
    (footnote 3) — meets a rotted image: the checksum error comes out,
    the rollback drops the new page, and the leaf can be written again."""
    engine = Engine(fault_plan=FaultPlan(seed=1))
    index = engine.create_index(key_len=4)
    for i in range(2000):
        index.insert(intkey(2 * i), 2 * i)
    leaves = index.verify().leaf_page_ids
    leaf = leaves[len(leaves) // 2]
    page = engine.buffer.fetch(leaf)
    neighbour, key = page.next_page, bytes(page.rows[0][:4])
    engine.buffer.unpin(leaf)
    engine.checkpoint()
    engine.buffer.evict_all()
    assert engine.ctx.disk.plant_rot(neighbour)

    with pytest.raises(ChecksumError):
        for rowid in range(10**6, 10**6 + 1000):  # until the leaf splits
            index.insert(key, rowid)

    assert left_behind(engine, unreadable={neighbour}) == NOTHING_LEFT
    assert _finishes(lambda: index.delete(key, int.from_bytes(key, "big")))


def _split_case(point, nth):
    engine = Engine(page_size=512)  # nonleaf splits come early
    index = engine.create_index(key_len=4)
    _fail_at(engine, point, nth)
    with pytest.raises(Injected):
        for i in range(5000):
            index.insert(intkey(i), i)
    return engine, index, i


def _shrink_case(point, nth):
    """Delete every row of a two-level tree: the last leaf's shrink
    collapses the root into an empty leaf."""
    engine = Engine(page_size=512)
    index = engine.create_index(key_len=4)
    for i in range(200):
        index.insert(intkey(i), i)
    assert index.verify().height == 2
    _fail_at(engine, point, nth)
    with pytest.raises(Injected):
        for i in range(200):
            index.delete(intkey(i), i)
    return engine, index, i


def _rebuild_case(point, nth):
    engine = Engine()
    index = engine.create_index(key_len=4)
    make_half_empty(index, 3000)
    _fail_at(engine, point, nth)
    with pytest.raises(RebuildAbortedError) as err:
        OnlineRebuild(index, RebuildConfig(ntasize=4, xactsize=8)).run()
    assert isinstance(err.value.__cause__, Injected)
    return engine, index, contents_as_ints(index)[0]


CASES = {
    "split.bits_set#1": (_split_case, "split.bits_set", 1),
    "split.root_grown#1": (_split_case, "split.root_grown", 1),
    "split.bits_set#3": (_split_case, "split.bits_set", 3),
    "split.nonleaf_done#1": (_split_case, "split.nonleaf_done", 1),
    "shrink.root_collapsed#1": (_shrink_case, "shrink.root_collapsed", 1),
    "shrink.leaf_frozen#5": (_shrink_case, "shrink.leaf_frozen", 5),
    "rebuild.copy_locked#2": (_rebuild_case, "rebuild.copy_locked", 2),
    "rebuild.copy_done#2": (_rebuild_case, "rebuild.copy_done", 2),
    "rebuild.level_propagated#2": (
        _rebuild_case, "rebuild.level_propagated", 2,
    ),
    "rebuild.group_applied#3": (_rebuild_case, "rebuild.group_applied", 3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_top_action_that_raises_at_a_fire_point_leaves_nothing_behind(
    case,
):
    build, point, nth = CASES[case]
    engine, index, key = build(point, nth)
    assert left_behind(engine) == NOTHING_LEFT
    index.verify()

    # A key under the failed operation is writable again, at once.
    def write():
        index.insert(intkey(key), 10**7)
        index.delete(intkey(key), 10**7)

    assert _finishes(write)
    index.verify()

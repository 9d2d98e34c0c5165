"""Unit tests for the partition planner (parallel rebuild, issue 6).

The planner's contract: up to ``workers`` contiguous disjoint segments
whose seams are strictly increasing units, the first starting at the
chain head (``start_unit=None``) and the last running to its end
(``stop_before=None``).  The plan comes from level-1 separators (no leaf
I/O); when the descent finds no nonleaf level to read it is the one
unbounded segment.
"""

from __future__ import annotations

from repro import Engine
from repro.core.partition import (
    ResumeSegment,
    _choose_cuts,
    plan_partitions,
)
from repro.storage.page import NO_PAGE, PageType
from tests.conftest import intkey, make_half_empty


def _first_leaf(engine: Engine, tree) -> int:
    """Unlatched descent along first children (quiesced tree only)."""
    from repro.btree import node

    pid = tree.root_page_id
    while True:
        page = engine.ctx.buffer.fetch(pid)
        try:
            if page.page_type is not PageType.NONLEAF:
                return pid
            child = node.entry_child(page.rows[0])
        finally:
            engine.ctx.buffer.unpin(pid)
        pid = child


def _leaf_chain_units(engine: Engine, tree) -> list[list[bytes]]:
    """Units per leaf, walking the chain (quiesced tree only)."""
    out: list[list[bytes]] = []
    pid = _first_leaf(engine, tree)
    while pid != NO_PAGE:
        page = engine.ctx.buffer.fetch(pid)
        try:
            out.append([bytes(r) for r in page.rows])
            pid = page.next_page
        finally:
            engine.ctx.buffer.unpin(page.page_id)
    return out


def _fragmented(key_count: int = 4000):
    engine = Engine(buffer_capacity=2048)
    tree = engine.create_index(key_len=4)
    make_half_empty(tree, key_count)
    return engine, tree


def _check_plan_shape(segs: list[ResumeSegment], workers: int) -> None:
    assert 1 <= len(segs) <= workers
    assert [s.ordinal for s in segs] == list(range(len(segs)))
    assert all(s.probe == s.start_unit and not s.done for s in segs)
    assert segs[0].start_unit is None
    assert segs[-1].stop_before is None
    for left, right in zip(segs, segs[1:]):
        # Contiguous: each seam is both a stop and the next start.
        assert left.stop_before == right.start_unit
    seams = [s.stop_before for s in segs[:-1]]
    assert seams == sorted(seams)
    assert len(set(seams)) == len(seams)  # strictly increasing


def test_level1_plan_covers_chain_disjointly():
    engine, tree = _fragmented()
    plan = plan_partitions(engine.ctx, tree, 4)
    _check_plan_shape(plan, 4)
    assert len(plan) == 4  # 4000 half-empty keys: plenty of leaves
    # Every seam splits the unit stream exactly: a unit belongs to the one
    # segment with start <= unit < stop.
    leaves = _leaf_chain_units(engine, tree)
    units = [u for leaf in leaves for u in leaf]
    seams = [s.stop_before for s in plan[:-1]]
    counts = [0] * len(plan)
    for unit in units:
        owner = sum(1 for seam in seams if unit >= seam)
        counts[owner] += 1
    assert sum(counts) == len(units)
    assert all(c > 0 for c in counts)
    # Level-1 cuts balance leaf counts: no segment is pathologically small.
    assert min(counts) >= len(units) // (4 * 4)


def test_level1_seams_fall_on_leaf_boundaries():
    """A level-1 separator is the routing key of a leaf (possibly
    suffix-truncated), so every seam must split the chain *between* two
    leaves — each leaf is copied whole by exactly one worker."""
    engine, tree = _fragmented()
    plan = plan_partitions(engine.ctx, tree, 4)
    leaves = _leaf_chain_units(engine, tree)
    assert engine.counters.partition_planner_leaves == len(leaves)
    assert engine.progress().units_total == len(leaves)
    for seg in plan[:-1]:
        seam = seg.stop_before
        for leaf in leaves:
            # No leaf straddles the seam.
            assert leaf[0] >= seam or leaf[-1] < seam


def test_level1_falls_back_on_single_leaf_root():
    """A root-leaf tree has no nonleaf level: the descent bails and the
    plan is the one unbounded segment, with no leaf accounted."""
    engine = Engine(buffer_capacity=256)
    tree = engine.create_index(key_len=4)
    for k in range(8):
        tree.insert(intkey(k), k)
    plan = plan_partitions(engine.ctx, tree, 4)
    assert plan == [ResumeSegment(ordinal=0)]
    assert engine.counters.partition_planner_leaves == 0


def test_workers_one_plans_single_segment():
    engine, tree = _fragmented(key_count=1000)
    plan = plan_partitions(engine.ctx, tree, 1)
    assert plan == [ResumeSegment(ordinal=0)]


# ------------------------------------------------------------- _choose_cuts


def test_choose_cuts_takes_the_nearest_boundary():
    # Ideal cut at 50: the boundary 2 off wins over the one 40 off.
    cuts = _choose_cuts([(10, b"a"), (48, b"b")], 100, 2)
    assert cuts == [(48, b"b")]


def test_choose_cuts_strictly_increasing():
    # Both ideals (33, 66) are nearest to the same boundary; it may be
    # used once only.
    assert _choose_cuts([(50, b"a")], 100, 3) == [(50, b"a")]


def test_choose_cuts_degenerate_inputs():
    assert _choose_cuts([], 100, 4) == []
    assert _choose_cuts([(1, b"a")], 0, 4) == []
    assert _choose_cuts([(1, b"a")], 100, 1) == []

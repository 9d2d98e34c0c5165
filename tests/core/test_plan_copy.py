"""Unit tests for the copy-phase planner (pure function, §4.1 + §5.2 input)."""

from repro.core.copy_phase import Frozen, plan_copy
from repro.storage.page import SLOT_OVERHEAD

UNIT = b"u" * 10
COST = SLOT_OVERHEAD + len(UNIT)


def units(n):
    return [UNIT] * n


def src(page_id, rows):
    """A source leaf as its locking visit hands it over."""
    row_bytes = sum(SLOT_OVERHEAD + len(r) for r in rows)
    return Frozen(page_id, rows, row_bytes, next_page=0)


def test_everything_fits_in_pp():
    targets, allocs = plan_copy(
        [src(100, units(5))], pp_free_budget=10 * COST, capacity=1000,
        fillfactor=1.0,
    )
    assert len(targets) == 1
    assert targets[0].ordinal == -1
    assert len(targets[0].units) == 5
    assert allocs == {100: []}


def test_overflow_allocates_new_pages():
    targets, allocs = plan_copy(
        [src(100, units(10))], pp_free_budget=3 * COST, capacity=4 * COST,
        fillfactor=1.0,
    )
    # 3 to PP, then pages of 4: 4 + 3.
    assert [t.ordinal for t in targets] == [-1, 0, 1]
    assert [len(t.units) for t in targets] == [3, 4, 3]
    assert allocs == {100: [0, 1]}


def test_no_pp_starts_with_new_page():
    targets, allocs = plan_copy(
        [src(100, units(2))], pp_free_budget=0, capacity=1000, fillfactor=1.0
    )
    assert targets[0].ordinal == 0
    assert allocs == {100: [0]}


def test_fillfactor_limits_new_pages():
    targets, _ = plan_copy(
        [src(100, units(10))], pp_free_budget=0, capacity=10 * COST,
        fillfactor=0.5,
    )
    # Half-full targets: 5 units each.
    assert [len(t.units) for t in targets] == [5, 5]


def test_allocs_attributed_to_the_source_that_triggered_them():
    targets, allocs = plan_copy(
        [src(1, units(3)), src(2, units(3)), src(3, units(3))],
        pp_free_budget=4 * COST,
        capacity=4 * COST,
        fillfactor=1.0,
    )
    # PP takes src1's 3 + src2's first; src2 triggers page 0; src3 rides
    # along then triggers page 1.
    assert allocs[1] == []
    assert allocs[2] == [0]
    assert allocs[3] == [1]


def test_extents_cover_each_source_exactly_once():
    sources = [src(1, units(4)), src(2, units(6))]
    targets, _ = plan_copy(
        sources, pp_free_budget=3 * COST, capacity=5 * COST, fillfactor=1.0
    )
    covered = {1: [], 2: []}
    for t in targets:
        for e in t.extents:
            covered[e.src_page].append((e.first_pos, e.last_pos))
    for src_id, rows, _row_bytes, _next in sources:
        spans = sorted(covered[src_id])
        positions = [p for lo, hi in spans for p in range(lo, hi + 1)]
        assert positions == list(range(len(rows)))


def test_extents_split_at_target_boundaries():
    targets, _ = plan_copy(
        [src(1, units(10))], pp_free_budget=0, capacity=4 * COST, fillfactor=1.0
    )
    assert [t.extents for t in targets][0][0].first_pos == 0
    boundaries = [t.extents[0].first_pos for t in targets]
    assert boundaries == [0, 4, 8]


def test_total_units_preserved():
    sources = [src(i, units(7)) for i in range(5)]
    targets, _ = plan_copy(
        sources, pp_free_budget=2 * COST, capacity=6 * COST, fillfactor=0.9
    )
    assert sum(len(t.units) for t in targets) == 35


def test_empty_source_rejected():
    import pytest

    from repro.errors import RebuildError

    with pytest.raises(RebuildError):
        plan_copy([src(1, [])], pp_free_budget=0, capacity=1000, fillfactor=1.0)


def test_oversized_unit_still_placed():
    # A unit bigger than the fillfactor budget must still land somewhere
    # (one per page) rather than loop forever.
    big = b"B" * 500
    targets, _ = plan_copy(
        [src(1, [big, big])], pp_free_budget=0, capacity=600, fillfactor=0.1
    )
    assert [len(t.units) for t in targets] == [1, 1]

"""Scan behavior under §2.5 semantics: latch drops between rows,
repositioning after concurrent structural changes."""

import pytest

from repro.errors import BTreeError
from tests.conftest import contents_as_ints, fill_index, intkey


def ints(pairs):
    return [int.from_bytes(k, "big") for k, _ in pairs]


def test_scan_sees_consistent_prefix_under_interleaved_deletes(index):
    fill_index(index, 200)
    it = index.scan()
    got = [ints([next(it)])[0] for _ in range(10)]
    # Delete far ahead of the cursor; the scan must skip them.
    for k in range(100, 150):
        index.delete(intkey(k), k)
    got += ints(it)
    expected = list(range(100)) + list(range(150, 200))
    assert got == expected


def test_scan_skips_rows_deleted_at_cursor(index):
    fill_index(index, 100)
    it = index.scan()
    got = [ints([next(it)])[0] for _ in range(5)]  # 0..4 returned
    index.delete(intkey(5), 5)  # right where the cursor stands
    got += ints(it)
    assert got == [k for k in range(100) if k != 5]


def test_scan_sees_rows_inserted_ahead(index):
    fill_index(index, 100)
    it = index.scan()
    got = [ints([next(it)])[0] for _ in range(5)]
    index.insert(intkey(50), 999_999)  # same key, new rowid, ahead
    got += ints(it)
    assert got.count(50) == 2


def test_scan_survives_page_split_under_cursor(index):
    fill_index(index, 300, seed=None)
    it = index.scan()
    got = [ints([next(it)])[0] for _ in range(3)]
    # Insert a burst right at the cursor's page to force splits there.
    for k in range(300, 500):
        index.insert(intkey(k), k)
    got += ints(it)
    assert got == list(range(500))


def test_scan_survives_page_shrink_under_cursor(index):
    fill_index(index, 400, seed=None)
    it = index.scan()
    got = [ints([next(it)])[0] for _ in range(3)]
    # Empty the pages just ahead of the cursor.
    for k in range(10, 200):
        index.delete(intkey(k), k)
    got += ints(it)
    assert got == list(range(10)) + list(range(200, 400))


def test_backward_compat_full_scan_is_sorted(index):
    fill_index(index, 700, seed=9)
    assert ints(index.scan()) == sorted(contents_as_ints(index))


def test_scan_fires_run_step_right_and_reposition_in_order(engine, index):
    """``scan.run`` per leaf run handed out, ``scan.step_right`` per move
    to a right neighbor, ``scan.reposition`` per re-traversal by key: a
    row deleted under the first run, before anything is returned, fails
    the revalidation and moves the leaf's first row past the resume
    point, so the scan re-traverses once and then walks the chain."""
    fill_index(index, 300, seed=None)
    leaves = index.verify().leaf_page_ids
    assert len(leaves) >= 3
    fired: list[tuple[str, dict]] = []
    engine.syncpoints.observe(
        lambda name, attrs: fired.append((name, attrs))
        if name.startswith("scan.") else None
    )
    engine.syncpoints.once("scan.run", lambda _ctx: index.delete(intkey(0), 0))
    before = engine.counters.scan_revalidation_failures
    assert ints(index.scan()) == list(range(1, 300))
    assert engine.counters.scan_revalidation_failures - before == 1
    names = [name for name, _ in fired]
    assert names == ["scan.run", "scan.reposition"] + ["scan.run"] + [
        step for _ in leaves[1:] for step in ("scan.step_right", "scan.run")
    ]
    assert fired[1][1]["page"] == leaves[0]
    runs = [attrs["page"] for name, attrs in fired if name == "scan.run"]
    assert runs == [leaves[0]] + leaves
    steps = [
        (attrs["page"], attrs["next"])
        for name, attrs in fired if name == "scan.step_right"
    ]
    assert steps == list(zip(leaves, leaves[1:]))


@pytest.mark.parametrize(
    "bounds",
    [
        {"lo": b"\x00\x00\x01", "hi": b"\x00\x00\x02"},
        {"lo": b"\x00\x00\x00\x01\x00"},
        {"hi": b"\x00\x00"},
        {"lo": b"", "hi": intkey(5)},
    ],
)
def test_scan_rejects_bounds_of_the_wrong_length(index, bounds):
    """Like the point operations, a scan takes only ``key_len``-byte
    bounds: a shorter or longer one raises instead of being padded into
    a prefix range (which would return keys above ``hi``)."""
    fill_index(index, 300)
    with pytest.raises(BTreeError, match="exactly 4 bytes"):
        next(index.scan(**bounds))


def test_lookup_rejects_a_short_key(index):
    fill_index(index, 300)
    with pytest.raises(BTreeError, match="exactly 4 bytes"):
        index.lookup(b"\x00\x00")
    assert index.lookup(intkey(7)) == [7]


@pytest.mark.parametrize("payload", [b"", b"p" * 20])
def test_scan_keeps_its_leaf_when_it_changes_after_one_row(
    engine, index, payload
):
    """The scan hands out one row, the leaf takes an insert, and the scan
    re-latches the same leaf: its resume row is still on it, so it must
    not re-traverse — with or without a payload after each unit."""
    for k in range(0, 100, 2):
        index.insert(intkey(k), k, payload=payload)
    repositions = []
    engine.syncpoints.observe(
        lambda name, attrs: repositions.append(attrs)
        if name == "scan.reposition" else None
    )
    it = index.scan()
    assert ints([next(it)]) == [0]
    index.insert(intkey(1), 1, payload=payload)
    assert ints(it) == [1] + list(range(2, 100, 2))
    assert repositions == []

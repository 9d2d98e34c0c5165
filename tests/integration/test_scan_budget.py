"""Foreground budget of a range scan, as exact counts.

The sibling of the rebuild's I/O and CPU budget guards, for the request
path: on a quiescent index a scan latches each leaf once to qualify its
rows and once more to step off it, never once per row.  Over ``L`` leaves
of a height-``h`` tree that is ``h + 2·(L − 1)`` page visits, of which
the descent reads the ``h − 1`` pages above the first leaf unlatched:
``1 + 2·(L − 1)`` latch acquires and pool fetches.  No revalidation
failure, and at every yield no latch held and no pin on the scanned leaf.
Single-threaded, so every count repeats exactly.
"""

import pytest

from repro import Engine
from repro.workload.builder import bulk_load
from tests.conftest import intkey

ROWS = 200


@pytest.fixture(scope="module")
def loaded():
    engine = Engine(page_size=2048, io_size=16384, buffer_capacity=4096)
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(100_000)], 4, fill=0.5
    )
    leaves = []  # (page id, first key, last key) in chain order
    for pid in tree.verify().leaf_page_ids:
        page = engine.buffer.fetch(pid)
        leaves.append((pid, page.rows[0][:4], page.rows[-1][:4]))
        engine.buffer.unpin(pid)
    return engine, tree, leaves


def leaves_visited(leaves, lo: bytes, hi: bytes) -> list[int]:
    """From the leaf holding ``lo`` through the one holding the first key
    above ``hi`` — where the scan learns that it is done."""
    return [
        pid
        for i, (pid, _first, last) in enumerate(leaves)
        if last >= lo and (i == 0 or leaves[i - 1][2] <= hi)
    ]


@pytest.mark.parametrize(
    "first, expected",
    [
        pytest.param(5000, 7, id="ends-mid-leaf"),
        pytest.param(None, 9, id="ends-on-a-leafs-last-row"),
    ],
)
def test_scan_latches_per_leaf_not_per_row(loaded, first, expected):
    engine, tree, leaves = loaded
    if first is None:
        # Pick the range so that its last row is a leaf's last row: the
        # scan has to look at the next leaf to learn that it is done.
        last_of_leaf = int.from_bytes(leaves[60][2], "big") // 2
        first = last_of_leaf - (ROWS - 1)
    lo, hi = intkey(2 * first), intkey(2 * (first + ROWS - 1))
    visited = leaves_visited(leaves, lo, hi)
    height = tree.height()
    ctx = engine.ctx

    before = engine.counters.snapshot()
    got = []
    for key, rowid in tree.scan(lo, hi):
        assert not ctx.latches.held_by_me()
        assert all(engine.buffer.pin_count(pid) == 0 for pid in visited)
        got.append((key, rowid))
    delta = engine.counters.diff(before)

    budget = height + 2 * (len(visited) - 1)
    assert budget == expected  # 3 levels; 3 leaves, or 4 with the look-ahead
    assert delta["pages_visited"] == budget
    # Root and level 1 are read unlatched, with no pool fetch.
    assert delta["latch_acquires"] == budget - (height - 1)
    assert delta["page_reads"] == budget - (height - 1)
    assert delta["scan_leaf_visits"] == sum(
        1 for _pid, first_key, last in leaves if last >= lo and first_key <= hi
    )
    assert delta["scan_rows_returned"] == ROWS
    assert delta["scan_revalidation_failures"] == 0
    assert delta["latch_waits"] == delta["retraversals"] == 0
    assert got == [kr for kr in tree.contents() if lo <= kr[0] <= hi]
    assert len(got) == ROWS

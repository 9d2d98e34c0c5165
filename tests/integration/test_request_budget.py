"""Per-request budget of the resident OLTP path, as exact counts.

The sibling of the scan, CPU and I/O budget guards, for one request of
each kind the benchmark's closed loop sends: a point lookup, an insert, a
delete and a 200-row range scan, each autocommit, on a quiescent
``bulk_load``ed index of height 3 whose every page is resident.  The
counts are the protocol's own steps — latched page visits, pool hits,
descents, search depth, log records and bytes, commit flushes and lock
manager calls — so a cheaper implementation of a step must leave every
one of them as it is.  A descent reads the pages above its leaf
unlatched: they count as page visits, not as latch acquires or pool
fetches.  Single-threaded, so every count repeats exactly.
"""

import pytest

from repro import Engine
from repro.workload.builder import bulk_load
from tests.conftest import intkey

KEYS = 20_000
ROWS = 200

COUNTERS = (
    "latch_acquires",
    "pages_visited",
    "page_reads",
    "pool_demand_hits",
    "traversals",
    "key_comparisons",
    "log_records",
    "log_bytes",
    "log_flushes",
    "lock_mgr_calls",
)

BUDGET = {
    # A descent reads root and level 1 unlatched and latches the leaf;
    # all three are page visits, only the leaf is a pool fetch.  No log.
    "contains": {
        "latch_acquires": 1, "pages_visited": 3, "page_reads": 1,
        "pool_demand_hits": 1, "traversals": 1, "key_comparisons": 16,
        "log_records": 0, "log_bytes": 0, "log_flushes": 0,
        "lock_mgr_calls": 0,
    },
    # The writer's descent, one INSERT (60 + 4 + 10 bytes) and the
    # COMMIT header, forced by one flush.
    "insert": {
        "latch_acquires": 1, "pages_visited": 3, "page_reads": 1,
        "pool_demand_hits": 1, "traversals": 1, "key_comparisons": 16,
        "log_records": 2, "log_bytes": 134, "log_flushes": 1,
        "lock_mgr_calls": 0,
    },
    "delete": {
        "latch_acquires": 1, "pages_visited": 3, "page_reads": 1,
        "pool_demand_hits": 1, "traversals": 1, "key_comparisons": 16,
        "log_records": 2, "log_bytes": 134, "log_flushes": 1,
        "lock_mgr_calls": 0,
    },
    # The 200 rows span three leaves: one descent (3 visits, 1 latched),
    # then per further leaf the previous one once more to step off it and
    # the next one to qualify its run (``h + 2·(L − 1)`` visits, of which
    # ``h − 1`` unlatched, as the scan budget has).
    "scan": {
        "latch_acquires": 5, "pages_visited": 7, "page_reads": 5,
        "pool_demand_hits": 5, "traversals": 1, "key_comparisons": 40,
        "log_records": 0, "log_bytes": 0, "log_flushes": 0,
        "lock_mgr_calls": 0,
    },
}


@pytest.fixture(scope="module")
def loaded():
    engine = Engine(page_size=2048, io_size=16384, buffer_capacity=4096)
    tree = bulk_load(engine, [intkey(2 * i) for i in range(KEYS)], 4, fill=0.5)
    assert tree.height() == 3
    return engine, tree


def measure(engine, tree, kind: str) -> dict[str, int]:
    """Counter deltas of one ``kind`` request; the index is left as it
    was found."""
    ordinal = KEYS // 3  # a loaded key; its rowid is its sorted ordinal
    absent = intkey(2 * ordinal + 1)
    if kind == "delete":
        tree.insert(absent, 0)
    before = engine.counters.snapshot()
    if kind == "contains":
        assert tree.contains(intkey(2 * ordinal), ordinal)
    elif kind == "insert":
        tree.insert(absent, 0)
    elif kind == "delete":
        tree.delete(absent, 0)
    else:
        lo, hi = intkey(2 * ordinal), intkey(2 * (ordinal + ROWS - 1))
        assert sum(1 for _ in tree.scan(lo, hi)) == ROWS
    delta = engine.counters.diff(before)
    if kind == "insert":
        tree.delete(absent, 0)
    return delta


@pytest.mark.parametrize("kind", list(BUDGET))
def test_one_request_costs_exactly_its_protocol_steps(loaded, kind):
    engine, tree = loaded
    delta = measure(engine, tree, kind)
    assert {name: delta[name] for name in COUNTERS} == BUDGET[kind]
    assert delta["latch_waits"] == delta["lock_waits"] == 0
    assert delta["pool_demand_misses"] == delta["retraversals"] == 0
    assert engine.ctx.latches.held_by_me() == {}

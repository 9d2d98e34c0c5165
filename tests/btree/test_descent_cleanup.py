"""A descent that cannot read its next page gives back the page it holds.

Latch coupling (§2.6) holds the parent while it latches the child.  When
the child's image cannot be read, the read error comes out of the
operation — and the parent's latch and pin go with it, or every later
writer that needs the parent X latched (a split reaching it, a root
grow) waits for ever.
"""

import pytest

from repro import Engine
from repro.btree import node
from repro.core.scrubber import Scrubber
from repro.errors import ChecksumError, TransactionError
from repro.storage.faults import FaultPlan
from tests.conftest import NOTHING_LEFT, intkey, left_behind


def _rotted(page_size, count, level):
    """An index whose first page at ``level`` cannot be read, cold."""
    engine = Engine(page_size=page_size, fault_plan=FaultPlan(seed=1))
    index = engine.create_index(key_len=4)
    for i in range(count):
        index.insert(intkey(2 * i), 2 * i)
    page = engine.buffer.fetch(index.root_page_id)
    while page.level > level:
        engine.buffer.unpin(page.page_id)
        page = engine.buffer.fetch(node.entry_child(page.rows[0]))
    rotted = page.page_id
    engine.buffer.unpin(rotted)
    engine.checkpoint()
    engine.buffer.evict_all()
    assert engine.ctx.disk.plant_rot(rotted)
    return engine, index, rotted


@pytest.mark.parametrize("op", ["contains", "insert", "delete", "scan"])
def test_an_unreadable_leaf_leaves_no_latch_and_no_pin(op):
    engine, index, rotted = _rotted(4096, 2000, level=0)
    calls = {
        "contains": lambda: index.contains(intkey(0), 0),
        "insert": lambda: index.insert(intkey(1), 1),
        "delete": lambda: index.delete(intkey(0), 0),
        "scan": lambda: list(index.scan(intkey(0), intkey(100))),
    }
    with pytest.raises(ChecksumError):
        calls[op]()
    assert left_behind(engine, unreadable={rotted}) == NOTHING_LEFT


def test_a_scrub_pass_that_cannot_read_level_1_leaves_the_root_free():
    engine, index, rotted = _rotted(1024, 6000, level=1)
    assert engine.buffer.fetch(index.root_page_id).level == 2
    engine.buffer.unpin(index.root_page_id)
    with pytest.raises(ChecksumError):
        Scrubber(index).run_pass()
    assert left_behind(engine, unreadable={rotted}) == NOTHING_LEFT


@pytest.mark.parametrize("end", ["commit", "abort"])
@pytest.mark.parametrize("op", ["contains", "insert", "delete", "scan"])
def test_a_finished_transaction_is_refused_before_the_descent(op, end):
    """A caller's transaction that has ended is refused before anything is
    latched: an insert once reached the leaf, raised from the log and
    left the leaf X latched and pinned for the next writer to wait on."""
    engine = Engine()
    index = engine.create_index(key_len=4)
    for i in range(100):
        index.insert(intkey(2 * i), 2 * i)
    txn = engine.ctx.txns.begin()
    getattr(engine.ctx.txns, end)(txn)
    calls = {
        "contains": lambda: index.contains(intkey(0), 0, txn=txn),
        "insert": lambda: index.insert(intkey(1), 1, txn=txn),
        "delete": lambda: index.delete(intkey(0), 0, txn=txn),
        "scan": lambda: list(index.scan(intkey(0), intkey(10), txn=txn)),
    }
    with pytest.raises(TransactionError):
        calls[op]()
    assert left_behind(engine) == NOTHING_LEFT
    index.insert(intkey(1), 1)
    assert index.contains(intkey(1), 1)

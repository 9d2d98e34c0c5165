"""Property test: the leaf-at-a-time scan equals the per-row scan.

The loop the engine used to run — unlatch, return one key, re-latch and
re-search, per row — is kept here as the oracle.  Two identical engines
are driven in lockstep: the engine's scan on one, the oracle on the
other, stepped with ``next()``, and between steps the same hypothesis-drawn
mutations on both, placed relative to the cursor.  Stepping from one
thread makes every interleaving deterministic, and the engine's scan
validates its leaf before each row it hands out, so the two sequences
must be identical — including a row inserted ahead after the last row of
a run was already handed out.
"""

import bisect

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.btree import keys as K
from repro.btree import node
from repro.btree.scan import _advance_right, _reacquire
from repro.btree.traversal import AccessMode, Traversal
from repro.concurrency.locks import LockMode, LockSpace
from tests.conftest import intkey

KEY_LEN = 4
PAGE_SIZE = 512  # about 40 rows per full leaf: bursts of 60 split it
SPACING = 16     # loaded keys are multiples of this; the gaps take inserts


def per_row_scan(ctx, tree, txn, lo_unit, hi_unit, lock_rows, with_payload):
    """The oracle: ``btree/scan.py``'s loop before it qualified a leaf per
    latch hold."""
    unit_len = tree.key_len + K.ROWID_LEN
    traversal = Traversal(ctx, tree)
    last_returned = None
    page = traversal.traverse(lo_unit, AccessMode.READER, 0, txn)
    pos, _found = node.leaf_search(page, lo_unit, ctx.counters)
    while True:
        if pos >= page.nrows:
            page, pos = _advance_right(
                ctx, tree, traversal, txn, page, last_returned, lo_unit
            )
            if page is None:
                return
            continue
        row = page.rows[pos]
        unit = row[:unit_len]
        if unit > hi_unit:
            ctx.release_page(page.page_id)
            return
        page_id = page.page_id
        ctx.release_page(page_id)
        if lock_rows:
            ctx.locks.wait_instant(
                txn.txn_id, LockSpace.LOGICAL, unit, LockMode.S
            )
        key, rowid = K.split_unit(unit)
        if with_payload:
            yield key, rowid, row[unit_len:]
        else:
            yield key, rowid
        last_returned = unit
        page = _reacquire(ctx, tree, traversal, txn, page_id, last_returned)
        pos, found = node.leaf_search(page, last_returned, ctx.counters)
        if found:
            pos += 1


def payload_of(k: int) -> bytes:
    return bytes([k % 251]) * (k % 4)


class Side:
    """One engine with its index; mutations go to both sides alike."""

    def __init__(self, n_keys: int, lock_rows: bool, payloads: bool):
        self.engine = Engine(
            page_size=PAGE_SIZE, buffer_capacity=512, lock_rows=lock_rows
        )
        self.tree = self.engine.create_index(key_len=KEY_LEN)
        self.payloads = payloads
        for i in range(n_keys):
            self.insert(i * SPACING, i)

    def insert(self, k: int, rowid: int) -> None:
        payload = payload_of(k) if self.payloads else b""
        self.tree.insert(intkey(k), rowid, payload=payload)

    def delete(self, k: int, rowid: int) -> None:
        self.tree.delete(intkey(k), rowid)

    def leaf_last_keys(self) -> list[int]:
        out = []
        for pid in self.tree.verify().leaf_page_ids:
            page = self.engine.buffer.fetch(pid)
            out.append(int.from_bytes(page.rows[-1][:KEY_LEN], "big"))
            self.engine.buffer.unpin(pid)
        return out


REBUILDS = (
    RebuildConfig(),
    RebuildConfig(ntasize=2, xactsize=4, fillfactor=0.5),
    RebuildConfig(ntasize=3, xactsize=3, split_then_shrink=True),
)

deltas = st.integers(min_value=-4 * SPACING, max_value=30 * SPACING)
operation = st.one_of(
    st.tuples(st.just("next"), st.integers(1, 4)),
    st.tuples(st.just("next"), st.integers(30, 50)),  # across a leaf's end
    st.tuples(st.just("insert"), deltas),
    st.tuples(st.just("delete"), deltas),
    # Bursts split the cursor's leaf, thinning empties the leaves ahead.
    st.tuples(st.just("burst"), st.integers(-2, 3), st.integers(20, 70)),
    st.tuples(st.just("thin"), deltas, st.integers(10, 90)),
    st.tuples(st.just("rebuild"), st.integers(0, len(REBUILDS) - 1)),
    st.tuples(st.just("evict")),
)


@given(
    n_keys=st.integers(min_value=0, max_value=260),
    lo=st.one_of(st.none(), st.integers(0, 260 * SPACING)),
    hi=st.one_of(
        st.none(),
        st.integers(0, 270 * SPACING),
        st.tuples(st.just("last row of leaf"), st.integers(0, 40)),
    ),
    lock_rows=st.booleans(),
    payloads=st.booleans(),
    ops=st.lists(operation, max_size=14),
)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_scan_equals_the_per_row_scan_in_lockstep(
    n_keys, lo, hi, lock_rows, payloads, ops
):
    new, old = (Side(n_keys, lock_rows, payloads) for _ in range(2))
    present = [(i * SPACING, i) for i in range(n_keys)]  # sorted model
    next_rowid = [1_000_000]

    if isinstance(hi, tuple):  # a range that ends on a leaf's last row
        lasts = new.leaf_last_keys() if n_keys else [0]
        hi = lasts[hi[1] % len(lasts)]
    lo_key = None if lo is None else intkey(lo)
    hi_key = None if hi is None else intkey(hi)

    it_new = new.tree.scan(lo_key, hi_key, with_payload=payloads)
    it_old = per_row_scan(
        old.engine.ctx,
        old.tree,
        old.engine.ctx.txns.begin(),
        K.search_floor(lo_key if lo_key is not None else b"\x00" * KEY_LEN),
        K.search_ceiling(hi_key if hi_key is not None else b"\xff" * KEY_LEN),
        lock_rows,
        payloads,
    )
    cursor = lo or 0
    done = False

    def step() -> bool:
        nonlocal cursor
        a, b = next(it_new, None), next(it_old, None)
        assert a == b
        assert not new.engine.ctx.latches.held_by_me()
        if a is None:
            return False
        cursor = int.from_bytes(a[0], "big")
        return True

    def insert(k: int) -> None:
        rowid = next_rowid[0]
        next_rowid[0] += 1
        for side in (new, old):
            side.insert(k, rowid)
        bisect.insort(present, (k, rowid))

    def delete_from(k: int, count: int) -> None:
        at = bisect.bisect_left(present, (k, 0))
        for key, rowid in present[at:at + count]:
            for side in (new, old):
                side.delete(key, rowid)
        del present[at:at + count]

    for op in ops:
        kind = op[0]
        if kind == "next":
            for _ in range(op[1]):
                if not done and not step():
                    done = True
        elif kind == "insert":
            insert(max(0, cursor + op[1]))
        elif kind == "delete":
            delete_from(max(0, cursor + op[1]), 1)
        elif kind == "burst":
            for i in range(op[2]):
                insert(max(0, cursor + op[1] + i))
        elif kind == "thin":
            delete_from(max(0, cursor + op[1]), op[2])
        elif kind == "rebuild":
            for side in (new, old):
                OnlineRebuild(side.tree, REBUILDS[op[1]]).run()
        else:
            for side in (new, old):
                side.engine.buffer.evict_all()
    while not done:
        done = not step()

    assert new.tree.contents() == old.tree.contents() == [
        (intkey(k), rowid) for k, rowid in present
    ]
    new.tree.verify()

"""Property-based tests for the rebuild over random tree states and
configurations (DESIGN.md invariants 4, 5, 6)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.storage.page_manager import PageState
from tests.conftest import intkey


@st.composite
def tree_state(draw):
    """A random populated-then-thinned index description."""
    count = draw(st.integers(min_value=0, max_value=1200))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    delete_stride = draw(st.sampled_from([0, 2, 3, 5]))
    return count, seed, delete_stride


@st.composite
def rebuild_config(draw):
    ntasize = draw(st.sampled_from([1, 2, 3, 8, 32]))
    xact_mult = draw(st.sampled_from([1, 2, 4]))
    fillfactor = draw(st.sampled_from([0.5, 0.8, 1.0]))
    return RebuildConfig(
        ntasize=ntasize,
        xactsize=ntasize * xact_mult,
        fillfactor=fillfactor,
    )


def build(state):
    count, seed, stride = state
    import random

    engine = Engine(buffer_capacity=1024)
    index = engine.create_index(key_len=4)
    order = list(range(count))
    random.Random(seed).shuffle(order)
    for k in order:
        index.insert(intkey(k), k)
    if stride:
        for k in range(0, count, stride):
            index.delete(intkey(k), k)
    return engine, index


@given(state=tree_state(), config=rebuild_config())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_rebuild_invariants(state, config):
    engine, index = build(state)
    before = index.contents()
    report = OnlineRebuild(index, config).run()

    # Invariant 4: exact multiset of (key, rowid) pairs preserved.
    assert index.contents() == before
    # Invariants 1-3: structure checks.
    stats = index.verify()
    # Invariant 5: every new leaf except possibly the last honors the
    # fillfactor (checked as: mean fill within a tolerance below it, and
    # no page overfull relative to 100%).
    if report.leaf_pages_rebuilt >= 3 and stats.leaf_pages >= 3:
        assert stats.leaf_fill <= 1.0
        ids = stats.leaf_page_ids
        fills = []
        for pid in ids[:-1]:
            page = engine.ctx.buffer.fetch(pid)
            fills.append(page.fill_fraction())
            engine.ctx.buffer.unpin(pid)
        # All but the final page of each transaction batch are packed to
        # the fillfactor; allow one row of slack.
        packed = [f for f in fills if f >= config.fillfactor - 0.05]
        assert len(packed) >= len(fills) - max(1, report.transactions)
    # Invariant 6: no page left deallocated.
    assert engine.ctx.page_manager.deallocated_pages() == []
    # No protocol state left behind.
    assert engine.ctx.locks._table == {}


@given(state=tree_state())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_rebuild_then_crash_recovery(state):
    engine, index = build(state)
    OnlineRebuild(
        index, RebuildConfig(ntasize=8, xactsize=16)
    ).run()
    before = index.contents()
    engine.crash()
    engine.recover()
    index = engine.index(1)
    assert index.contents() == before
    index.verify()


@given(
    state=tree_state(),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 1200)), max_size=60
    ),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_tree_fully_usable_after_rebuild(state, ops):
    from repro.errors import DuplicateKeyError, KeyNotFoundError

    engine, index = build(state)
    OnlineRebuild(
        index, RebuildConfig(ntasize=8, xactsize=16)
    ).run()
    for is_insert, k in ops:
        try:
            if is_insert:
                index.insert(intkey(k), k)
            else:
                index.delete(intkey(k), k)
        except (DuplicateKeyError, KeyNotFoundError):
            pass
    index.verify()

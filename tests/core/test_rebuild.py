"""End-to-end online rebuild tests (§3–§6)."""

import threading

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.errors import RebuildAbortedError, RebuildError
from repro.storage.page_manager import PageState
from repro.workload import bulk_load, declustering_metric, keys_for_config
from tests.conftest import contents_as_ints, fill_index, intkey, make_half_empty


def rebuild(index, **kw):
    defaults = dict(ntasize=8, xactsize=32)
    defaults.update(kw)
    return OnlineRebuild(index, RebuildConfig(**defaults)).run()


def test_contents_preserved_exactly(index):
    make_half_empty(index, 3000)
    before = index.contents()
    rebuild(index)
    assert index.contents() == before
    index.verify()


def test_space_utilization_restored(index):
    make_half_empty(index, 3000)
    before = index.verify()
    assert before.leaf_fill < 0.55
    report = rebuild(index, fillfactor=1.0)
    after = index.verify()
    assert after.leaf_fill > 0.95
    assert after.leaf_pages < before.leaf_pages
    assert report.leaf_pages_rebuilt == before.leaf_pages


def test_fillfactor_leaves_headroom(index):
    make_half_empty(index, 3000)
    rebuild(index, fillfactor=0.75)
    after = index.verify()
    assert 0.70 <= after.leaf_fill <= 0.80


def test_old_pages_deallocated_then_freed(engine, index):
    make_half_empty(index, 2000)
    old_leaves = set(index.verify().leaf_page_ids)
    report = rebuild(index)
    new_leaves = set(index.verify().leaf_page_ids)
    assert old_leaves.isdisjoint(new_leaves)
    for pid in old_leaves:
        assert engine.ctx.page_manager.state(pid) is PageState.FREE
    assert report.pages_freed >= len(old_leaves)
    # Nothing stuck in the deallocated limbo state.
    assert engine.ctx.page_manager.deallocated_pages() == []


def test_new_pages_are_clustered(engine):
    # Build declustered (random insert order), then rebuild.
    index = engine.create_index(key_len=4)
    make_half_empty(index, 4000, seed=7)
    before = declustering_metric(index)
    rebuild(index, ntasize=32, xactsize=128)
    after = declustering_metric(index)
    assert after < before
    assert after < 1.5  # §6.1: new leaves contiguous in key order


def test_level1_pages_packed(engine):
    """§5.5: level-1 pages are reorganized during propagation — no
    separate pass — leaving them nearly full and fewer in number."""
    keys, klen = keys_for_config("wide40", 20000)
    index = bulk_load(engine, keys, klen, fill=0.5)
    rebuild(index, ntasize=32, xactsize=256)
    after = index.verify()
    assert after.level1_fill > 0.8


def test_level1_reorg_off_leaves_fragmentation(engine):
    """A1 ablation: without §5.5, level-1 pages end about half empty and
    twice as numerous."""
    keys, klen = keys_for_config("wide40", 20000)
    index = bulk_load(engine, keys, klen, fill=0.5)
    rebuild(index, ntasize=32, xactsize=256, reorganize_level1=False)
    naive = index.verify()

    engine2 = Engine(buffer_capacity=4096)
    index2 = bulk_load(engine2, keys, klen, fill=0.5)
    OnlineRebuild(
        index2, RebuildConfig(ntasize=32, xactsize=256)
    ).run()
    packed = index2.verify()
    assert packed.level1_fill > naive.level1_fill + 0.2
    assert packed.level1_pages < naive.level1_pages


def test_ntasize_one_matches_contents(index):
    make_half_empty(index, 1500)
    before = index.contents()
    report = rebuild(index, ntasize=1, xactsize=32)
    assert index.contents() == before
    assert report.top_actions == report.leaf_pages_rebuilt


def test_larger_ntasize_logs_less(engine):
    keys, klen = keys_for_config("int4", 20000)
    results = {}
    for nta in (1, 32):
        eng = Engine(buffer_capacity=8192)
        index = bulk_load(eng, keys, klen, fill=0.5)
        results[nta] = OnlineRebuild(
            index, RebuildConfig(ntasize=nta, xactsize=256)
        ).run()
    assert results[1].log_bytes > 3 * results[32].log_bytes  # Table 1 shape


def test_larger_ntasize_visits_level1_less(engine):
    keys, klen = keys_for_config("int4", 20000)
    visits = {}
    for nta in (1, 32):
        eng = Engine(buffer_capacity=8192)
        index = bulk_load(eng, keys, klen, fill=0.5)
        report = OnlineRebuild(
            index, RebuildConfig(ntasize=nta, xactsize=256)
        ).run()
        visits[nta] = report.counter_deltas["level1_visits"]
    assert visits[1] > 5 * visits[32]  # §4.3 / §6.2


def test_xactsize_bounds_transactions(index):
    make_half_empty(index, 3000)
    leaves = index.verify().leaf_pages
    report = rebuild(index, ntasize=8, xactsize=16)
    assert report.transactions >= leaves // 16


def test_single_leaf_index_is_noop(index):
    index.insert(intkey(1), 1)
    report = rebuild(index)
    assert report.leaf_pages_rebuilt == 0
    assert index.contains(intkey(1), 1)


def test_empty_index_is_noop(index):
    report = rebuild(index)
    assert report.leaf_pages_rebuilt == 0


def test_two_leaf_index(index):
    fill_index(index, 300, seed=None)
    assert index.verify().leaf_pages >= 2
    before = index.contents()
    rebuild(index)
    assert index.contents() == before


def test_rebuild_of_freshly_packed_index_is_stable(index):
    make_half_empty(index, 2000)
    rebuild(index)
    first = index.verify()
    rebuild(index)
    second = index.verify()
    assert second.leaf_pages == first.leaf_pages
    index.verify()


def test_concurrent_rebuild_rejected(engine, index, monkeypatch):
    """A run parked before its first top action already owns the index: a
    second run on another thread raises instead of rebuilding alongside,
    and once the first run ends a third one goes through."""
    make_half_empty(index, 500)
    before = index.contents()
    progress = engine.ctx.progress
    rebuild_started = progress.rebuild_started
    parked, release = threading.Event(), threading.Event()

    def park_the_first_run(*args, **kwargs):
        if not parked.is_set():
            parked.set()
            release.wait(timeout=30)
        rebuild_started(*args, **kwargs)

    monkeypatch.setattr(progress, "rebuild_started", park_the_first_run)
    first = {}

    def run_first():
        try:
            first["report"] = OnlineRebuild(index).run()
        except BaseException as exc:  # reported by the asserts below
            first["error"] = exc

    thread = threading.Thread(target=run_first)
    thread.start()
    try:
        assert parked.wait(timeout=30)
        with pytest.raises(RebuildError):
            OnlineRebuild(index).run()
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert "error" not in first
    assert first["report"].completed
    with pytest.raises(RebuildError):  # a rejected argument releases too
        OnlineRebuild(index).run(start_key=b"too long")
    assert OnlineRebuild(index).run().completed
    assert index.contents() == before
    index.verify()


def test_abort_keeps_completed_top_actions(engine, index):
    make_half_empty(index, 3000)
    before = index.contents()
    fired = {"count": 0}

    def boom(ctx):
        fired["count"] += 1
        if fired["count"] == 3:
            raise KeyboardInterrupt("user interrupt")

    engine.syncpoints.on("rebuild.nta_end", boom)
    with pytest.raises(RebuildAbortedError):
        rebuild(index)
    engine.syncpoints.clear()
    # Contents intact, structure valid, partial progress kept.
    assert index.contents() == before
    stats = index.verify()
    # The completed top actions' old pages were freed (§4.1.3).
    assert engine.ctx.page_manager.deallocated_pages() == []
    # The rebuild can be resumed (re-run) afterwards.
    rebuild(index)
    assert index.contents() == before
    assert index.verify().leaf_fill > 0.9


def test_a_commit_that_raises_takes_the_abort_path(engine, index, monkeypatch):
    """The log force of the rebuild's second commit fails: the run ends
    with ``RebuildAbortedError`` through the abort path, which ends the
    transaction (the ``run()`` rule of :mod:`repro.testing.invariants`
    passes), and the completed top actions stand."""
    make_half_empty(index, 2000)
    expected = contents_as_ints(index)
    flush_commit = engine.ctx.log.flush_commit
    commits = []

    def failing(lsn, gather=True):
        commits.append(lsn)
        if len(commits) == 2:
            raise OSError("injected log force failure")
        flush_commit(lsn, gather)

    monkeypatch.setattr(engine.ctx.log, "flush_commit", failing)
    rebuild = OnlineRebuild(index, RebuildConfig(ntasize=2, xactsize=4))
    with pytest.raises(RebuildAbortedError, match="log force"):
        rebuild.run()
    assert len(rebuild.began) == 2
    assert not set(engine.ctx.txns.active).intersection(
        txn.txn_id for txn in rebuild.began
    )
    assert rebuild.last_report.aborted
    assert contents_as_ints(index) == expected
    index.verify()


def test_report_counters(index):
    make_half_empty(index, 2000)
    report = rebuild(index, ntasize=8, xactsize=64)
    assert report.top_actions > 0
    assert report.transactions > 0
    assert report.log_bytes > 0
    assert report.new_leaf_pages > 0
    assert report.wall_seconds > 0
    assert not report.aborted
    assert report.log_bytes_by_type.get("KEYCOPY", 0) > 0


def test_wide_key_rebuild(engine):
    keys, klen = keys_for_config("wide40", 8000)
    index = bulk_load(engine, keys, klen, fill=0.5)
    before = index.contents()
    OnlineRebuild(index, RebuildConfig(ntasize=16, xactsize=64)).run()
    assert index.contents() == before
    assert index.verify().leaf_fill > 0.9


def test_split_then_shrink_mode_equivalent_result(index):
    make_half_empty(index, 2000)
    before = index.contents()
    rebuild(index, split_then_shrink=True)
    assert index.contents() == before
    index.verify()


def test_a_power_failure_is_not_a_busy_page(engine, index, monkeypatch):
    """``_acquire_page`` answers "busy" only for a page another top action
    holds — its callers wait and retry on that, forever.  A page it cannot
    read, and a simulated power failure on the read, come out as
    themselves with nothing taken, or a worker spins where the image
    rotted or the machine died."""
    from repro.btree.top_action import TopAction
    from repro.concurrency.syncpoints import CrashPoint
    from repro.core.copy_phase import _acquire_page
    from repro.errors import ChecksumError
    from repro.storage.page import PageFlag

    make_half_empty(index, 500)
    leaf = index.verify().leaf_page_ids[0]
    txn = engine.ctx.txns.begin()

    def read_fails_with(exc):
        def fetch(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr(engine.ctx.buffer, "fetch", fetch)

    top = TopAction(engine.ctx, txn, scan=True)
    for exc in (
        ChecksumError("rotten image"),
        CrashPoint("disk.crash_after_lost_write"),
    ):
        read_fails_with(exc)
        with pytest.raises(type(exc)):
            _acquire_page(top, leaf, PageFlag.SHRINK)
    assert not top.pages and not top.held
    assert not engine.ctx.latches.held_by_me()


def test_a_full_pp_carries_the_lsn_of_its_link_flip(engine):
    """A PP already at the fillfactor takes no rows, but the top action
    flips its ``next_page`` — the keycopy record's change, so PP must
    carry that record's LSN like every target: an unstamped PP could be
    written ahead of the log that explains where it points."""
    tree = bulk_load(engine, [intkey(i) for i in range(3000)], 4, fill=1.0)
    leaves = tree.verify().leaf_page_ids
    pp_id, p1_id = leaves[4], leaves[5]
    pool = engine.buffer
    start_key = bytes(pool.fetch(p1_id).rows[0][:4])
    pool.unpin(p1_id)
    pp = pool.fetch(pp_id)
    rows_before, lsn_before = list(pp.rows), pp.page_lsn
    pool.unpin(pp_id)
    seen = []

    def after_top_action(ctx):
        first = pool.fetch(ctx["new_pages"][0])
        pp = pool.fetch(pp_id)
        seen.append((
            list(pp.rows), pp.next_page == first.page_id,
            pp.page_lsn, first.page_lsn,
        ))
        pool.unpin(pp_id)
        pool.unpin(first.page_id)

    engine.syncpoints.on("rebuild.nta_end", after_top_action)
    report = OnlineRebuild(tree, RebuildConfig(ntasize=4, xactsize=8)).run(
        start_key=start_key, max_pages=4
    )
    assert report.top_actions == 1
    ((rows, linked, pp_lsn, new_lsn),) = seen
    assert rows == rows_before  # nothing packed into the full PP
    assert linked and pp_lsn == new_lsn > lsn_before
    tree.verify()

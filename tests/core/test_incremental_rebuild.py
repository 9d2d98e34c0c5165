"""Incremental and range-restricted rebuild (§7: inline reorganization
makes incremental operation trivial, unlike copy/sidefile schemes)."""

from repro import OnlineRebuild, RebuildConfig
from tests.conftest import contents_as_ints, intkey, make_half_empty


def rebuilder(index):
    return OnlineRebuild(index, RebuildConfig(ntasize=8, xactsize=16))


def test_max_pages_stops_early(index):
    make_half_empty(index, 3000)
    leaves = index.verify().leaf_pages
    report = rebuilder(index).run(max_pages=16)
    assert not report.completed
    assert 16 <= report.leaf_pages_rebuilt <= 24  # top-action granularity
    assert report.resume_unit is not None
    index.verify()


def test_resume_completes_the_job(engine, index):
    make_half_empty(index, 3000)
    before = index.contents()
    report = rebuilder(index).run(max_pages=8)
    slices = 1
    while not report.completed:
        checkpoint = engine.rebuild_checkpoint(1)
        assert checkpoint.resume_key() == report.resume_unit
        report = rebuilder(index).run(
            max_pages=8, resume_checkpoint=checkpoint
        )
        slices += 1
    assert slices > 2  # it really was incremental
    assert index.contents() == before
    stats = index.verify()
    assert stats.leaf_fill > 0.9


def test_contents_preserved_after_partial_slice(index):
    make_half_empty(index, 3000)
    before = index.contents()
    rebuilder(index).run(max_pages=8)
    assert index.contents() == before
    index.verify()


def test_oltp_between_slices(engine, index):
    make_half_empty(index, 3000)
    rebuilder(index).run(max_pages=16)
    # The index is fully usable between slices.
    index.insert(intkey(100_000), 100_000)
    index.delete(intkey(1), 1)
    report = rebuilder(index).run(
        resume_checkpoint=engine.rebuild_checkpoint(1)
    )
    assert report.completed
    assert index.contains(intkey(100_000), 100_000)
    assert not index.contains(intkey(1), 1)
    index.verify()


def test_range_restricted_rebuild_touches_only_the_range(index):
    make_half_empty(index, 4000)
    stats = index.verify()
    # Identify the leaves currently covering keys outside [1000, 2000].
    outside_before = [
        pid
        for pid in stats.leaf_page_ids
        if _leaf_high(index, pid) < intkey(1000) + b"\x00" * 6
        or _leaf_low(index, pid) > intkey(2000) + b"\xff" * 6
    ]
    before = index.contents()
    report = rebuilder(index).run(
        start_key=intkey(1000), end_key=intkey(2000)
    )
    assert report.completed
    assert index.contents() == before
    after_ids = set(index.verify().leaf_page_ids)
    # Every leaf fully outside the range kept its identity.
    for pid in outside_before:
        assert pid in after_ids
    # And a fair number of in-range leaves were rebuilt.
    assert report.leaf_pages_rebuilt >= 5


def test_range_rebuild_packs_the_range(index):
    make_half_empty(index, 4000)
    rebuilder(index).run(start_key=intkey(1000), end_key=intkey(2000))
    # Rows in the range sit on full pages now.
    stats = index.verify()
    in_range_fills = []
    for pid in stats.leaf_page_ids:
        low = _leaf_low(index, pid)
        if intkey(1000) <= low[:4] <= intkey(1900):
            in_range_fills.append(_leaf_fill(index, pid))
    assert in_range_fills
    assert sum(in_range_fills) / len(in_range_fills) > 0.8


def test_range_beyond_contents_is_noop(index):
    make_half_empty(index, 500)
    report = rebuilder(index).run(start_key=intkey(900_000))
    assert report.completed
    assert report.leaf_pages_rebuilt <= 1  # at most the boundary leaf


def _leaf_low(index, pid):
    page = index.ctx.buffer.fetch(pid)
    low = page.rows[0]
    index.ctx.buffer.unpin(pid)
    return low


def _leaf_high(index, pid):
    page = index.ctx.buffer.fetch(pid)
    high = page.rows[-1]
    index.ctx.buffer.unpin(pid)
    return high


def _leaf_fill(index, pid):
    page = index.ctx.buffer.fetch(pid)
    fill = page.fill_fraction()
    index.ctx.buffer.unpin(pid)
    return fill

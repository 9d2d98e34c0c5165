"""The online integrity scrubber: detection, repair ladder, quarantine.

Covers the three defect kinds (checksum rot, unreadable reads, structural
violations), the ladder's two repair rungs (WAL replay vs quarantine +
write-back of the resident frame), false-positive freedom on a healthy
index, and the scrub counters / syncpoints the monitoring layer consumes.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.core.scrubber import CRC_RETRIES, ScrubConfig, Scrubber
from repro.errors import QuarantinedRangeError, ScrubError
from repro.storage.faults import FaultPlan

from ..conftest import contents_as_ints, fill_index, intkey, make_half_empty


def faulty_engine(**kwargs) -> Engine:
    kwargs.setdefault("buffer_capacity", 2048)
    kwargs.setdefault("lock_timeout", 15.0)
    kwargs.setdefault("fault_plan", FaultPlan())
    return Engine(**kwargs)


def expected_after(engine: Engine, tree) -> list[int]:
    return contents_as_ints(tree)


# ------------------------------------------------------------- clean passes


def test_clean_index_full_pass_no_defects():
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 2000)
    scrubber = Scrubber(tree)
    report = scrubber.run_pass()
    assert report.complete
    assert report.clean
    assert report.pages_checked >= tree.verify().leaf_pages
    assert engine.counters.scrub_passes == 1
    assert engine.counters.scrub_defects_found == 0


def test_single_leaf_root_pass():
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    for k in range(5):
        tree.insert(intkey(k), k)
    report = Scrubber(tree).run_pass()
    assert report.complete and report.clean
    assert report.pages_checked == 1


def test_boundary_children_are_checked_against_the_level1_bound(monkeypatch):
    """A pass crosses from one level-1 page to the next by the bound the
    level-1 read returned, and checks each page's last child against it:
    the root separator where the next level-1 page begins, open only at
    the right edge."""
    import repro.core.scrubber as scrubber_mod
    from repro.btree import node
    from repro.workload.builder import bulk_load

    engine = Engine(page_size=512, buffer_capacity=4096)
    tree = bulk_load(engine, [intkey(2 * i) for i in range(20_000)], 4)
    assert tree.height() == 3
    ctx = engine.ctx
    root = ctx.buffer.fetch(tree.root_page_id)
    level1 = [node.entry_child(row) for row in root.rows]
    seps = [node.entry_key(row) for row in root.rows[1:]] + [None]
    ctx.buffer.unpin(tree.root_page_id)
    expected = {}
    for page_id, sep in zip(level1, seps):
        page = ctx.buffer.fetch(page_id)
        expected[node.entry_child(page.rows[-1])] = sep
        ctx.buffer.unpin(page_id)
    assert len(expected) > 1

    checked = {}
    problems_of = scrubber_mod.leaf_local_problems

    def spy(page, lo, hi):
        checked[page.page_id] = hi
        return problems_of(page, lo, hi)

    monkeypatch.setattr(scrubber_mod, "leaf_local_problems", spy)
    report = Scrubber(tree).run_pass()
    assert report.complete and report.clean
    assert report.pages_checked == tree.verify().leaf_pages
    assert {leaf: checked[leaf] for leaf in expected} == expected


# --------------------------------------------------------- seeded detection


def test_every_planted_rot_site_found_in_one_pass():
    """Satellite: each FaultyDisk-planted rot site is surfaced within a
    single pass (repair off so detections accumulate instead of healing)."""
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 3000)
    engine.checkpoint()
    disk = engine.ctx.disk
    stats = tree.verify()
    victims = stats.leaf_page_ids[1::5]  # every 5th leaf
    assert victims
    for i, pid in enumerate(victims):
        assert disk.plant_rot(pid, bit=100 + 64 * i)
    engine.ctx.buffer.evict_all()
    scrubber = Scrubber(tree, config=ScrubConfig(repair=False))
    report = scrubber.run_pass()
    found = {d.page_id for d in report.defects}
    assert set(disk.rot_sites) == set(victims)
    assert found == set(victims), f"missed {set(victims) - found}"
    assert engine.counters.scrub_defects_found == len(victims)


def test_detect_only_leaves_quarantine_untouched():
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 1500)
    engine.checkpoint()
    engine.ctx.disk.plant_rot(tree.verify().leaf_page_ids[0])
    engine.ctx.buffer.evict_all()
    report = Scrubber(tree, config=ScrubConfig(repair=False)).run_pass()
    assert not report.clean
    assert all(d.action == "reported" for d in report.defects)
    assert engine.quarantine.ranges(tree.index_id) == []


# ------------------------------------------------------------ repair ladder


def test_ladder2_unreadable_page_replayed_from_wal():
    """Rot on a page whose full history is still in the durable log is
    reconstructed by recovery replay — no quarantine, no rebuild."""
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 1500)
    before = contents_as_ints(tree)
    engine.ctx.buffer.flush_all()
    victim = tree.verify().leaf_page_ids[2]
    assert engine.ctx.disk.plant_rot(victim, bit=333)
    engine.ctx.buffer.evict_all()  # the frame is gone; disk rot is all there is
    report = Scrubber(tree).run_pass()
    assert [d.kind for d in report.defects] == ["unreadable"]
    assert report.defects[0].action == "replayed"
    assert engine.counters.scrub_repairs_replay == 1
    assert engine.quarantine.ranges(tree.index_id) == []
    assert contents_as_ints(tree) == before
    tree.verify()


def test_ladder2_replay_of_bulk_loaded_leaf_keeps_chain_link():
    """Regression: the bulk loader patched each leaf's next-link directly
    on the buffered page without logging it, so a replay repair rebuilt
    the leaf from its FORMAT history *without* the link — truncating the
    leaf chain.  The patch is now WAL-logged (CHANGENEXTLINK); replay of
    a bulk-loaded leaf must reproduce the full page, chain included."""
    from repro.workload.builder import bulk_load

    engine = faulty_engine()
    tree = bulk_load(
        engine, [intkey(i) for i in range(3000)], key_len=4, fill=0.9
    )
    before = contents_as_ints(tree)
    engine.ctx.buffer.flush_all()
    victim = tree.verify().leaf_page_ids[2]
    assert engine.ctx.disk.plant_rot(victim, bit=99)
    engine.ctx.buffer.evict_all()
    report = Scrubber(tree).run_pass()
    assert [d.action for d in report.defects] == ["replayed"]
    assert engine.quarantine.ranges(tree.index_id) == []
    tree.verify()  # the chain is whole: every leaf reachable
    assert contents_as_ints(tree) == before


def leaf_holding(engine: Engine, tree, key: int) -> int:
    """The id of the leaf whose rows hold ``key``."""
    for pid in tree.verify().leaf_page_ids:
        page = engine.ctx.buffer.fetch(pid)
        held = any(row[: tree.key_len] == intkey(key) for row in page.rows)
        engine.ctx.buffer.unpin(pid)
        if held:
            return pid
    raise AssertionError(f"no leaf holds {key}")


def rot_and_scrub(engine: Engine, tree, victim: int):
    """Store everything, rot ``victim``, empty the pool, scrub once."""
    engine.ctx.buffer.flush_all()
    assert engine.ctx.disk.plant_rot(victim, bit=333)
    engine.ctx.buffer.evict_all()
    return Scrubber(tree).run_pass()


def test_ladder2_replays_a_leaf_whose_history_holds_a_rollback():
    """A rolled-back delete logs the row it put back on the leaf, so the
    leaf's history is single-page records from its birth on and rung 2
    replays it; a compensation that named only the record it undid sent
    the repair to a quarantine that could not read the rotten leaf."""
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    for k in range(0, 3000, 2):
        tree.insert(intkey(k), k)
    txn = engine.ctx.txns.begin()
    tree.delete(intkey(1000), 1000, txn=txn)
    engine.ctx.txns.abort(txn)
    before = contents_as_ints(tree)
    report = rot_and_scrub(engine, tree, leaf_holding(engine, tree, 1000))
    assert [d.action for d in report.defects] == ["replayed"]
    assert contents_as_ints(tree) == before
    tree.verify()


def test_ladder2_replay_keeps_a_row_put_back_on_the_leaf_a_split_made():
    """An open delete, then a split that moves the deleted row's slot to
    a new leaf, then the rollback: the row goes back on the new leaf, and
    a replay of that leaf must put it back too."""
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    model = set(range(0, 3000, 10))
    for k in sorted(model):
        tree.insert(intkey(k), k)
    leaves = tree.verify().leaf_page_ids
    middle = leaves[len(leaves) // 2]
    page = engine.ctx.buffer.fetch(middle)
    keys = [int.from_bytes(row[: tree.key_len], "big") for row in page.rows]
    engine.ctx.buffer.unpin(middle)
    victim_key = keys[-2]
    txn = engine.ctx.txns.begin()
    tree.delete(intkey(victim_key), victim_key, txn=txn)
    splits = []
    engine.syncpoints.on(
        "split.leaf_done",
        lambda ctx: splits.append(ctx["new_page"])
        if ctx["page"] == middle else None,
    )
    for base in keys:
        for k in range(base + 1, base + 10):
            tree.insert(intkey(k), k)
            model.add(k)
        if splits:
            break
    engine.ctx.txns.abort(txn)
    holder = leaf_holding(engine, tree, victim_key)
    assert holder == splits[0]  # the row went back where the split put it
    report = rot_and_scrub(engine, tree, holder)
    assert [d.action for d in report.defects] == ["replayed"]
    assert tree.lookup(intkey(victim_key)) == [victim_key]
    assert contents_as_ints(tree) == sorted(model)
    tree.verify()


def test_ladder3_flush_heals_resident_frame():
    """Rot under a clean resident frame: the buffer still holds the good
    image, so the repair is a re-flush, not a replay or rebuild."""
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 1500)
    engine.ctx.buffer.flush_all()
    victim = tree.verify().leaf_page_ids[1]  # verify left it resident
    assert engine.ctx.buffer.is_resident(victim)
    assert engine.ctx.disk.plant_rot(victim)
    report = Scrubber(tree).run_pass()
    assert [d.kind for d in report.defects] == ["checksum"]
    assert report.defects[0].action == "flushed"
    assert engine.counters.scrub_repairs_flush == 1
    # The stored image verifies again.
    assert Scrubber(tree).run_pass().clean


def test_no_stored_image_read_or_forced_write_under_a_latch(monkeypatch):
    """The CRC check re-reads the stored image and sleeps between its
    retries, and a replay repair forces the page: both only with no latch
    held, or a writer waiting on that latch waits out the device and the
    sleeps (and a forced write under a latch can wait on itself)."""
    engine = faulty_engine()
    ctx = engine.ctx
    tree = engine.create_index(key_len=4)
    fill_index(tree, 1500)
    ctx.buffer.flush_all()
    victim = tree.verify().leaf_page_ids[1]
    assert ctx.disk.plant_rot(victim)
    calls: list[tuple[str, int, dict]] = []

    def unlatched(name, fn):
        def wrapper(page_id, *args, **kwargs):
            calls.append((name, page_id, ctx.latches.held_by_me()))
            return fn(page_id, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        ctx.buffer, "flush_page", unlatched("flush_page", ctx.buffer.flush_page)
    )
    monkeypatch.setattr(
        ctx.disk, "read_physical",
        unlatched("read_physical", ctx.disk.read_physical),
    )
    report = Scrubber(tree).run_pass()
    assert [d.action for d in report.defects] == ["flushed"]
    retries = [c for c in calls if c[:2] == ("read_physical", victim)]
    assert len(retries) > CRC_RETRIES  # the rot persists: every retry
    assert ("flush_page", victim, {}) in calls
    assert [c for c in calls if c[2]] == []


def test_ladder3_quarantine_and_targeted_rebuild(monkeypatch):
    """Rot the WAL can no longer explain (history truncated) under a
    still-resident frame: replay is ineligible, so the range is fenced,
    the resident frame written back over the rotted slot, and the fence
    lifted once the stored image verifies — no rebuild runs, and the rest
    of the index never stops serving."""
    engine = faulty_engine()
    ctx = engine.ctx
    tree = engine.create_index(key_len=4)
    expected = make_half_empty(tree, 3000)
    before = contents_as_ints(tree)
    engine.checkpoint(truncate=True)  # birth records gone: replay ineligible
    leaves_before = tree.verify().leaf_page_ids
    victim = leaves_before[3]
    assert ctx.buffer.is_resident(victim)
    assert ctx.disk.plant_rot(victim, bit=700)
    seen: list[tuple[str, bool]] = []  # (event, fence standing)

    def note(name: str, *_args) -> None:
        seen.append((name, bool(ctx.quarantine.ranges(tree.index_id))))

    def noted(op: str):
        real = getattr(ctx.disk, op)

        def call(*args):
            note(op)
            return real(*args)

        return call

    engine.syncpoints.observe(note)
    for op in ("write", "write_many"):
        monkeypatch.setattr(ctx.disk, op, noted(op))
    report = Scrubber(tree).run_pass()
    assert [d.kind for d in report.defects] == ["checksum"]
    assert report.defects[0].action == "repaired"
    # Fence, then the one write of the pass — the victim's frame, with
    # the fence up — then the lift; no rebuild ran.
    ladder = [
        e for e in seen
        if e[0] in ("scrub.quarantine", "write", "write_many", "scrub.lift")
    ]
    assert ladder == [
        ("scrub.quarantine", True), ("write", True), ("scrub.lift", False)
    ]
    assert not [n for n, _up in seen if n.startswith("rebuild.")]
    assert ctx.disk.verdict(ctx.disk.read_physical(victim)) == "ok"
    assert tree.verify().leaf_page_ids == leaves_before
    assert engine.counters.scrub_quarantines == 1
    assert engine.counters.scrub_quarantine_lifts == 1
    assert engine.quarantine.ranges(tree.index_id) == []
    assert contents_as_ints(tree) == before == sorted(expected)


def test_quarantine_stands_when_rebuild_fails():
    """Rot under no resident frame, with its history truncated: there is
    no good copy to write back, so the fence stands — readers in the
    range fail fast with QuarantinedRangeError, the rest still serves."""
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 3000)
    engine.checkpoint(truncate=True)
    victim = tree.verify().leaf_page_ids[3]
    victim_keys = {
        int.from_bytes(row[: tree.key_len], "big")
        for row in engine.ctx.buffer.fetch(victim).rows
    }
    engine.ctx.buffer.unpin(victim)
    assert engine.ctx.disk.plant_rot(victim, bit=42)
    engine.ctx.buffer.evict_all()
    report = Scrubber(tree).run_pass()
    (defect,) = report.defects
    assert (defect.kind, defect.action) == ("unreadable", "quarantine-stands")
    assert "no resident frame" in defect.error
    standing = engine.quarantine.ranges(tree.index_id)
    assert len(standing) == 1
    assert engine.counters.scrub_quarantine_lifts == 0
    sample = sorted(victim_keys)[len(victim_keys) // 2]
    with pytest.raises(QuarantinedRangeError):
        tree.contains(intkey(sample), sample)
    with pytest.raises(QuarantinedRangeError):
        tree.insert(intkey(sample), sample + 1)
    # A key far outside the fence still serves.
    outside = 0 if sample > 1500 else 2999
    tree.contains(intkey(outside), outside)


def test_clean_pass_lifts_stale_fence():
    """A fence nothing re-confirms dirty (e.g. recovery re-fenced a range
    whose LIFT record missed the final flush) is released by the next
    complete clean pass."""
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 1200)
    engine.quarantine.set_range(tree.index_id, intkey(100), intkey(200))
    assert engine.quarantine.ranges(tree.index_id)
    report = Scrubber(tree).run_pass()
    assert report.complete and report.clean
    assert engine.quarantine.ranges(tree.index_id) == []
    assert engine.counters.scrub_quarantine_lifts == 1


# ----------------------------------------------------------- structure kind


def test_structural_damage_reported_not_rewritten():
    """A page whose *content* violates local invariants (but checksums
    fine) is diagnosed and reported; the scrubber never rewrites intact
    bytes on its own."""
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 1500)
    victim = tree.verify().leaf_page_ids[2]
    page = engine.ctx.buffer.fetch(victim)
    rows = [page.row(i) for i in range(page.nrows)]
    page.delete_row(0)
    page.insert_row(0, rows[1])  # duplicate first unit: ordering violation
    engine.ctx.buffer.unpin(victim, dirty=True)
    engine.ctx.buffer.flush_all()
    report = Scrubber(tree).run_pass()
    kinds = {d.kind for d in report.defects}
    assert kinds == {"structure"}
    assert all(d.action == "reported" for d in report.defects)
    assert report.defects[0].problems


# ----------------------------------------------------- pacing and lifecycle


def test_background_thread_runs_passes_and_stops(monkeypatch):
    import threading

    from repro.core import scrubber as scrubber_mod

    monkeypatch.setattr(scrubber_mod, "PASS_INTERVAL", 0.01)
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 800)
    three_done = threading.Event()
    engine.syncpoints.on(
        "scrub.pass_done",
        lambda ctx: three_done.set() if ctx["epoch"] >= 3 else None,
    )
    scrubber = Scrubber(tree)
    scrubber.start()
    with pytest.raises(ScrubError):
        scrubber.start()
    assert three_done.wait(10.0)
    scrubber.stop()
    assert len(scrubber.passes) >= 3
    assert scrubber.last_error is None
    assert all(p.complete and p.clean for p in scrubber.passes)


def test_throttle_widens_pause_under_latency_pressure():
    from repro.core.scrubber import ScrubReport
    from repro.core.pacer import PACER_STEP, Pacer
    from repro.obs.metrics import Histogram

    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 200)
    oltp = Histogram("oltp_scan_seconds")
    pacer = Pacer([oltp], budget_ms=1.0)
    scrubber = Scrubber(tree, pacer=pacer)
    report = ScrubReport()
    for _ in range(2):  # two batches, each beside an op over the budget
        oltp.record(0.099)
        scrubber._pace(report)
    assert report.throttles == 2
    assert engine.counters.scrub_throttles == 2
    assert pacer.delay == pytest.approx(2 * PACER_STEP)
    # Calm OLTP — the old outliers are in no later window — decays the
    # pause back to nothing.
    oltp.record(0.0001)
    scrubber._pace(report)
    scrubber._pace(report)
    assert pacer.delay == 0.0 and report.throttles == 2


def test_segment_epochs_track_coverage():
    engine = faulty_engine()
    tree = engine.create_index(key_len=4)
    fill_index(tree, 2000)
    scrubber = Scrubber(tree)
    scrubber.run_pass()
    assert scrubber.segment_epochs
    assert set(scrubber.segment_epochs.values()) == {1}
    scrubber.run_pass()
    assert set(scrubber.segment_epochs.values()) == {2}

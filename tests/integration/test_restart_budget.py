"""Restart budget of a crashed rebuild, as exact counts.

Recovery reads the durable log once by header and redoes by page: records
at or below the checkpoint and records with no page effect are never
payload-decoded, and between two records that touch several pages (the
*barriers*: ALLOC, ALLOCRUN, DEALLOC, KEYCOPY, CLR) every page with queued
single-page records is fetched once, in ascending id, by large I/O.  A
drain applies its records from their bytes; only the barriers are decoded
into a ``LogRecord``.  A single-page record on a page that a committed
transaction deallocates later in the log is parked, not queued: no drain
visits it for that record, and nothing applies it unless a barrier reads
the page.  This guard holds ``RecoveryManager`` to that shape on a small
copy of the suite's ``crash_recover`` workload — committed inserts after
the load checkpoint, a crash half way through a pass — single-threaded,
so every count repeats exactly.  The drain schedule and the parked
records it expects are derived here, from the log, not taken from the
code under test.
"""

import copy
import random
import zlib

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.concurrency.syncpoints import CrashPoint
from repro.storage import page as page_module
from repro.storage.buffer import BufferPool
from repro.wal import recovery
from repro.wal.apply import SINGLE_PAGE_REDO
from repro.wal.records import CLR_FLAG, LogRecord, RecordType
from repro.wal.recovery import RecoveryManager
from repro.workload.builder import bulk_load
from tests.conftest import CodecMeter, committed_deallocs, intkey

KEYS = 8000
INSERTS = 2400
FILL = 0.8
"""Fuller than the suite's 0.5, so that at this size the inserts split
leaves: ALLOC barriers between the INSERTs, many pages in each drain."""
HEADER_ONLY = {
    RecordType.TXN_BEGIN, RecordType.TXN_COMMIT, RecordType.TXN_ABORT,
    RecordType.NTA_BEGIN, RecordType.NTA_END,
}
BARRIERS = {
    RecordType.ALLOC, RecordType.ALLOCRUN, RecordType.DEALLOC,
    RecordType.KEYCOPY, RecordType.CLR,
}


def crashed_engine(crash_at=None):
    """A loaded, checkpointed index, ``INSERTS`` committed inserts after
    the checkpoint, and a crash at the middle commit of a rebuild pass —
    or at its ``crash_at``-th — with every frame and the unflushed log
    tail dropped.  Returns the engine and the contents recovery must
    bring back."""
    engine = Engine(page_size=2048, io_size=16384, buffer_capacity=4096)
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(KEYS)], 4, fill=FILL
    )
    for slot in random.Random(5).sample(range(KEYS), INSERTS):
        tree.insert(intkey(2 * slot + 1), slot)
    expected = tree.contents()
    config = RebuildConfig(ntasize=8, xactsize=32)
    if crash_at is None:
        crash_at = round(tree.verify().leaf_pages / config.xactsize / 2)
    commits = [0]

    def crash_hook(_ctx):
        commits[0] += 1
        if commits[0] == crash_at:
            raise CrashPoint("rebuild.txn_committed")

    engine.syncpoints.on("rebuild.txn_committed", crash_hook)
    with pytest.raises(CrashPoint):
        OnlineRebuild(tree, config).run()
    engine.syncpoints.remove("rebuild.txn_committed", crash_hook)
    engine.crash()
    return engine, expected


def dead_pages(records):
    """Page id → LSN of the last DEALLOC of it past the checkpoint that
    its transaction's commit follows: the records on it before then are
    parked."""
    dead: dict[int, int] = {}
    for rec in committed_deallocs(records):
        for pid in rec.page_ids:
            dead[pid] = max(dead.get(pid, 0), rec.lsn)
    return dead


def parked(rec, dead):
    return rec.type in SINGLE_PAGE_REDO and rec.lsn < dead.get(rec.page_id, 0)


def expected_drains(records, checkpoint_lsn):
    """The page sets a page-ordered redo must visit, in order: single-page
    records past the checkpoint pile up per page until a barrier, but for
    the parked ones."""
    dead = dead_pages(records)
    drains, queued = [], set()
    for rec in records:
        if rec.lsn <= checkpoint_lsn or parked(rec, dead):
            continue
        if rec.type in SINGLE_PAGE_REDO:
            queued.add(rec.page_id)
        elif rec.type in BARRIERS and queued:
            drains.append(sorted(queued))
            queued = set()
    if queued:
        drains.append(sorted(queued))
    return drains


class RedoMeter:
    """Brackets the redo pass, each drain and each barrier with counter
    snapshots, counts the read calls each drain made on ``disk``, and
    lists every record decoded into a ``LogRecord`` meanwhile: all of
    them, those of the redo pass, and those inside a drain."""

    def __init__(self, monkeypatch, counters, disk):
        self.redo: dict[str, int] = {}
        self.drains: list[tuple[list[int], dict[str, int], int, int]] = []
        """Per drain: its pages, its counter deltas, its disk read calls,
        and how many of its pages the pool held when it started."""
        self.barriers = {"page_reads": 0, "disk_io_calls": 0}
        self.decoded: list[tuple[int, RecordType]] = []
        self.redo_decoded: list[tuple[int, RecordType]] = []
        self.drain_decoded: list[tuple[int, RecordType]] = []
        where = [None]  # the list a decode is also entered in
        meter = self

        run_redo = RecoveryManager._redo

        def redo(manager, work):
            before = counters.snapshot()
            where[0] = meter.redo_decoded
            try:
                run_redo(manager, work)
            finally:
                where[0] = None
            meter.redo = counters.diff(before)

        run_drain = RecoveryManager._drain

        read_calls = [0]
        read, read_run = disk.read, disk.read_run

        def counting_read(page_id):
            read_calls[0] += 1
            return read(page_id)

        def counting_read_run(start, count):
            read_calls[0] += 1
            return read_run(start, count)

        def drain(manager, queued):
            pages = sorted(queued)
            held = sum(manager.buffer.is_resident(pid) for pid in pages)
            before = counters.snapshot()
            calls_before = read_calls[0]
            outside, where[0] = where[0], meter.drain_decoded
            try:
                run_drain(manager, queued)
            finally:
                where[0] = outside
            if pages:
                meter.drains.append((
                    pages, counters.diff(before),
                    read_calls[0] - calls_before, held,
                ))

        redo_record = recovery.redo_record

        def barrier(rec, ctx):
            before = counters.snapshot()
            redo_record(rec, ctx)
            delta = counters.diff(before)
            for name in meter.barriers:
                meter.barriers[name] += delta[name]

        decode = LogRecord.decode

        def counting_decode(data):
            rec = decode(data)
            meter.decoded.append((rec.lsn, rec.type))
            if where[0] is not None:
                where[0].append((rec.lsn, rec.type))
            return rec

        monkeypatch.setattr(disk, "read", counting_read)
        monkeypatch.setattr(disk, "read_run", counting_read_run)
        monkeypatch.setattr(RecoveryManager, "_redo", redo)
        monkeypatch.setattr(RecoveryManager, "_drain", drain)
        monkeypatch.setattr(recovery, "redo_record", barrier)
        monkeypatch.setattr(LogRecord, "decode", staticmethod(counting_decode))


def image_crc(engine):
    """CRC over the stored image of every allocated page, in id order."""
    crc = 0
    for pid in engine.page_manager.allocated_pages():
        crc = zlib.crc32(engine.ctx.disk.read_physical(pid), crc)
    return crc


def test_restart_decodes_what_it_redoes_and_visits_each_page_once_per_drain(
    monkeypatch,
):
    engine, expected = crashed_engine()
    durable = list(engine.log.scan(durable_only=True))
    checkpoint_lsn = max(
        r.lsn for r in durable if r.type is RecordType.CHECKPOINT
    )
    past = [r for r in durable if r.lsn > checkpoint_lsn]
    drains = expected_drains(durable, checkpoint_lsn)
    dead = dead_pages(durable)
    to_park = [r for r in past if parked(r, dead)]
    assert len(drains) > 20
    assert len(dead) > 50 and len(to_park) > 1000
    assert sum(r.lsn <= checkpoint_lsn for r in durable) > 100

    meter = RedoMeter(monkeypatch, engine.counters, engine.ctx.disk)
    before = engine.counters.snapshot()
    report = engine.recover()
    delta = engine.counters.diff(before)
    monkeypatch.undo()

    assert report.checkpoint_lsn == checkpoint_lsn
    assert report.records_redone == len(past)
    assert report.records_undone == 0 and report.loser_txns == []

    # Payload decodes: nothing header-only, and at or below the checkpoint
    # only the checkpoint itself and the standalone progress records.
    # Analysis decodes each committed DEALLOC past the checkpoint once,
    # and redo takes it from there.
    assert not [t for _lsn, t in meter.decoded if t in HEADER_ONLY]
    old = [(lsn, t) for lsn, t in meter.decoded if lsn <= checkpoint_lsn]
    assert old.count((checkpoint_lsn, RecordType.CHECKPOINT)) == 1
    assert {t for _lsn, t in old} <= {
        RecordType.CHECKPOINT, RecordType.REBUILD_PROGRESS
    }
    # Redo decodes the other barriers and nothing else: a drain reads
    # each record's payload from its bytes.  The crashed pass rolled
    # nothing back, so no CLR sends redo to the log for the record it
    # names.
    assert meter.drain_decoded == []
    ended = {(r.lsn, r.type) for r in committed_deallocs(durable)}
    assert len(ended) > 5
    assert not ended & set(meter.redo_decoded)
    assert [d for d in meter.decoded if d in ended] == sorted(ended)
    barriers = [r for r in past if r.type in BARRIERS]
    assert not [r for r in past if r.flags & CLR_FLAG]
    assert sorted(meter.redo_decoded) == sorted(
        {(r.lsn, r.type) for r in barriers} - ended
    )
    # Nothing reads a page a committed DEALLOC ends (the pass forced every
    # target before its commit): its records stay parked, unread.
    assert delta["recovery_records_parked"] == len(to_park) == 1519
    assert delta["recovery_pages_caught_up"] == 0
    # ``recovery_payloads_decoded`` counts every record whose payload
    # restart read, decoded or applied from its bytes: 2 751 before redo
    # parked records, less the 1 519 parked ones.
    drain_reads = sum(
        d["recovery_payloads_decoded"] for _, d, *_ in meter.drains
    )
    assert drain_reads <= sum(r.type in SINGLE_PAGE_REDO for r in past) - len(
        to_park
    )
    assert (
        delta["recovery_payloads_decoded"]
        == len(meter.decoded) + drain_reads
        == 1232
    )
    assert delta["recovery_records_scanned"] == len(durable)

    # Pool fetches: one per distinct page per drain, plus the barriers' own.
    assert [pages for pages, *_ in meter.drains] == drains
    visits = sum(len(pages) for pages in drains)
    assert all(d["page_reads"] == len(pages) for pages, d, *_ in meter.drains)
    assert delta["recovery_page_visits"] == visits
    assert meter.redo["page_reads"] == visits + meter.barriers["page_reads"]
    assert visits < sum(r.type in SINGLE_PAGE_REDO for r in past)

    # Disk calls: the pool holds everything, so each aligned run that holds
    # a drained page is read at most once over the whole redo pass.
    ppio = engine.ctx.disk.pages_per_io
    assert ppio == 8
    runs = {(pid - 1) // ppio for pages in drains for pid in pages}
    drain_calls = sum(d["disk_io_calls"] for _, d, *_ in meter.drains)
    assert drain_calls <= len(runs)
    assert len(runs) <= -(-engine.page_manager.high_water_mark // ppio)
    assert (
        meter.redo["disk_io_calls"]
        == drain_calls + meter.barriers["disk_io_calls"]
    )

    tree = engine.index(1)
    tree.verify()
    assert tree.contents() == expected
    assert engine.rebuild_checkpoint(1).resume_key()


def lru_misses(page_ids, frames):
    """Misses of a ``frames``-frame LRU pool over a fetch sequence."""
    pool: dict[int, None] = {}
    misses = 0
    for pid in page_ids:
        if pid in pool:
            del pool[pid]
        else:
            misses += 1
            if len(pool) >= frames:
                del pool[next(iter(pool))]
        pool[pid] = None
    return misses


def test_a_32_frame_pool_reads_each_run_once_per_drain(monkeypatch):
    """Log-order redo re-reads a page every time the log comes back to it
    after 32 other pages; page-ordered redo reads it once per drain, and
    the result is the image the big pool produces.  The crash is at the
    pass's first commit: the records of the leaves a committed
    transaction freed are parked, and with few of them freed the first
    drain holds more pages than the pool."""
    big, _ = crashed_engine(crash_at=1)
    RecoveryManager(big.ctx).recover()

    engine, _ = crashed_engine(crash_at=1)
    durable = list(engine.log.scan(durable_only=True))
    pool = BufferPool(engine.ctx.disk, capacity=32, counters=engine.counters)
    pool.set_wal_hook(engine.log.flush_to)
    meter = RedoMeter(monkeypatch, engine.counters, engine.ctx.disk)
    ctx = copy.copy(engine.ctx)  # the engine's, on the 32-frame pool
    ctx.buffer = pool
    ctx.reset_volatile()
    report = RecoveryManager(ctx).recover()
    monkeypatch.undo()

    ppio = engine.ctx.disk.pages_per_io
    assert max(len(pages) for pages, *_ in meter.drains) > 32  # pressure
    assert sum(d["disk_pages_written"] for _, d, *_ in meter.drains) > 0
    for pages, _delta, read_calls, held in meter.drains:
        # One read per aligned run.  A page the pool already held may be
        # pushed out by the admission of its own run's other pages before
        # the drain gets to it: one more read for each such page at most.
        runs = {(pid - 1) // ppio for pid in pages}
        assert read_calls <= len(runs) + held
    drain_reads = sum(calls for *_, calls, _held in meter.drains)
    assert drain_reads == 310
    # The textbook loop applies every record past the checkpoint in log
    # order, the parked ones included.
    in_log_order = [
        r.page_id for r in durable
        if r.lsn > report.checkpoint_lsn and r.type in SINGLE_PAGE_REDO
    ]
    assert 3 * drain_reads < lru_misses(in_log_order, 32) == 1385
    assert engine.page_manager.snapshot() == big.page_manager.snapshot()
    assert image_crc(engine) == image_crc(big)


@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_crash_between_drains_after_a_partial_flush_recovers_the_same_index(
    which,
):
    reference, expected = crashed_engine()
    fired = [0]
    reference.syncpoints.on(
        "recovery.drained", lambda _ctx: fired.__setitem__(0, fired[0] + 1)
    )
    reference.recover()
    want = reference.index(1).verify()
    assert reference.index(1).contents() == expected
    crash_at = {"first": 1, "middle": fired[0] // 2, "last": fired[0]}[which]

    engine, _ = crashed_engine()
    drained = [0]

    def flush_some_then_crash(_ctx):
        drained[0] += 1
        if drained[0] == crash_at:
            # Every other resident page reaches disk, the rest is lost.
            engine.buffer.flush_pages(engine.buffer._resident_ids()[::2])
            raise CrashPoint("recovery.drained")

    engine.syncpoints.on("recovery.drained", flush_some_then_crash)
    with pytest.raises(CrashPoint):
        engine.recover()
    engine.syncpoints.remove("recovery.drained", flush_some_then_crash)
    engine.crash()
    engine.recover()
    tree = engine.index(1)
    assert tree.verify() == want
    assert tree.contents() == expected
    assert engine.page_manager.snapshot() == reference.page_manager.snapshot()


def test_restart_decodes_each_page_it_admits_and_encodes_each_it_writes(
    monkeypatch,
):
    """The page codec is called once per image the pool admits and once per
    image it writes — the counts of the per-row codec, to the call — and
    its cache of row cutters stays inside its bound through a restart, the
    resumed pass and a cold rebuild of a four-level index."""
    page_module._row_cutter.cache_clear()
    engine, expected = crashed_engine()
    meter = CodecMeter(monkeypatch)
    # A disk run reads all of its slots; a run-mate the pool holds already,
    # or one never written, is not decoded.  Redo leaves the leaves the
    # pass freed unread and unwritten: it parks their records.
    recover = meter.measure(engine.counters, engine.recover)
    assert recover == (75, 80, 77, 77)
    ckpt = engine.rebuild_checkpoint(1)
    resume = OnlineRebuild(
        engine.index(1), RebuildConfig(ntasize=8, xactsize=32)
    )
    assert meter.measure(
        engine.counters, lambda: resume.run(resume_checkpoint=ckpt)
    ) == (0, 0, 28, 28)
    assert engine.index(1).contents() == expected

    tall = Engine(page_size=512, io_size=4096, buffer_capacity=4096)
    tree = bulk_load(
        tall, [intkey(2 * i) for i in range(60_000)], 4, fill=0.5
    )
    assert tree.height() == 4
    tall.checkpoint()
    tall.buffer.evict_all()
    assert meter.measure(
        tall.counters, lambda: OnlineRebuild(tree, RebuildConfig()).run()
    ) == (3229, 3232, 1551, 1551)
    monkeypatch.undo()
    tree.verify()

    cuts = page_module._row_cutter.cache_info()
    assert 0 < cuts.currsize <= cuts.maxsize == page_module.CUT_CACHE_SIZE
    assert cuts.hits > 10 * cuts.misses  # few shapes, decoded again and again

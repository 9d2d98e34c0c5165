"""CPU budget of a cache-resident rebuild, as exact counts.

The multipage top action pays its fixed costs once per run of rows, not
once per row: the copy phase moves each target page's rows with one bulk
call, and the commit-time free (§4.1.3) decodes no log record: it frees
what the transaction's completed top actions deallocated.
Single-threaded, so every count repeats exactly; the pinned values are
those of the per-row engine this replaced — the packing, the log records
and the rebuilt leaf images are byte-identical to it.  The page-visit counts (latch acquires, pool
fetches, latched visits) are those of a top action that takes each source
leaf once and gives it back once: 241 source leaves cost 2 x 241 of the
931 latch acquires and 241 of the 436 fetches of the paper-default pass
(1 325 and 1 213 when each leaf was latched four times and fetched five).
Each page written costs one more: the write takes its image under the
page's S latch (120 of the 931).  A descent latches and fetches only the
page it returns; the pages above it are read unlatched and counted under
``pages_visited`` alone (956 and 461 while every level was latched).
"""

import math
import sys
import zlib
from collections import Counter

import pytest

from repro import Engine, OnlineRebuild, RebuildConfig
from repro.core import copy_phase
from repro.core import rebuild as rebuild_module
from repro.storage.page import Page
from repro.wal.records import LogRecord, RecordType
from repro.workload.builder import bulk_load
from tests.conftest import CodecMeter, intkey

PACKING_RECORDS = (RecordType.KEYCOPY, RecordType.ALLOCRUN, RecordType.DEALLOC)

# config, counter deltas of the run, CRC of the rebuilt leaf images in
# chain order, CRC of the run's KEYCOPY / ALLOCRUN / DEALLOC records.
# Both CRCs take every LSN (page timestamps, record LSNs and the ones they
# name) relative to the run's first record: they pin what the run wrote
# and in which order, not how many bytes the bulk load logged before it.
PINNED = [
    pytest.param(
        RebuildConfig(),
        {"log_bytes": 15661, "log_records": 74, "bytes_copied": 200000,
         "new_pages_allocated": 120, "top_actions": 8,
         "latch_acquires": 931, "page_reads": 436, "pages_visited": 705,
         "disk_pages_read": 0, "disk_pages_written": 120},
        1790114197,
        3640834950,
        id="paper-defaults",
    ),
    pytest.param(
        RebuildConfig(fillfactor=0.8, ntasize=8, xactsize=64),
        {"log_bytes": 30749, "log_records": 276, "bytes_copied": 200000,
         "new_pages_allocated": 151, "top_actions": 31,
         "latch_acquires": 1281, "page_reads": 675, "pages_visited": 1024,
         "disk_pages_read": 0, "disk_pages_written": 154},
        1350524148,
        3148591518,
        id="fill80-nta8-xact64",
    ),
]


def _load(**engine_kwargs):
    engine = Engine(
        page_size=2048, io_size=16384, buffer_capacity=4096, **engine_kwargs
    )
    tree = bulk_load(
        engine, [intkey(2 * i) for i in range(20_000)], 4, fill=0.5
    )
    return engine, tree


def _relative(lsn, base):
    """``lsn`` counted from ``base``; 0 (no LSN) stays 0."""
    return lsn - base if lsn else 0


def _leaf_crc(engine, tree, base):
    """CRC of the leaf images in chain order, page timestamps relative to
    the LSN ``base``."""
    crc = 0
    for pid in tree.verify().leaf_page_ids:
        page = engine.buffer.fetch(pid).copy()
        engine.buffer.unpin(pid)
        ts, page.page_lsn = _relative(page.page_lsn, base), 0
        crc = zlib.crc32(repr(ts).encode() + page.to_bytes(), crc)
    return crc


@pytest.mark.parametrize("config, counts, image_crc, records_crc", PINNED)
def test_rebuild_moves_rows_by_run_and_frees_what_its_deallocs_name(
    monkeypatch, config, counts, image_crc, records_crc
):
    engine, tree = _load()
    log = engine.ctx.log

    inside = {"copy": False, "free": False}
    seen = {"insert_row": 0, "insert_rows": 0, "targets": 0}
    decoded_in_free: list[LogRecord] = []
    freed: list[int] = []

    def bracket(owner, name, flag, on_enter=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(*args, **kwargs)
            inside[flag] = True
            try:
                return original(*args, **kwargs)
            finally:
                inside[flag] = False

        monkeypatch.setattr(owner, name, wrapper)

    def count_targets(top, tree, config, sources, targets, *rest):
        seen["targets"] += len(targets)

    bracket(copy_phase, "_apply_copy", "copy", count_targets)
    bracket(OnlineRebuild, "_free", "free")
    page_manager_free = engine.ctx.page_manager.free

    def counting_free(page_id):
        freed.append(page_id)
        page_manager_free(page_id)

    monkeypatch.setattr(engine.ctx.page_manager, "free", counting_free)

    def counting(name):
        original = getattr(Page, name)

        def wrapper(self, *args):
            if inside["copy"]:
                seen[name] += 1
            return original(self, *args)

        monkeypatch.setattr(Page, name, wrapper)

    counting("insert_row")
    counting("insert_rows")

    decode = LogRecord.decode

    def counting_decode(data):
        rec = decode(data)
        if inside["free"]:
            decoded_in_free.append(rec)
        return rec

    monkeypatch.setattr(LogRecord, "decode", staticmethod(counting_decode))
    codec = CodecMeter(monkeypatch)

    before = engine.counters.snapshot()
    first_new_record = len(log._records)
    report = OnlineRebuild(tree, config).run()
    delta = engine.counters.diff(before)
    codec_calls = (codec.decodes, codec.encodes)
    run_records = [decode(d) for d in log._records[first_new_record:]]

    # The copy phase: one bulk call per target page, no per-row call.
    assert seen["insert_row"] == 0
    assert seen["insert_rows"] == seen["targets"] > 0

    # The commit-time free decodes no record, and frees exactly the pages
    # the run's DEALLOC records name, each once.
    deallocs = [r for r in run_records if r.type is RecordType.DEALLOC]
    assert report.transactions >= 1
    assert decoded_in_free == []
    assert sorted(freed) == sorted(p for r in deallocs for p in r.page_ids)
    assert report.pages_freed == len(freed) > 0

    # Byte-identical to the per-row engine; one page codec call per
    # image read or written.
    assert {name: delta[name] for name in counts} == counts
    assert codec_calls == (
        delta["disk_pages_read"], delta["disk_pages_written"]
    )
    assert _leaf_crc(engine, tree, _run_base(log, first_new_record)) == (
        image_crc
    )
    assert _packing_crc(log, first_new_record) == records_crc
    tree.verify()


def test_a_top_action_visits_each_source_leaf_exactly_twice(monkeypatch):
    """Lock, bit and read in one latched visit that keeps the pin; clear
    and unpin in the other.  Only a top action's P1 is looked at more
    often: position discovery and the PP lookup peek at it first."""
    engine, tree = _load()
    ctx = engine.ctx
    old_leaves = tree.verify().leaf_page_ids
    latched, fetched = Counter(), Counter()

    def counting(owner, name, tally):
        original = getattr(owner, name)

        def wrapper(page_id, *args, **kwargs):
            tally[page_id] += 1
            return original(page_id, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ctx.latches, "acquire", latched)
    counting(ctx.buffer, "fetch", fetched)
    runs: list[list[int]] = []
    engine.syncpoints.on(
        "rebuild.copy_locked", lambda c: runs.append(c["sources"])
    )
    OnlineRebuild(tree, RebuildConfig()).run()

    assert [leaf for run in runs for leaf in run] == old_leaves
    for i, run in enumerate(runs):
        for leaf in run[1:]:
            assert (latched[leaf], fetched[leaf]) == (2, 1), leaf
        # P1 was the previous top action's NP (back link flipped), then
        # position discovery and the PP lookup each peeked at it.
        extra = 3 if i else 2
        assert (latched[run[0]], fetched[run[0]]) == (2 + extra, 1 + extra)


def _run_base(log, first_record):
    """The LSN of the run's first record."""
    return LogRecord.peek(log._records[first_record])[3]


def _packing_crc(log, first_record):
    """CRC of the run's KEYCOPY / ALLOCRUN / DEALLOC records, every LSN in
    them relative to the run's first record."""
    base = _run_base(log, first_record)
    crc = 0
    for data in log._records[first_record:]:
        if LogRecord.peek(data)[0] not in PACKING_RECORDS:
            continue
        rec = LogRecord.decode(data)
        for name in ("lsn", "prev_lsn", "undo_next_lsn", "old_ts"):
            setattr(rec, name, _relative(getattr(rec, name), base))
        rec.target_ts = [
            (page, _relative(ts, base)) for page, ts in rec.target_ts
        ]
        crc = zlib.crc32(repr(rec).encode(), crc)
    return crc


@pytest.mark.parametrize("config", [p.values[0] for p in PINNED])
def test_read_ahead_and_write_behind_move_no_output(config, monkeypatch):
    """Read-ahead is a hint and write-behind only moves the force: on a
    cold pool (so the readers really read) the rebuilt leaf images and
    the KEYCOPY / ALLOCRUN / DEALLOC records of a pipelined run equal
    those of the synchronous run byte for byte."""
    outputs, own_reads = [], []
    for min_service in (math.inf, 0.0):
        monkeypatch.setattr(
            rebuild_module, "PIPELINE_MIN_SERVICE", min_service
        )
        engine, tree = _load()
        engine.checkpoint()
        engine.buffer.evict_all()
        first_new_record = len(engine.ctx.log._records)
        before = engine.counters.snapshot()
        # The device costs nothing here, so the pass lasts about five of
        # the interpreter's default switch intervals: short ones, or the
        # two readers may never get a turn among the scheduler's threads.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            OnlineRebuild(tree, config).run()
        finally:
            sys.setswitchinterval(interval)
        delta = engine.counters.diff(before)
        own_reads.append(delta["rebuild_demand_reads"])
        base = _run_base(engine.ctx.log, first_new_record)
        outputs.append((
            _leaf_crc(engine, tree, base),
            _packing_crc(engine.ctx.log, first_new_record),
            delta["log_bytes"],
        ))
        tree.verify()
    assert outputs[0] == outputs[1]
    assert own_reads[1] < own_reads[0]  # the readers did read ahead

"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random
import struct
import time

import pytest

from repro import Engine
from repro.btree.tree import BTree
from repro.core import rebuild as rebuild_module
from repro.core import supervisor as supervisor_module
from repro.errors import PageFormatError
from repro.storage import page as page_module
from repro.storage.page import (
    HEADER_SIZE,
    SLOT_OVERHEAD,
    Page,
    PageType,
)
from repro.testing import invariants
from repro.testing.cleanup import (  # noqa: F401 - re-exported
    NOTHING_LEFT,
    left_behind,
    pinned_ids,
)
from repro.wal.apply import ApplyContext
from repro.wal.records import LogRecord, RecordType

# Cross-check the incremental page byte-accounting cache against a full
# recompute on every used_bytes read, for the whole suite.
page_module.set_debug_accounting(True)
# Check the protocol rules of repro.testing.invariants on every run.
invariants.switch(True)


def intkey(i: int) -> bytes:
    """4-byte big-endian key used throughout the tests."""
    return i.to_bytes(4, "big")


@pytest.fixture
def engine() -> Engine:
    """A fresh engine with a moderately sized buffer pool."""
    return Engine(buffer_capacity=2048, lock_timeout=15.0)


@pytest.fixture
def index(engine: Engine) -> BTree:
    """An empty 4-byte-key index on a fresh engine."""
    return engine.create_index(key_len=4)


@pytest.fixture
def pipelined(monkeypatch) -> None:
    """Every rebuild in the test starts its I/O threads before its first
    top action, whatever the device's service time (what a rebuild picks
    by itself on a slow device)."""
    monkeypatch.setattr(rebuild_module, "PIPELINE_MIN_SERVICE", 0.0)


@pytest.fixture
def fast_retries(monkeypatch) -> None:
    """A supervisor retries after a millisecond, not the production
    backoff."""
    monkeypatch.setattr(supervisor_module, "RETRY_BACKOFF", 0.001)


@pytest.fixture
def unpipelined(monkeypatch) -> None:
    """No rebuild in the test starts I/O threads: every disk call is made
    by the copy thread, in a repeatable order."""
    monkeypatch.setattr(rebuild_module, "PIPELINE_MIN_SERVICE", math.inf)


def fill_index(index: BTree, count: int, seed: int | None = 42) -> list[int]:
    """Insert keys 0..count-1 (shuffled unless seed is None); returns order."""
    order = list(range(count))
    if seed is not None:
        random.Random(seed).shuffle(order)
    for k in order:
        index.insert(intkey(k), k)
    return order


def make_half_empty(index: BTree, count: int, seed: int = 42) -> list[int]:
    """Fill with ``count`` keys then delete the even ones; returns survivors."""
    fill_index(index, count, seed)
    for k in range(0, count, 2):
        index.delete(intkey(k), k)
    return [k for k in range(count) if k % 2 == 1]


def contents_as_ints(index: BTree) -> list[int]:
    return [int.from_bytes(key, "big") for key, _rowid in index.contents()]


def until(predicate, timeout: float = 3.0) -> None:
    """Poll ``predicate`` until it holds (another thread has parked)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class CodecMeter:
    """Counts ``Page.from_bytes`` / ``Page.to_bytes`` calls and checks that
    every decoded row is ``bytes``."""

    def __init__(self, monkeypatch):
        self.decodes = self.encodes = 0
        decode, encode = Page.from_bytes.__func__, Page.to_bytes
        meter = self

        def counting_decode(cls, data, page_size):
            meter.decodes += 1
            page = decode(cls, data, page_size)
            assert all(type(row) is bytes for row in page.rows)
            return page

        def counting_encode(page):
            meter.encodes += 1
            return encode(page)

        monkeypatch.setattr(Page, "from_bytes", classmethod(counting_decode))
        monkeypatch.setattr(Page, "to_bytes", counting_encode)

    def measure(self, counters, run):
        """``(decodes, pages read, encodes, pages written)`` of ``run()``."""
        self.decodes = self.encodes = 0
        before = counters.snapshot()
        run()
        delta = counters.diff(before)
        return (
            self.decodes, delta["disk_pages_read"],
            self.encodes, delta["disk_pages_written"],
        )


# The page codec's oracles: the per-row encoder and decoder that
# ``Page.to_bytes`` / ``Page.from_bytes`` replaced.


def encode_per_row(page: Page) -> bytes:
    """The encoder ``to_bytes`` replaced: one ``struct.pack`` per row."""
    parts = [
        struct.pack(
            "<HIHBBBBHIHIIQHH",
            0xB7EE,
            page.page_id,
            page.index_id,
            int(page.page_type),
            page.level,
            int(page.flags),
            0,
            len(page.rows),
            page.side_page,
            len(page.side_key),
            page.prev_page,
            page.next_page,
            page.page_lsn,
            len(page.blocked_lo),
            len(page.blocked_hi),
        ),
        page.side_key,
        page.blocked_lo,
        page.blocked_hi,
    ]
    for row in page.rows:
        parts.append(struct.pack("<H", len(row)))
        parts.append(row)
    body = b"".join(parts)
    return body + b"\x00" * (page.page_size - len(body))


def decode_per_row(image: bytes) -> tuple:
    """The decoder ``from_bytes`` replaced, one length prefix at a time:
    ``(side_key, blocked_lo, blocked_hi, rows)`` of an image, or
    :class:`PageFormatError` for one that ``to_bytes`` cannot have made."""
    (
        magic, _page_id, _index_id, page_type, _level, flags, _pad, nrows,
        _side_page, side_len, _prev, _next, _lsn, lo_len, hi_len,
    ) = struct.unpack_from("<HIHBBBBHIHIIQHH", image)
    if magic != 0xB7EE or page_type not in (0, 1, 2) or flags & ~0xF:
        raise PageFormatError("bad header")
    off, extras = HEADER_SIZE, []
    for length in (side_len, lo_len, hi_len):
        extras.append(image[off:off + length])
        off += length
    rows = []
    for _ in range(nrows):
        if off + SLOT_OVERHEAD > len(image):
            raise PageFormatError("length prefix past the image")
        (length,) = struct.unpack_from("<H", image, off)
        off += SLOT_OVERHEAD
        rows.append(image[off:off + length])
        off += length
    if off > len(image):
        raise PageFormatError("lengths overflow the image")
    if any(image[off:]):
        raise PageFormatError("not padding")
    return (*extras, rows)


# The redo kernel's oracle: the decoded-record apply that
# ``apply.redo_page_queue`` replaced.


def apply_decoded(rec: LogRecord, page: Page) -> None:
    """The forward change of a decoded single-page record."""
    t = rec.type
    if t in (RecordType.INSERT, RecordType.BATCHINSERT):
        page.insert_rows(rec.pos, rec.rows)
    elif t in (RecordType.DELETE, RecordType.BATCHDELETE):
        page.delete_rows(rec.pos, rec.pos + len(rec.rows))
    elif t is RecordType.CHANGEPREVLINK:
        page.prev_page = rec.new_prev
    elif t is RecordType.CHANGENEXTLINK:
        page.next_page = rec.new_next
    else:  # FORMAT
        page.page_type = PageType(rec.page_type)
        page.level = rec.level
        page.prev_page = rec.prev_page
        page.next_page = rec.next_page


def redo_queue_decoded(page: Page, queue: list[tuple[int, int, bytes]]) -> int:
    """``redo_page_queue``'s loop on a page in hand, decoding each record
    it applies into a :class:`LogRecord`; returns how many it applied."""
    applied = 0
    for lsn, _rtype, data in queue:
        if page.page_lsn < lsn:
            apply_decoded(LogRecord.decode(data), page)
            page.page_lsn = lsn
            applied += 1
    return applied


def redo_decoded(rec: LogRecord, ctx: ApplyContext) -> None:
    """Log-order redo of one decoded single-page record."""
    page = ctx.buffer.fetch(rec.page_id)
    applied = False
    try:
        if page.page_lsn < rec.lsn:
            apply_decoded(rec, page)
            page.page_lsn = rec.lsn
            applied = True
    finally:
        ctx.buffer.unpin(rec.page_id, dirty=applied)


def committed_deallocs(records: list[LogRecord]) -> list[LogRecord]:
    """The DEALLOCs past the last checkpoint in ``records`` (a durable
    log, decoded) that a durable commit of their transaction follows.
    Decided in log order: txn ids start again at 1 after a crash, so an
    id that committed before a restart can be a loser after it."""
    pending: dict[int, list[LogRecord]] = {}
    done: list[LogRecord] = []
    for rec in records:
        if rec.type is RecordType.CHECKPOINT:
            pending.clear()
            done.clear()
        elif rec.type in (RecordType.TXN_COMMIT, RecordType.TXN_ABORT):
            ended = pending.pop(rec.txn_id, [])
            if rec.type is RecordType.TXN_COMMIT:
                done.extend(ended)
        elif rec.type is RecordType.DEALLOC:
            pending.setdefault(rec.txn_id, []).append(rec)
    return done

"""The redo kernel against the decoded-record oracle, on drawn pages.

Crash recovery applies each queued single-page record straight from its
encoded bytes (``apply.redo_page_queue``).  The oracle is the apply it
replaced, kept in ``tests/conftest.py``: decode the record into a
``LogRecord``, then change the page from its fields.  A drawn leaf or
nonleaf page and a drawn queue of every ``SINGLE_PAGE_REDO`` type — with
truncated payloads, positions off the page and rows that do not fit among
them — go through both; the page each leaves behind, the number of
records it applied, or the class of the error it stopped on must be the
same.

A rollback's compensation of a row, link or format change is a record of
the same types, applied by the same kernel: each drawn change followed by
its ``apply.compensation`` must leave the page as it found it.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError, PageFormatError, PageFullError
from repro.stats.counters import Counters
from repro.storage.buffer import BufferPool
from repro.storage.disk import Disk
from repro.storage.page import HEADER_SIZE, SLOT_OVERHEAD, Page, PageType
from repro.storage.page_manager import PageManager
from repro.wal.apply import (
    SINGLE_PAGE_REDO,
    ApplyContext,
    compensation,
    redo_page_queue,
)
from repro.wal.records import CLR_FLAG, RECORD_OVERHEAD, LogRecord, RecordType
from tests.conftest import redo_queue_decoded

PAGE_SIZE = 512
"""Small pages, so that a drawn insert overfills one readily."""
PAGE_ID = 3
POSITIONS = st.integers(0, 24)
"""Slot positions, on and off a page of up to a dozen rows."""
LINKS = st.integers(0, 2**32 - 1)
ROW = st.binary(min_size=1, max_size=48)
BIG_ROW = st.binary(min_size=PAGE_SIZE // 3, max_size=PAGE_SIZE)


@st.composite
def pages(draw) -> Page:
    """A leaf (level 0) or nonleaf page with rows that fit, linked."""
    page = Page(PAGE_ID, PAGE_SIZE)
    if draw(st.booleans()):
        page.page_type = PageType.LEAF
    else:
        page.page_type = PageType.NONLEAF
        page.level = draw(st.integers(1, 4))
    page.prev_page, page.next_page = draw(LINKS), draw(LINKS)
    page.page_lsn = draw(st.integers(0, 100))
    for row in draw(st.lists(ROW, max_size=12)):
        if page.fits(row):
            page.append_row(row)
    return page


def payload_fields(draw, rtype: RecordType) -> dict:
    """The payload fields of one drawn record of ``rtype``."""
    if rtype in (RecordType.INSERT, RecordType.DELETE):
        row = draw(st.one_of(ROW, BIG_ROW))
        return {"pos": draw(POSITIONS), "rows": [row]}
    if rtype in (RecordType.BATCHINSERT, RecordType.BATCHDELETE):
        rows = draw(st.lists(st.one_of(ROW, BIG_ROW), max_size=6))
        return {"pos": draw(POSITIONS), "rows": rows}
    if rtype is RecordType.CHANGEPREVLINK:
        return {"old_prev": draw(LINKS), "new_prev": draw(LINKS)}
    if rtype is RecordType.CHANGENEXTLINK:
        return {"old_next": draw(LINKS), "new_next": draw(LINKS)}
    return {  # FORMAT: any page type byte, a bad one included
        "page_type": draw(st.sampled_from([0, 1, 2, 3])),
        "level": draw(st.integers(0, 255)),
        "prev_page": draw(LINKS),
        "next_page": draw(LINKS),
        "old_format": draw(st.tuples(
            st.integers(0, 2), st.integers(0, 255), LINKS, LINKS
        )),
    }


def truncated(data: bytes, keep: int) -> bytes:
    """``data`` with its payload cut to ``keep`` bytes, reframed so that
    the header still matches the record's length (what ``peek`` checks)."""
    out = bytearray(data[: RECORD_OVERHEAD + keep])
    struct.pack_into("<I", out, 4, len(out))
    return bytes(out)


@st.composite
def queues(draw) -> list[tuple[int, int, bytes]]:
    """``(lsn, type, encoded record)`` in ascending LSN order."""
    queue, lsn = [], draw(st.integers(1, 120))
    for _ in range(draw(st.integers(1, 6))):
        rtype = draw(st.sampled_from(sorted(SINGLE_PAGE_REDO)))
        rec = LogRecord(
            type=rtype, page_id=PAGE_ID, lsn=lsn, **payload_fields(draw, rtype)
        )
        data = rec.encode()
        if draw(st.integers(0, 5)) == 0:
            payload = len(data) - RECORD_OVERHEAD
            data = truncated(data, draw(st.integers(0, payload - 1)))
        queue.append((lsn, int(rtype), data))
        lsn += draw(st.integers(1, 60))
    return queue


def by_the_kernel(image: bytes, queue) -> tuple:
    """What ``redo_page_queue`` leaves: (applied or error class, image)."""
    counters = Counters()
    disk = Disk(page_size=PAGE_SIZE, counters=counters)
    ctx = ApplyContext(
        BufferPool(disk, capacity=16, counters=counters),
        PageManager(disk, counters=counters),
    )
    disk.write(PAGE_ID, image)
    try:
        outcome = redo_page_queue(PAGE_ID, queue, ctx)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        outcome = type(exc)
    page = ctx.buffer.fetch(PAGE_ID)
    try:
        return outcome, page.to_bytes()
    finally:
        ctx.buffer.unpin(PAGE_ID)


def by_the_oracle(image: bytes, queue) -> tuple:
    page = Page.from_bytes(image, PAGE_SIZE)
    try:
        outcome = redo_queue_decoded(page, queue)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        outcome = type(exc)
    return outcome, page.to_bytes()


def record(rtype: RecordType, lsn: int = 50, **fields) -> tuple:
    """A queue entry for one record of ``rtype`` on the page."""
    rec = LogRecord(type=rtype, page_id=PAGE_ID, lsn=lsn, **fields)
    return lsn, int(rtype), rec.encode()


def leaf(*rows: bytes) -> bytes:
    """The image of a leaf holding ``rows``, stamped at LSN 10."""
    page = Page(PAGE_ID, PAGE_SIZE)
    page.page_type = PageType.LEAF
    page.page_lsn = 10
    for row in rows:
        page.append_row(row)
    return page.to_bytes()


FULL_ROW = b"r" * (PAGE_SIZE - HEADER_SIZE - SLOT_OVERHEAD)
"""The one row that fills an empty page to the byte."""

CHECKS = {
    "truncated-payload": (
        leaf(b"a"),
        [(50, int(RecordType.INSERT),
          truncated(record(RecordType.INSERT, pos=0, rows=[b"xyz"])[2], 5))],
        LogFormatError,
    ),
    "truncated-batch": (  # cut one byte into its last row
        leaf(b"a", b"bc"),
        [(50, int(RecordType.BATCHDELETE), truncated(
            record(RecordType.BATCHDELETE, pos=0, rows=[b"a", b"bc"])[2], 10
        ))],
        LogFormatError,
    ),
    "position-off-the-page": (
        leaf(b"a"),
        [record(RecordType.DELETE, pos=1, rows=[b"b"])],
        PageFormatError,
    ),
    "insert-past-the-end": (
        leaf(b"a"),
        [record(RecordType.INSERT, pos=2, rows=[b"b"])],
        PageFormatError,
    ),
    "row-that-does-not-fit": (
        leaf(b"a"),
        [record(RecordType.INSERT, pos=0, rows=[FULL_ROW])],
        PageFullError,
    ),
    "batch-that-does-not-fit": (
        leaf(),
        [record(RecordType.BATCHINSERT, pos=0, rows=[FULL_ROW, b"b"])],
        PageFullError,
    ),
}
"""One queue per check the kernel keeps, with the error it must raise."""


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_the_kernel_keeps_every_check(check):
    image, queue, error = CHECKS[check]
    assert by_the_kernel(image, queue)[0] is error
    assert by_the_kernel(image, queue) == by_the_oracle(image, queue)


def test_a_record_the_image_carries_is_not_read():
    """The timestamp test comes first: a truncated record at or below the
    page's LSN is skipped, not read."""
    image = leaf(b"a")
    stale = record(RecordType.INSERT, lsn=10, pos=0, rows=[b"x"])[2]
    queue = [(10, int(RecordType.INSERT), truncated(stale, 1))]
    assert by_the_kernel(image, queue) == (0, image)
    assert by_the_oracle(image, queue) == (0, image)


@given(page=pages(), queue=queues())
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_the_kernel_leaves_what_the_decoded_apply_leaves(page, queue):
    image = page.to_bytes()
    assert by_the_kernel(image, queue) == by_the_oracle(image, queue)


def change_to(draw, page: Page, rtype: RecordType) -> dict:
    """The payload fields of a ``rtype`` record that applies to ``page``
    as it stands: rows that fit or are there, the links and format the
    page has as the old values."""
    if rtype in (RecordType.INSERT, RecordType.BATCHINSERT):
        most = 1 if rtype is RecordType.INSERT else 6
        rows = draw(st.lists(ROW, min_size=1, max_size=most))
        cost = sum(map(len, rows)) + SLOT_OVERHEAD * len(rows)
        assume(cost <= page.free_bytes)
        return {"pos": draw(st.integers(0, page.nrows)), "rows": rows}
    if rtype in (RecordType.DELETE, RecordType.BATCHDELETE):
        assume(page.nrows)
        lo = draw(st.integers(0, page.nrows - 1))
        hi = lo + 1 if rtype is RecordType.DELETE else draw(
            st.integers(lo, page.nrows)
        )
        return {"pos": lo, "rows": page.rows[lo:hi]}
    if rtype is RecordType.CHANGEPREVLINK:
        return {"old_prev": page.prev_page, "new_prev": draw(LINKS)}
    if rtype is RecordType.CHANGENEXTLINK:
        return {"old_next": page.next_page, "new_next": draw(LINKS)}
    return {  # FORMAT
        "page_type": draw(st.sampled_from([0, 1, 2])),
        "level": draw(st.integers(0, 255)),
        "prev_page": draw(LINKS),
        "next_page": draw(LINKS),
        "old_format": (
            int(page.page_type), page.level, page.prev_page, page.next_page
        ),
    }


@given(page=pages(), data=st.data())
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_a_change_then_its_compensation_leaves_the_page_as_it_was(page, data):
    rtype = data.draw(st.sampled_from(sorted(SINGLE_PAGE_REDO)))
    lsn = page.page_lsn + 1
    rec = LogRecord(
        type=rtype, page_id=PAGE_ID, txn_id=7, lsn=lsn, prev_lsn=lsn - 1,
        **change_to(data.draw, page, rtype),
    )
    comp = compensation(rec)
    comp.txn_id, comp.lsn, comp.prev_lsn = 7, lsn + 1, lsn
    encoded = comp.encode()
    header = LogRecord.peek(encoded)
    assert header[1] & CLR_FLAG and header[6] == rec.prev_lsn
    decoded = LogRecord.decode(encoded)
    assert (decoded.flags, decoded.undo_next_lsn) == (CLR_FLAG, lsn - 1)
    assert decoded.encode() == encoded

    image = page.to_bytes()
    queue = [
        (rec.lsn, int(rtype), rec.encode()),
        (comp.lsn, int(comp.type), encoded),
    ]
    applied, after = by_the_kernel(image, queue)
    assert applied == 2
    back = Page.from_bytes(after, PAGE_SIZE)
    assert back.page_lsn == comp.lsn
    back.page_lsn = page.page_lsn
    assert back.to_bytes() == image

"""Property tests: moving rows by run equals moving them one at a time.

Each test keeps the per-row (or per-record) implementation the engine used
to have as its oracle, in this file — except the page codec's encoder and
decoder, which ``tests/storage/test_page.py`` shares from
``tests/conftest.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.copy_phase import Frozen, plan_copy
from repro.errors import PageFormatError, PageFullError
from repro.stats.counters import Counters
from repro.storage.page import (
    HEADER_SIZE,
    SLOT_OVERHEAD,
    Page,
    PageFlag,
    PageType,
    debug_accounting_enabled,
)
from repro.wal.log import LogManager
from repro.wal.records import KeyCopyEntry, LogRecord, RecordType
from tests.conftest import decode_per_row, encode_per_row

PAGE_SIZE = 512
rows_strategy = st.lists(st.binary(max_size=120), max_size=12)


def _snapshot(page: Page):
    return list(page.rows), page._used


# ------------------------------------------------------- (a) bulk mutators


def _insert_one_by_one(page: Page, pos: int, rows: list[bytes]) -> int:
    for i, row in enumerate(rows):
        page.insert_row(pos + i, row)
    return sum(len(r) for r in rows)


@given(
    resident=rows_strategy,
    batch=rows_strategy,
    where=st.integers(min_value=0, max_value=2**16),
    at_end=st.booleans(),
)
@settings(max_examples=300)
def test_insert_rows_equals_the_per_row_loop(resident, batch, where, at_end):
    assert debug_accounting_enabled()
    bulk, loop = Page(1, PAGE_SIZE), Page(1, PAGE_SIZE)
    for row in resident:
        if bulk.fits(row):
            bulk.append_row(row)
            loop.append_row(row)
    before = _snapshot(bulk)
    pos = bulk.nrows if at_end else where % (bulk.nrows + 1)

    def bulk_move(page, pos, rows):
        return page.extend_rows(rows) if at_end else page.insert_rows(pos, rows)

    outcomes = []
    for page, move in ((loop, _insert_one_by_one), (bulk, bulk_move)):
        try:
            outcomes.append(move(page, pos, batch))
        except PageFullError as exc:
            outcomes.append(type(exc))

    assert outcomes[0] == outcomes[1]
    if outcomes[1] is PageFullError:
        assert _snapshot(bulk) == before  # all-or-nothing; the loop is not
    else:
        assert bulk.rows == loop.rows
        assert bulk.used_bytes == loop.used_bytes  # cross-checked recount


@given(resident=rows_strategy, batch=rows_strategy, past=st.integers(1, 5))
def test_insert_rows_rejects_a_bad_position_untouched(resident, batch, past):
    page = Page(1, 4096)
    page.extend_rows(resident)
    before = _snapshot(page)
    for pos in (-past, page.nrows + past):
        with pytest.raises(PageFormatError):
            page.insert_rows(pos, batch)
        assert _snapshot(page) == before


# ----------------------------------------------------- (b) the copy planner


def _plan_copy_per_unit(sources, pp_free_budget, capacity, fillfactor):
    """The per-unit greedy packer ``plan_copy`` replaced, as (units,
    extents) per target in order, plus ``allocs_per_source``."""
    budget = max(1, int(fillfactor * capacity))
    targets: list[tuple[int, list, list]] = []
    allocs_per_source: dict[int, list[int]] = {}
    free = 0
    if pp_free_budget > 0:
        targets.append((-1, [], []))
        free = pp_free_budget
    next_ordinal = 0
    for src_id, rows in sources:
        allocs_per_source[src_id] = []
        run_start = None
        for pos, unit in enumerate(rows):
            cost = SLOT_OVERHEAD + len(unit)
            if not targets or cost > free:
                if run_start is not None:
                    targets[-1][2].append(
                        KeyCopyEntry(src_id, 0, run_start, pos - 1)
                    )
                targets.append((next_ordinal, [], []))
                allocs_per_source[src_id].append(next_ordinal)
                next_ordinal += 1
                free = budget
                run_start = pos
            elif run_start is None:
                run_start = pos
            targets[-1][1].append(unit)
            free -= cost
        if run_start is not None:
            targets[-1][2].append(
                KeyCopyEntry(src_id, 0, run_start, len(rows) - 1)
            )
    return [t for t in targets if t[1]], allocs_per_source


@given(
    leaves=st.lists(
        st.lists(st.binary(max_size=90), min_size=1, max_size=30),
        min_size=1,
        max_size=8,
    ),
    fillfactor=st.sampled_from([0.05, 0.1, 0.37, 0.8, 1.0]),
    pp_free_budget=st.sampled_from([0, 1, 2, 3, 17, 60, 400, 10_000]),
)
@settings(max_examples=400)
def test_plan_copy_equals_the_per_unit_greedy_packer(
    leaves, fillfactor, pp_free_budget
):
    sources = [(100 + i, rows) for i, rows in enumerate(leaves)]
    capacity = PAGE_SIZE - HEADER_SIZE  # budget of 23 bytes at 0.05
    want_targets, want_allocs = _plan_copy_per_unit(
        sources, pp_free_budget, capacity, fillfactor
    )
    targets, allocs = plan_copy(
        [
            Frozen(pid, rows, sum(SLOT_OVERHEAD + len(r) for r in rows), 0)
            for pid, rows in sources
        ],
        pp_free_budget, capacity, fillfactor,
    )
    assert [(t.ordinal, t.units, t.extents) for t in targets] == want_targets
    assert allocs == want_allocs


# ------------------------------------------------------- (c) the page codec


_extras = st.one_of(
    st.none(),
    st.tuples(st.just("side"), st.binary(max_size=30), st.just(b"")),
    st.tuples(
        st.just("blocked"), st.binary(max_size=30), st.binary(max_size=30)
    ),
)


def _with_extras(page: Page, extras, side_page: int) -> None:
    if extras is not None and extras[0] == "side":
        page.set_flag(PageFlag.SPLIT | PageFlag.OLDPGOFSPLIT)
        page.set_side_entry(extras[1], side_page)
    elif extras is not None:
        page.set_flag(PageFlag.SHRINK | PageFlag.SHRINKRANGE)
        page.set_blocked_range(extras[1], extras[2])


def _check_codec(page: Page) -> None:
    """``to_bytes`` equals the per-row encoder, ``from_bytes`` the per-row
    decoder, and the decoded page equals the page."""
    image = page.to_bytes()
    assert image == encode_per_row(page)
    assert decode_per_row(image) == (
        page.side_key, page.blocked_lo, page.blocked_hi, page.rows
    )
    back = Page.from_bytes(image, page.page_size)
    for name in (
        "page_id", "index_id", "page_type", "level", "flags", "prev_page",
        "next_page", "page_lsn", "side_page", "side_key", "blocked_lo",
        "blocked_hi", "rows", "used_bytes",
    ):
        assert getattr(back, name) == getattr(page, name), name
    assert all(type(row) is bytes for row in back.rows)
    assert back.to_bytes() == image


@given(
    rows=st.lists(
        st.one_of(st.just(b""), st.binary(max_size=70)), max_size=40
    ),
    page_type=st.sampled_from(list(PageType)),
    ints=st.tuples(*[st.integers(0, 2**31)] * 5),
    lsn=st.integers(0, 2**63),
    extras=_extras,
    page_size=st.sampled_from([256, 2048, 4096]),
    fill_to_the_byte=st.booleans(),
)
@settings(max_examples=300)
def test_codec_roundtrips_and_matches_the_per_row_encoder(
    rows, page_type, ints, lsn, extras, page_size, fill_to_the_byte
):
    page = Page(ints[0], page_size)
    page.page_type = page_type
    page.index_id = ints[1] % 65536
    page.level = ints[1] % 256
    page.prev_page, page.next_page, page.side_page = ints[2:]
    page.page_lsn = lsn
    _with_extras(page, extras, ints[4])
    for row in rows:
        if page.fits(row):
            page.append_row(row)
    if fill_to_the_byte and page.free_bytes >= SLOT_OVERHEAD:
        # One maximum-length row: longer than the packed-length table
        # covers when the page is larger than the default.
        page.append_row(b"\xee" * (page.free_bytes - SLOT_OVERHEAD))
        assert page.free_bytes == 0
    _check_codec(page)


@given(
    length=st.one_of(
        st.just(0), st.integers(1, 24), st.integers(256, 700)
    ),
    count=st.one_of(st.just(1), st.integers(0, 2100)),
    first=st.one_of(st.none(), st.integers(0, 300)),
    fill_to_the_byte=st.booleans(),
    extras=_extras,
    page_size=st.sampled_from([256, 2048, 4096]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=300)
def test_codec_of_equal_length_rows_matches_the_per_row_oracles(
    length, count, first, fill_to_the_byte, extras, page_size, seed
):
    """Every row after the first has one length ``L`` (the first has it
    too when ``first`` is None — a leaf — or some other length, as a
    nonleaf's keyless first entry does): the shape the codec cuts and
    joins as one unit."""
    rnd = random.Random(seed)
    page = Page(seed % 2**31, page_size)
    page.page_type = PageType.LEAF if first is None else PageType.NONLEAF
    page.page_lsn = seed
    _with_extras(page, extras, seed % 1000)
    free = page.free_bytes
    stride = SLOT_OVERHEAD + length
    if fill_to_the_byte and free >= SLOT_OVERHEAD:
        # The first row takes whatever the others leave.
        count = (free - SLOT_OVERHEAD) // stride
        first = free - SLOT_OVERHEAD - count * stride
        count += 1
    first_len = length if first is None else first
    if count and SLOT_OVERHEAD + first_len <= free:
        page.append_row(rnd.randbytes(first_len))
        fit = page.free_bytes // stride
        page.extend_rows(
            [rnd.randbytes(length) for _ in range(min(count - 1, fit))]
        )
    if fill_to_the_byte and free >= SLOT_OVERHEAD:
        assert page.free_bytes == 0
    _check_codec(page)


# ---------------------------------------------------- (d) the filtered scan

_SCANNABLE = [
    RecordType.TXN_BEGIN, RecordType.INSERT, RecordType.KEYCOPY,
    RecordType.DEALLOC, RecordType.REBUILD_PROGRESS, RecordType.TXN_COMMIT,
]


def _record(rtype: RecordType, txn_id: int) -> LogRecord:
    return LogRecord(
        type=rtype, txn_id=txn_id, page_id=7, rows=[b"row"],
        entries=[KeyCopyEntry(1, 2, 0, 3)], page_ids=[7, 8, 9],
        epoch=5, last_unit=b"unit",
    )


@given(
    records=st.lists(
        st.tuples(st.sampled_from(_SCANNABLE), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
    flushed=st.integers(0, 40),
    truncated=st.integers(0, 40),
    from_index=st.integers(0, 41),
    from_nudge=st.sampled_from([-1, 0, 1]),
    types=st.one_of(
        st.none(), st.lists(st.sampled_from(_SCANNABLE), max_size=3)
    ),
    txn_id=st.one_of(st.none(), st.integers(0, 3)),
)
@settings(max_examples=300)
def test_filtered_scan_equals_filtering_the_full_scan(
    records, flushed, truncated, from_index, from_nudge, types, txn_id
):
    log = LogManager(counters=Counters())
    lsns = [log.append(_record(t, txn)) for t, txn in records]
    flushed = min(flushed, len(lsns))
    if flushed:
        log.flush_to(lsns[flushed - 1])

    def check():
        # from_lsn on, just before, or just past a record boundary.
        if from_index < len(lsns):
            from_lsn = max(0, lsns[from_index] + from_nudge)
        else:
            from_lsn = log.next_lsn + from_nudge
        for durable_only in (False, True):
            want = [
                rec
                for rec in log.scan(durable_only=durable_only)
                if rec.lsn >= from_lsn
                and (types is None or rec.type in types)
                and (txn_id is None or rec.txn_id == txn_id)
            ]
            got = list(
                log.scan(
                    from_lsn=from_lsn,
                    durable_only=durable_only,
                    types=None if types is None else tuple(types),
                    txn_id=txn_id,
                )
            )
            assert got == want

    check()
    log.truncate_before(lsns[min(truncated, flushed, len(lsns) - 1)])
    check()


def test_peek_validates_like_decode():
    data = _record(RecordType.DEALLOC, 9).encode()
    rtype, _flags, length, _lsn, _prev, txn_id, *_ = LogRecord.peek(data)
    assert (rtype, length, txn_id) == (RecordType.DEALLOC, len(data), 9)
    from repro.errors import LogFormatError

    for bad in (data[:40], b"\x00\x00" + data[2:], data + b"\x00"):
        with pytest.raises(LogFormatError):
            LogRecord.peek(bad)
        with pytest.raises(LogFormatError):
            LogRecord.decode(bad)

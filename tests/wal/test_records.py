"""Round-trip and size tests for every log record type."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.wal.records import (
    CLR_FLAG,
    LEAF_ROW_FLAG,
    RECORD_OVERHEAD,
    ChainLink,
    KeyCopyEntry,
    LogRecord,
    RecordType,
)


def roundtrip(rec: LogRecord) -> LogRecord:
    rec.lsn = 1000
    rec.prev_lsn = 500
    rec.txn_id = 7
    data = rec.encode()
    assert len(data) == rec.size
    back = LogRecord.decode(data)
    assert back.type is rec.type
    assert back.lsn == 1000
    assert back.prev_lsn == 500
    assert back.txn_id == 7
    return back


def test_overhead_constant_matches_paper():
    # §4.3: per-record bookkeeping "as high as 60 bytes".
    assert RECORD_OVERHEAD == 60
    rec = LogRecord(type=RecordType.TXN_BEGIN)
    assert rec.size == RECORD_OVERHEAD


def test_txn_records_header_only():
    for t in (RecordType.TXN_BEGIN, RecordType.TXN_COMMIT, RecordType.TXN_ABORT):
        back = roundtrip(LogRecord(type=t))
        assert back.size == RECORD_OVERHEAD


def test_nta_end_preserves_undo_next():
    rec = LogRecord(type=RecordType.NTA_END, undo_next_lsn=333)
    back = roundtrip(rec)
    assert back.undo_next_lsn == 333


# An INSERT / DELETE is built by either constructor; both must encode to
# the same bytes, and decoding must give back every field.
ROW_CONSTRUCTORS = (
    lambda rtype, pos, row, flags: LogRecord(
        type=rtype, pos=pos, rows=[row], flags=flags
    ),
    LogRecord.row_record,
)
row_record_fields = dict(
    pos=st.integers(0, 0xFFFF),
    unit=st.binary(min_size=1, max_size=16),
    payload=st.one_of(st.just(b""), st.binary(min_size=1, max_size=64)),
    flags=st.sampled_from(
        [0, LEAF_ROW_FLAG, CLR_FLAG, LEAF_ROW_FLAG | CLR_FLAG]
    ),
    chain=st.tuples(
        st.integers(0, 2**64 - 1),  # lsn
        st.integers(0, 2**64 - 1),  # prev_lsn
        st.integers(0, 2**64 - 1),  # txn_id
        st.integers(0, 2**64 - 1),  # undo_next_lsn
        st.integers(0, 2**16 - 1),  # index_id
        st.integers(0, 2**32 - 1),  # page_id
        st.integers(0, 2**64 - 1),  # old_ts
    ),
)
CHAIN_FIELDS = (
    "lsn", "prev_lsn", "txn_id", "undo_next_lsn", "index_id", "page_id",
    "old_ts",
)


def check_row_record(rtype, pos, unit, payload, flags, chain):
    row = unit + payload
    encoded = []
    for make in ROW_CONSTRUCTORS:
        rec = make(rtype, pos, row, flags)
        for name, value in zip(CHAIN_FIELDS, chain):
            setattr(rec, name, value)
        data = rec.encode()
        assert len(data) == rec.size == RECORD_OVERHEAD + 4 + len(row)
        encoded.append(data)
    assert encoded[0] == encoded[1]
    back = LogRecord.decode(encoded[0])
    assert back.type is rtype
    assert (back.pos, back.rows, back.flags) == (pos, [row], flags)
    assert tuple(getattr(back, name) for name in CHAIN_FIELDS) == chain


@settings(max_examples=150)
@example(
    pos=3, unit=b"therow", payload=b"", flags=0,
    chain=(1000, 500, 7, 0, 0, 12, 9),
)
@given(**row_record_fields)
def test_insert_record(pos, unit, payload, flags, chain):
    check_row_record(RecordType.INSERT, pos, unit, payload, flags, chain)


@settings(max_examples=150)
@example(
    pos=0, unit=b"x", payload=b"", flags=0, chain=(1000, 500, 7, 0, 0, 0, 0)
)
@given(**row_record_fields)
def test_delete_record(pos, unit, payload, flags, chain):
    check_row_record(RecordType.DELETE, pos, unit, payload, flags, chain)


def test_batch_records_carry_full_rows():
    rows = [b"aaa", b"bb", b"cccc"]
    for t in (RecordType.BATCHINSERT, RecordType.BATCHDELETE):
        back = roundtrip(LogRecord(type=t, pos=5, rows=list(rows)))
        assert back.pos == 5
        assert back.rows == rows
        assert back.size == RECORD_OVERHEAD + 4 + sum(2 + len(r) for r in rows)


def test_batching_amortizes_overhead():
    # §4.3's point: one batched record of N rows is far smaller than N
    # singleton records.
    rows = [b"k" * 10 for _ in range(50)]
    batch = LogRecord(type=RecordType.BATCHINSERT, pos=0, rows=rows)
    singles = sum(
        LogRecord(type=RecordType.INSERT, pos=0, rows=[r]).size for r in rows
    )
    assert batch.size < singles / 4


def test_keycopy_record_roundtrip_and_no_keys():
    rec = LogRecord(
        type=RecordType.KEYCOPY,
        page_id=2,
        pp_page=2,
        pp_old_next=3,
        pp_new_next=10,
        entries=[KeyCopyEntry(3, 10, 0, 99), KeyCopyEntry(4, 10, 0, 49)],
        target_ts=[(2, 111), (10, 0)],
        links=[ChainLink(10, 2, 5)],
    )
    back = roundtrip(rec)
    assert back.pp_page == 2
    assert back.pp_old_next == 3
    assert back.pp_new_next == 10
    assert back.entries == rec.entries
    assert back.target_ts == rec.target_ts
    assert back.links == rec.links
    # §4.1.2: positions only, never key bytes — size is independent of how
    # many keys were copied.
    assert back.size < 200


def test_keycopy_entry_count():
    assert KeyCopyEntry(1, 2, 10, 19).count == 10


def test_alloc_record_carries_format():
    rec = LogRecord(
        type=RecordType.ALLOC, page_id=8, page_type=1, level=0,
        prev_page=7, next_page=9,
    )
    back = roundtrip(rec)
    assert back.page_type == 1
    assert back.level == 0
    assert back.prev_page == 7
    assert back.next_page == 9


def test_allocrun_record():
    rec = LogRecord(
        type=RecordType.ALLOCRUN, page_id=20, page_type=1, level=0,
        prev_page=19, next_page=30, page_ids=[20, 21, 22],
    )
    back = roundtrip(rec)
    assert back.page_ids == [20, 21, 22]
    assert back.prev_page == 19
    assert back.next_page == 30


def test_dealloc_record_batches_ids():
    rec = LogRecord(type=RecordType.DEALLOC, page_id=4, page_ids=[4, 5, 6])
    back = roundtrip(rec)
    assert back.page_ids == [4, 5, 6]
    assert back.page_id == 4


def test_dealloc_single_defaults_to_page_id():
    rec = LogRecord(type=RecordType.DEALLOC, page_id=4)
    back = roundtrip(rec)
    assert back.page_ids == [4]


def test_link_records():
    back = roundtrip(
        LogRecord(type=RecordType.CHANGEPREVLINK, old_prev=1, new_prev=2)
    )
    assert (back.old_prev, back.new_prev) == (1, 2)
    back = roundtrip(
        LogRecord(type=RecordType.CHANGENEXTLINK, old_next=3, new_next=4)
    )
    assert (back.old_next, back.new_next) == (3, 4)


def test_format_record_old_and_new():
    rec = LogRecord(
        type=RecordType.FORMAT, page_type=2, level=1, prev_page=0,
        next_page=0, old_format=(1, 0, 5, 6),
    )
    back = roundtrip(rec)
    assert back.page_type == 2
    assert back.level == 1
    assert back.old_format == (1, 0, 5, 6)


def test_clr_record():
    back = roundtrip(
        LogRecord(type=RecordType.CLR, undone_lsn=42, undo_next_lsn=10)
    )
    assert back.undone_lsn == 42
    assert back.undo_next_lsn == 10


def test_checkpoint_record_json():
    payload = {"page_manager": {"states": {"1": "allocated"}, "next_new": 2}}
    back = roundtrip(
        LogRecord(type=RecordType.CHECKPOINT, payload_json=payload)
    )
    assert back.payload_json == payload


def test_decode_rejects_garbage():
    with pytest.raises(LogFormatError):
        LogRecord.decode(b"\x00" * 10)
    with pytest.raises(LogFormatError):
        LogRecord.decode(b"\xff" * RECORD_OVERHEAD)


def _retyped(data: bytes, type_byte: int) -> bytes:
    return data[:2] + bytes([type_byte]) + data[3:]


def _resized(data: bytes, size: int) -> bytes:
    """The first ``size`` bytes with the header's length field patched to
    match, so only the payload is short."""
    return data[:4] + size.to_bytes(4, "little") + data[8:size]


@pytest.mark.parametrize("type_byte", [0, 21, 255])
def test_unknown_type_byte_is_a_format_error(type_byte):
    data = _retyped(LogRecord(type=RecordType.TXN_BEGIN).encode(), type_byte)
    with pytest.raises(LogFormatError, match="unknown record type"):
        LogRecord.decode(data)
    with pytest.raises(LogFormatError, match="unknown record type"):
        LogRecord.peek(data)


PAYLOAD_SAMPLES = [
    LogRecord(type=RecordType.INSERT, pos=3, rows=[b"k" * 12]),
    LogRecord(type=RecordType.BATCHDELETE, pos=1, rows=[b"a" * 8, b"b" * 8]),
    LogRecord(
        type=RecordType.KEYCOPY,
        pp_page=4,
        pp_old_next=5,
        pp_new_next=9,
        entries=[KeyCopyEntry(5, 9, 0, 7), KeyCopyEntry(6, 9, 0, 3)],
        target_ts=[(9, 100), (4, 90)],
        links=[ChainLink(9, 4, 7)],
    ),
    LogRecord(type=RecordType.ALLOC, page_type=1, level=0, prev_page=2),
    LogRecord(type=RecordType.ALLOCRUN, page_type=1, page_ids=[7, 8, 9]),
    LogRecord(type=RecordType.DEALLOC, page_ids=[3, 4, 5]),
    LogRecord(type=RecordType.CHANGEPREVLINK, old_prev=1, new_prev=2),
    LogRecord(type=RecordType.CHANGENEXTLINK, old_next=1, new_next=2),
    LogRecord(type=RecordType.FORMAT, page_type=2, level=1),
    LogRecord(type=RecordType.CLR, undone_lsn=1234),
    LogRecord(
        type=RecordType.REBUILD_PROGRESS,
        epoch=77,
        start_unit=b"aaaa",
        last_unit=b"mmmm",
    ),
    LogRecord(type=RecordType.QUARANTINE, epoch=5, start_unit=b"q" * 6),
    LogRecord(type=RecordType.CHECKPOINT, payload_json={"page_manager": {}}),
]


@pytest.mark.parametrize(
    "rec", PAYLOAD_SAMPLES, ids=lambda rec: rec.type.name
)
def test_short_payload_is_a_format_error(rec):
    """Every strict prefix of a payload, framed with a consistent header,
    is refused as ``LogFormatError`` — never ``struct.error``, a JSON
    error, or a silently shortened row."""
    data = rec.encode()
    for size in range(RECORD_OVERHEAD, len(data)):
        short = _resized(data, size)
        assert LogRecord.peek(short)[0] == rec.type  # the header is fine
        if rec.type is RecordType.CHECKPOINT and size == RECORD_OVERHEAD:
            assert LogRecord.decode(short).payload_json == {}
            continue
        with pytest.raises(LogFormatError, match="malformed"):
            LogRecord.decode(short)


def test_peek_returns_the_whole_header():
    rec = LogRecord(
        type=RecordType.INSERT,
        txn_id=7,
        page_id=42,
        index_id=3,
        old_ts=900,
        lsn=1000,
        prev_lsn=500,
        undo_next_lsn=11,
        flags=1,
        pos=2,
        rows=[b"rowbytes"],
    )
    data = rec.encode()
    assert LogRecord.peek(data) == (
        RecordType.INSERT, 1, len(data), 1000, 500, 7, 11, 3, 42, 900,
    )


def test_rebuild_progress_record_roundtrip():
    back = roundtrip(
        LogRecord(
            type=RecordType.REBUILD_PROGRESS,
            index_id=3,
            epoch=1 << 40,
            progress_state=2,
            start_unit=b"\x00\x01start",
            last_unit=b"\x00\x02last!",
        )
    )
    assert back.index_id == 3
    assert back.epoch == 1 << 40
    assert back.progress_state == 2
    assert back.start_unit == b"\x00\x01start"
    assert back.last_unit == b"\x00\x02last!"


def test_rebuild_progress_record_empty_units():
    # A progress record's start unit is written empty; a COMPLETE record
    # may carry an empty last unit when the index was already a single
    # leaf.
    back = roundtrip(
        LogRecord(type=RecordType.REBUILD_PROGRESS, epoch=1, progress_state=2)
    )
    assert back.start_unit == b""
    assert back.last_unit == b""
    assert back.progress_state == 2

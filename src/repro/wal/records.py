"""Write-ahead-log records with byte-exact sizes.

Table 1 of the paper is a *log-space* experiment, so record sizes here are
the measured quantity and must be honest.  Every record carries a fixed
60-byte header — matching the paper's §4.3 observation that insert/delete
records carry "as high as 60 bytes" of bookkeeping (transaction id, old and
new page timestamps, position, backchain LSNs, ...) — plus a typed payload:

===================  ========================================================
record               payload
===================  ========================================================
INSERT / DELETE      slot position + the full row (key is logged)
BATCHINSERT /        slot position + every row; one record batches many
BATCHDELETE          inserts/deletes on one page (§4.3)
KEYCOPY              per-(source, target) copy extents *without key bytes*
                     (§4.1.2): [src page, tgt page, first pos, last pos],
                     plus target timestamps and the new-page chain links
ALLOC                page format info (type, level)
ALLOCRUN             allocation + format of a run of fresh chained pages
                     (the rebuild's chunk-allocated targets) in one record
DEALLOC              list of page ids — one record covers a whole run, the
                     way allocation-bitmap logging batches state changes
CHANGEPREVLINK       old and new prev pointers of NP (§4.1.2)
NTA_BEGIN / NTA_END  nested-top-action brackets; NTA_END is the dummy CLR
                     whose undo_next jumps over the completed action
CLR                  LSN of the ALLOC / ALLOCRUN / DEALLOC / KEYCOPY undone
                     (other compensations are single-page: CLR_FLAG)
CHECKPOINT           page-manager snapshot + tree root (JSON); the header's
                     ``undo_next_lsn`` slot carries ``redo_lsn``, where
                     redo starts
REBUILD_PROGRESS     rebuild epoch + state + last durably copied unit (the
                     ordinal word and the start key of the payload are
                     written 0 / empty); appended standalone (txn id 0)
                     just before each rebuild batch commit so the
                     commit's flush makes it durable for free
QUARANTINE           scrub epoch + set/lift state + quarantined unit range
                     (same payload shape as REBUILD_PROGRESS); appended
                     standalone (txn id 0) and flushed at set time so a
                     crash never forgets known-damaged ranges
===================  ========================================================

Records encode to bytes (what the log "disk" stores) and decode losslessly;
``len(record.encode())`` is the log space the benchmarks report.  The
payload of each single-page type (INSERT / DELETE / BATCH* / the two link
changes / FORMAT) is read by one function here — :func:`row_payload`,
:func:`batch_payload`, :func:`link_payload`, :func:`format_payload` —
which :meth:`LogRecord.decode` and crash recovery's page-ordered redo
(:func:`repro.wal.apply.redo_page_queue`) both call on the encoded record.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field

from repro.errors import LogFormatError

RECORD_OVERHEAD = 60
"""Fixed per-record header size in bytes (paper §4.3)."""

LEAF_ROW_FLAG = 1
"""Record flag: this INSERT/DELETE is a *leaf row* (user data) operation.

Leaf rows are undone logically — located by key from the index root —
because completed splits/rebuild top actions may have relocated them since
they were logged (the ARIES-IM rationale).  Nonleaf entry operations are
always undone physically: they only ever get undone while their enclosing
top action still freezes the affected pages.
"""

CLR_FLAG = 2
"""Record flag: a rollback's *compensation*, never undone; undo resumes at
its ``undo_next_lsn``.  It is a ``CLR`` or the single-page record of the
change the undo made (:func:`repro.wal.apply.compensation`)."""

_HEADER_FMT = "<HBBIQQQQHIQ"
_HEADER_MAGIC = 0x10C5
_HEADER_STRUCT = struct.Struct(_HEADER_FMT)
assert _HEADER_STRUCT.size == 54  # padded to RECORD_OVERHEAD
_FRAME = struct.Struct(_HEADER_FMT + "6x")
"""The header and its zero padding, packed in one call."""
assert _FRAME.size == RECORD_OVERHEAD


def _cut(payload: bytes, off: int, length: int) -> bytes:
    """``payload[off : off + length]``, which must all be there (a plain
    slice would hand back a short row from a short payload)."""
    end = off + length
    if end > len(payload):
        raise ValueError(
            f"field of {length} bytes at offset {off} overruns the "
            f"{len(payload)}-byte payload"
        )
    return payload[off:end]


def _unpack_header(data: bytes) -> tuple:
    """Unpack a record header, checking the frame and the type byte."""
    if len(data) < RECORD_OVERHEAD:
        raise LogFormatError(f"truncated record: {len(data)} bytes")
    fields = _HEADER_STRUCT.unpack_from(data)
    if fields[0] != _HEADER_MAGIC:
        raise LogFormatError(f"bad record magic 0x{fields[0]:04x}")
    if fields[3] != len(data):
        raise LogFormatError(
            f"record length field {fields[3]} != buffer {len(data)}"
        )
    if fields[1] not in RECORD_TYPES:
        raise LogFormatError(f"unknown record type {fields[1]}")
    return fields


# ------------------------------------------------ single-page payload layouts

_POS_COUNT = struct.Struct("<HH")  # slot position + row length / row count
_ROW_LEN = struct.Struct("<H")
_LINK = struct.Struct("<II")  # old, new
_FORMAT = struct.Struct("<BBIIBBII")  # new (type, level, prev, next), old
_ROWS_AT = RECORD_OVERHEAD + _POS_COUNT.size


def _malformed(data: bytes, why: str) -> LogFormatError:
    """The error for a record whose payload ends before its layout does
    (a record whose frame is bad gets the frame's own error)."""
    fields = _unpack_header(data)
    return LogFormatError(
        f"malformed {RECORD_TYPES[fields[1]].name} payload at lsn "
        f"{fields[4]}: {why}"
    )


def row_payload(data: bytes) -> tuple[int, bytes]:
    """``(pos, row)`` of an encoded ``INSERT`` / ``DELETE`` record."""
    try:
        pos, length = _POS_COUNT.unpack_from(data, RECORD_OVERHEAD)
    except struct.error:
        raise _malformed(data, "no slot position") from None
    end = _ROWS_AT + length
    if end > len(data):
        raise _malformed(data, f"a {length}-byte row overruns it")
    return pos, data[_ROWS_AT:end]


def batch_payload(data: bytes) -> tuple[int, list[bytes]]:
    """``(pos, rows)`` of an encoded ``BATCHINSERT`` / ``BATCHDELETE``."""
    try:
        pos, count = _POS_COUNT.unpack_from(data, RECORD_OVERHEAD)
        rows = []
        off = _ROWS_AT
        for _ in range(count):
            (length,) = _ROW_LEN.unpack_from(data, off)
            off += _ROW_LEN.size
            end = off + length
            if end > len(data):
                raise _malformed(data, f"a {length}-byte row overruns it")
            rows.append(data[off:end])
            off = end
    except struct.error:
        raise _malformed(data, "it ends inside a length prefix") from None
    return pos, rows


def link_payload(data: bytes) -> tuple[int, int]:
    """``(old, new)`` link of an encoded ``CHANGEPREVLINK`` /
    ``CHANGENEXTLINK``."""
    try:
        return _LINK.unpack_from(data, RECORD_OVERHEAD)
    except struct.error:
        raise _malformed(data, "no link pair") from None


def format_payload(data: bytes) -> tuple[int, ...]:
    """``(page_type, level, prev, next, old_type, old_level, old_prev,
    old_next)`` of an encoded ``FORMAT`` record."""
    try:
        return _FORMAT.unpack_from(data, RECORD_OVERHEAD)
    except struct.error:
        raise _malformed(data, "no format pair") from None


class RecordType(enum.IntEnum):
    TXN_BEGIN = 1
    TXN_COMMIT = 2
    TXN_ABORT = 3
    NTA_BEGIN = 4
    NTA_END = 5
    INSERT = 6
    DELETE = 7
    BATCHINSERT = 8
    BATCHDELETE = 9
    KEYCOPY = 10
    ALLOC = 11
    DEALLOC = 12
    CHANGEPREVLINK = 13
    CLR = 14
    CHECKPOINT = 15
    CHANGENEXTLINK = 16
    FORMAT = 17
    ALLOCRUN = 18
    REBUILD_PROGRESS = 19
    QUARANTINE = 20


RECORD_TYPES = {t.value: t for t in RecordType}
"""The member for each stored type byte: a dict lookup, not an enum call."""

# The members every append tests, bound once as latch.LATCH_X is.
_NTA_END, _INSERT, _DELETE = (
    RecordType.NTA_END, RecordType.INSERT, RecordType.DELETE
)

PROGRESS_RUNNING = 0
"""``REBUILD_PROGRESS`` state: every unit up to ``last_unit`` is durably
copied (the record is appended just before the batch transaction's commit,
after the §3 force, so prefix durability covers every NTA_END it
summarizes)."""
PROGRESS_COMPLETE = 2
"""``REBUILD_PROGRESS`` state: the entire rebuild finished — recovery must
not resume anything from this epoch."""

QUARANTINE_SET = 0
"""``QUARANTINE`` state: the unit range ``[start_unit, last_unit)`` of
``index_id`` is damaged and fenced off (``last_unit`` = b"" means
to the end of the index)."""
QUARANTINE_LIFT = 1
"""``QUARANTINE`` state: the repair for the matching SET (same epoch)
committed; the range is clean again."""


@dataclass(slots=True)
class KeyCopyEntry:
    """One (source, target) extent of a keycopy record (§4.1.2).

    Rows ``first_pos..last_pos`` (inclusive) of ``src_page`` were appended,
    in order, to the end of ``tgt_page``.  The key bytes themselves are NOT
    logged; redo re-reads the source page, which is legal because old pages
    are freed only after new pages reach disk (§3).
    """

    src_page: int
    tgt_page: int
    first_pos: int
    last_pos: int

    @property
    def count(self) -> int:
        return self.last_pos - self.first_pos + 1


@dataclass(slots=True)
class ChainLink:
    """New leaf-chain link values installed by a rebuild top action."""

    page_id: int
    prev_page: int
    next_page: int


@dataclass(slots=True)
class LogRecord:
    """A decoded log record.

    ``lsn``/``prev_lsn`` chain records of one transaction; ``undo_next_lsn``
    is meaningful for NTA_END and compensation (``CLR_FLAG``) records
    (where undo resumes) and for CHECKPOINT, where it is the checkpoint's
    ``redo_lsn`` (where redo starts), read by header like the rest.
    ``page_id`` is the primary affected page and ``old_ts`` its timestamp
    before the change (the new timestamp is the record's own LSN).
    """

    type: RecordType
    txn_id: int = 0
    page_id: int = 0
    index_id: int = 0
    old_ts: int = 0
    lsn: int = 0
    prev_lsn: int = 0
    undo_next_lsn: int = 0
    flags: int = 0

    # Payload fields; which ones are meaningful depends on ``type``.
    pos: int = 0
    rows: list[bytes] = field(default_factory=list)
    entries: list[KeyCopyEntry] = field(default_factory=list)
    target_ts: list[tuple[int, int]] = field(default_factory=list)
    links: list[ChainLink] = field(default_factory=list)
    old_prev: int = 0
    new_prev: int = 0
    old_next: int = 0
    new_next: int = 0
    pp_page: int = 0
    pp_old_next: int = 0
    pp_new_next: int = 0
    page_type: int = 0
    level: int = 0
    prev_page: int = 0
    next_page: int = 0
    page_ids: list[int] = field(default_factory=list)  # DEALLOC batches
    old_format: tuple[int, int, int, int] | None = None  # (type, level, prev, next)
    payload_json: dict | None = None
    undone_lsn: int = 0  # for CLR: the LSN this record compensates
    # REBUILD_PROGRESS fields.  These records are appended *standalone*
    # (txn_id 0, unchained) so rollback and undo never see them; a durable
    # one is honest even if its batch transaction lost, because the NTA_ENDs
    # it summarizes precede it in LSN order (prefix durability) and
    # completed top actions are never undone.
    epoch: int = 0
    """Rebuild epoch (the log's next LSN when the run started — unique and
    monotone even across crashes); recovery keeps only the highest."""
    progress_state: int = 0
    """PROGRESS_RUNNING or PROGRESS_COMPLETE."""
    start_unit: bytes = b""
    """``QUARANTINE`` only: where the quarantined range starts."""
    last_unit: bytes = b""
    """Highest unit durably copied so far (``QUARANTINE``: where the
    quarantined range ends)."""
    resolved_undone: "LogRecord | None" = None
    """Transient (never serialized): during recovery, the decoded record a
    CLR compensates, resolved from ``undone_lsn`` by the recovery driver."""

    @classmethod
    def header_record(
        cls, type: RecordType, undo_next_lsn: int = 0
    ) -> "LogRecord":
        """Fast constructor for header-only records (TXN_* / NTA_*).

        Skips the 30-field dataclass ``__init__`` on the hottest logging
        path; payload collections are left as ``None`` — header-only
        record types never read them.
        """
        rec = cls.__new__(cls)
        rec.type = type
        rec.txn_id = 0
        rec.page_id = 0
        rec.index_id = 0
        rec.old_ts = 0
        rec.lsn = 0
        rec.prev_lsn = 0
        rec.undo_next_lsn = undo_next_lsn
        rec.flags = 0
        rec.pos = 0
        rec.rows = None  # type: ignore[assignment]
        rec.entries = None  # type: ignore[assignment]
        rec.target_ts = None  # type: ignore[assignment]
        rec.links = None  # type: ignore[assignment]
        rec.old_prev = 0
        rec.new_prev = 0
        rec.old_next = 0
        rec.new_next = 0
        rec.pp_page = 0
        rec.pp_old_next = 0
        rec.pp_new_next = 0
        rec.page_type = 0
        rec.level = 0
        rec.prev_page = 0
        rec.next_page = 0
        rec.page_ids = None  # type: ignore[assignment]
        rec.old_format = None
        rec.payload_json = None
        rec.undone_lsn = 0
        rec.epoch = 0
        rec.progress_state = 0
        rec.start_unit = b""
        rec.last_unit = b""
        rec.resolved_undone = None
        return rec

    @classmethod
    def row_record(
        cls, type: RecordType, pos: int, row: bytes, flags: int = 0
    ) -> "LogRecord":
        """Fast constructor for an ``INSERT`` / ``DELETE`` of one ``row``
        at slot ``pos``: :meth:`header_record` plus the payload fields.
        It encodes to the bytes the dataclass constructor's record does."""
        rec = cls.header_record(type)
        rec.pos = pos
        rec.rows = [row]
        rec.flags = flags
        return rec

    # ----------------------------------------------------------------- encode

    def encode(self) -> bytes:
        return self.encode_given_payload(self._encode_payload())

    def encode_given_payload(self, payload: bytes) -> bytes:
        """Frame an already-encoded payload (it never depends on the LSN).

        The log manager encodes the payload *outside* its lock and calls
        this under the lock once the LSN is assigned.
        """
        return (
            _FRAME.pack(
                _HEADER_MAGIC,
                self.type,
                self.flags,
                RECORD_OVERHEAD + len(payload),
                self.lsn,
                self.prev_lsn,
                self.txn_id,
                self.undo_next_lsn,
                self.index_id,
                self.page_id,
                self.old_ts,
            )
            + payload
        )

    @property
    def size(self) -> int:
        return RECORD_OVERHEAD + len(self._encode_payload())

    def _encode_payload(self) -> bytes:
        t = self.type
        if t <= _NTA_END:  # TXN_* and NTA_*: header only
            return b""
        if t is _INSERT or t is _DELETE:
            (row,) = self.rows
            return _POS_COUNT.pack(self.pos, len(row)) + row
        if t is RecordType.BATCHINSERT or t is RecordType.BATCHDELETE:
            parts = [_POS_COUNT.pack(self.pos, len(self.rows))]
            for row in self.rows:
                parts.append(_ROW_LEN.pack(len(row)))
                parts.append(row)
            return b"".join(parts)
        if t is RecordType.KEYCOPY:
            parts = [
                struct.pack(
                    "<IIIH",
                    self.pp_page,
                    self.pp_old_next,
                    self.pp_new_next,
                    len(self.entries),
                )
            ]
            for e in self.entries:
                parts.append(
                    struct.pack(
                        "<IIHH", e.src_page, e.tgt_page, e.first_pos, e.last_pos
                    )
                )
            parts.append(struct.pack("<H", len(self.target_ts)))
            for page, ts in self.target_ts:
                parts.append(struct.pack("<IQ", page, ts))
            parts.append(struct.pack("<H", len(self.links)))
            for link in self.links:
                parts.append(
                    struct.pack(
                        "<III", link.page_id, link.prev_page, link.next_page
                    )
                )
            return b"".join(parts)
        if t is RecordType.ALLOC:
            return struct.pack(
                "<BBII",
                self.page_type,
                self.level,
                self.prev_page,
                self.next_page,
            )
        if t is RecordType.ALLOCRUN:
            # prev_page/next_page are the chain neighbors of the whole run;
            # pages inside the run are chained to each other in id order.
            head = struct.pack(
                "<BBIIH",
                self.page_type,
                self.level,
                self.prev_page,
                self.next_page,
                len(self.page_ids),
            )
            return head + b"".join(
                struct.pack("<I", pid) for pid in self.page_ids
            )
        if t is RecordType.FORMAT:
            old = self.old_format or (0, 0, 0, 0)
            return struct.pack(
                "<BBIIBBII",
                self.page_type,
                self.level,
                self.prev_page,
                self.next_page,
                *old,
            )
        if t is RecordType.CHANGEPREVLINK:
            return struct.pack("<II", self.old_prev, self.new_prev)
        if t is RecordType.CHANGENEXTLINK:
            return struct.pack("<II", self.old_next, self.new_next)
        if t is RecordType.CLR:
            return struct.pack("<Q", self.undone_lsn)
        if t is RecordType.DEALLOC:
            ids = self.page_ids or [self.page_id]
            return struct.pack("<H", len(ids)) + b"".join(
                struct.pack("<I", pid) for pid in ids
            )
        if t in (RecordType.REBUILD_PROGRESS, RecordType.QUARANTINE):
            # QUARANTINE reuses the progress payload shape: epoch is the
            # scrub epoch, progress_state is QUARANTINE_SET / QUARANTINE_LIFT,
            # start_unit/last_unit bound the quarantined range and index_id
            # (header) names the index.  The 16-bit word after the epoch
            # is reserved: written 0.
            return (
                struct.pack(
                    "<QHBH",
                    self.epoch,
                    0,
                    self.progress_state,
                    len(self.start_unit),
                )
                + self.start_unit
                + struct.pack("<H", len(self.last_unit))
                + self.last_unit
            )
        if t is RecordType.CHECKPOINT:
            return json.dumps(self.payload_json or {}).encode()
        # TXN_* and NTA_*: header only.
        return b""

    # ----------------------------------------------------------------- decode

    @staticmethod
    def peek(data: bytes) -> tuple[int, ...]:
        """The fixed header, payload untouched: ``(type, flags, length,
        lsn, prev_lsn, txn_id, undo_next_lsn, index_id, page_id, old_ts)``.

        Lets a log reader (a filtered scan, reopen, the analysis pass of
        recovery) classify records without decoding their payloads;
        validates the magic, the length and the type byte like
        :meth:`decode`.  The type comes back as a raw int (it compares
        equal to its :class:`RecordType` member).
        """
        return _unpack_header(data)[1:]

    @classmethod
    def decode(cls, data: bytes) -> "LogRecord":
        """Decode a record; anything malformed ends in
        :class:`~repro.errors.LogFormatError`."""
        (
            _magic,
            rtype,
            flags,
            _length,
            lsn,
            prev_lsn,
            txn_id,
            undo_next_lsn,
            index_id,
            page_id,
            old_ts,
        ) = _unpack_header(data)
        rec = cls(
            type=RECORD_TYPES[rtype],
            txn_id=txn_id,
            page_id=page_id,
            index_id=index_id,
            old_ts=old_ts,
            lsn=lsn,
            prev_lsn=prev_lsn,
            undo_next_lsn=undo_next_lsn,
            flags=flags,
        )
        t = rec.type
        if t is RecordType.INSERT or t is RecordType.DELETE:
            rec.pos, row = row_payload(data)
            rec.rows = [row]
        elif t is RecordType.BATCHINSERT or t is RecordType.BATCHDELETE:
            rec.pos, rec.rows = batch_payload(data)
        elif t is RecordType.CHANGEPREVLINK:
            rec.old_prev, rec.new_prev = link_payload(data)
        elif t is RecordType.CHANGENEXTLINK:
            rec.old_next, rec.new_next = link_payload(data)
        elif t is RecordType.FORMAT:
            fields = format_payload(data)
            rec.page_type, rec.level, rec.prev_page, rec.next_page = fields[:4]
            rec.old_format = fields[4:]  # type: ignore[assignment]
        else:
            try:
                rec._decode_payload(data[RECORD_OVERHEAD:])
            except (struct.error, ValueError) as exc:
                # A payload shorter than its type needs (struct.error), or
                # a checkpoint that is not JSON (ValueError).
                raise LogFormatError(
                    f"malformed {t.name} payload at lsn {lsn}: {exc}"
                ) from exc
        return rec

    def _decode_payload(self, payload: bytes) -> None:
        """The payload of a type with no single-page layout reader."""
        t = self.type
        if t is RecordType.KEYCOPY:
            (
                self.pp_page,
                self.pp_old_next,
                self.pp_new_next,
                nentries,
            ) = struct.unpack_from("<IIIH", payload)
            off = 14
            for _ in range(nentries):
                src, tgt, first, last = struct.unpack_from("<IIHH", payload, off)
                self.entries.append(KeyCopyEntry(src, tgt, first, last))
                off += 12
            (ntargets,) = struct.unpack_from("<H", payload, off)
            off += 2
            for _ in range(ntargets):
                page, ts = struct.unpack_from("<IQ", payload, off)
                self.target_ts.append((page, ts))
                off += 12
            (nlinks,) = struct.unpack_from("<H", payload, off)
            off += 2
            for _ in range(nlinks):
                pid, prev, nxt = struct.unpack_from("<III", payload, off)
                self.links.append(ChainLink(pid, prev, nxt))
                off += 12
        elif t is RecordType.ALLOC:
            (
                self.page_type,
                self.level,
                self.prev_page,
                self.next_page,
            ) = struct.unpack_from("<BBII", payload)
        elif t is RecordType.ALLOCRUN:
            (
                self.page_type,
                self.level,
                self.prev_page,
                self.next_page,
                count,
            ) = struct.unpack_from("<BBIIH", payload)
            for i in range(count):
                (pid,) = struct.unpack_from("<I", payload, 12 + 4 * i)
                self.page_ids.append(pid)
            if self.page_ids and not self.page_id:
                self.page_id = self.page_ids[0]
        elif t is RecordType.CLR:
            (self.undone_lsn,) = struct.unpack_from("<Q", payload)
        elif t is RecordType.DEALLOC:
            (count,) = struct.unpack_from("<H", payload)
            for i in range(count):
                (pid,) = struct.unpack_from("<I", payload, 2 + 4 * i)
                self.page_ids.append(pid)
            if self.page_ids and not self.page_id:
                self.page_id = self.page_ids[0]
        elif t is RecordType.REBUILD_PROGRESS or t is RecordType.QUARANTINE:
            (
                self.epoch,
                reserved,
                self.progress_state,
                slen,
            ) = struct.unpack_from("<QHBH", payload)
            if t is RecordType.REBUILD_PROGRESS and (
                reserved
                or self.progress_state
                not in (PROGRESS_RUNNING, PROGRESS_COMPLETE)
            ):
                raise ValueError(
                    f"progress state {self.progress_state}, "
                    f"ordinal {reserved}"
                )
            off = 13
            self.start_unit = _cut(payload, off, slen)
            off += slen
            (llen,) = struct.unpack_from("<H", payload, off)
            off += 2
            self.last_unit = _cut(payload, off, llen)
        elif t is RecordType.CHECKPOINT:
            self.payload_json = json.loads(payload.decode()) if payload else {}

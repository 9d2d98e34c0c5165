"""Byte-accurate slotted index pages.

The paper's experiments use 2 KB pages (§6.4); every capacity decision in the
engine (when a leaf splits, how many new pages a rebuild top action
allocates, whether a level-1 insert fits on the left sibling) is driven by
the *exact* byte accounting implemented here:

    used = HEADER_SIZE + len(side_key) + sum(SLOT_OVERHEAD + len(row))

Rows are opaque byte strings at this layer; :mod:`repro.btree.node` gives
them leaf/nonleaf structure.  A page serializes to exactly ``page_size``
bytes and round-trips through :meth:`Page.to_bytes` /
:meth:`Page.from_bytes`, which is what the simulated disk stores and what
crash recovery re-reads.

Header fields mirror what the paper's protocol needs:

* ``flags`` carries the SPLIT / SHRINK / OLDPGOFSPLIT bits (§2.2-§2.4),
* ``side_key`` / ``side_page`` hold the side entry ``[K, N]`` that a split
  publishes on the old page while the split propagates (§2.3),
* ``page_lsn`` is the page timestamp used for redo idempotence (§4.1.2),
* ``prev_page`` / ``next_page`` implement the doubly linked leaf level.
"""

from __future__ import annotations

import enum
import functools
import struct

from repro.errors import PageFormatError, PageFullError

PAGE_SIZE_DEFAULT = 2048
HEADER_SIZE = 40
SLOT_OVERHEAD = 2  # per-row slot-table cost, as in a real slotted page
NO_PAGE = 0        # null page id; real ids start at 1


def run_bytes(rows: list[bytes]) -> int:
    """What the run ``rows`` takes on a page: its bytes and its slots."""
    return sum(map(len, rows)) + SLOT_OVERHEAD * len(rows)


_HEADER = struct.Struct("<HIHBBBBHIHIIQHH")
_HEADER_MAGIC = 0xB7EE
assert _HEADER.size == 40  # == HEADER_SIZE exactly
PAGE_MAGIC = _HEADER_MAGIC.to_bytes(2, "little")
"""The bytes every page image starts with; the file-backed disk tells a
written slot from a hole by them."""

_ROW_LEN = struct.Struct("<H")
# Packed row-length prefixes for every length a default-size page can hold;
# ``to_bytes`` indexes it instead of calling ``struct.pack`` per row.
_PACKED_LEN = tuple(map(_ROW_LEN.pack, range(PAGE_SIZE_DEFAULT + 1)))


def _prefixes(rows: list[bytes]) -> list[bytes]:
    """The two-byte length prefix of each of ``rows``."""
    try:
        return [_PACKED_LEN[len(r)] for r in rows]
    except IndexError:  # a row longer than a default-size page
        return [_ROW_LEN.pack(len(r)) for r in rows]


CUT_CACHE_SIZE = 256
"""Bound on the cached row cutters, one per (row length, row count) of
the uniform pages decoded lately.  The benchmark workloads use 0 to 41
of them.  A miss builds the cutter again in 2.6-5.3 µs, a fraction of
what the cut saves, so a mix of shapes wider than the bound slows the
fast path down but leaves it faster than the per-row loop."""


@functools.lru_cache(maxsize=CUT_CACHE_SIZE)
def _row_cutter(length: int, count: int):
    """``unpack_from`` of ``count`` rows of ``length`` bytes, each behind
    its two-byte length prefix, which it skips: one C call cuts them all."""
    return struct.Struct("<" + f"2x{length}s" * count).unpack_from


_debug_accounting = False


def set_debug_accounting(enabled: bool) -> None:
    """Cross-check the incremental ``used_bytes`` cache on every read.

    Every mutator maintains a cached byte count so ``used_bytes`` /
    ``fits`` are O(1); with the check on, each ``used_bytes`` read also
    recomputes the sum from scratch and raises if the cache drifted.  The
    test suite enables it (see ``tests/conftest.py``).
    """
    global _debug_accounting
    _debug_accounting = enabled


def debug_accounting_enabled() -> bool:
    return _debug_accounting


class PageType(enum.IntEnum):
    """What a page currently holds."""

    RAW = 0       # freshly allocated / freed; no index content
    LEAF = 1      # index leaf: rows are (key, rowid) pairs
    NONLEAF = 2   # index internal node: rows are (separator, child) entries


_PAGE_TYPES = tuple(PageType)  # indexed by the stored type byte
assert [t.value for t in _PAGE_TYPES] == list(range(len(_PAGE_TYPES)))


class PageFlag(enum.IntFlag):
    """Protocol bits from §2.2-§2.4 of the paper.

    SPLIT blocks writers (but not readers) until the top action that set it
    completes.  SHRINK blocks both.  OLDPGOFSPLIT marks the old page of a
    split whose side entry is valid.  SHRINKRANGE is the paper's §6.2
    enhancement: the SHRINK bit blocks only traversals whose search key
    falls inside the page's published ``[blocked_lo, blocked_hi)`` range —
    the positions of the index entries the rebuild is deleting.
    """

    NONE = 0
    SPLIT = 1
    SHRINK = 2
    OLDPGOFSPLIT = 4
    SHRINKRANGE = 8


_ALL_FLAGS = sum(PageFlag)  # ``from_bytes`` rejects any other bit


class Page:
    """An in-memory page image with exact on-disk size accounting.

    ``rows`` is a list of opaque byte strings kept in slot order.  Mutators
    raise :class:`PageFullError` when the slotted layout would overflow
    ``page_size``; callers (split, rebuild copy phase) treat that as the
    signal to allocate a new page.
    """

    __slots__ = (
        "page_id",
        "index_id",
        "page_type",
        "level",
        "_flags",
        "prev_page",
        "next_page",
        "page_lsn",
        "side_page",
        "_side_key",
        "_blocked_lo",
        "_blocked_hi",
        "rows",
        "page_size",
        "_used",
    )

    def __init__(self, page_id: int, page_size: int = PAGE_SIZE_DEFAULT) -> None:
        self.page_id = page_id
        self.index_id = 0
        self.page_type = PageType.RAW
        self.level = 0
        self._flags = 0
        self.prev_page = NO_PAGE
        self.next_page = NO_PAGE
        self.page_lsn = 0
        self.side_page = NO_PAGE
        self._side_key = b""
        self._blocked_lo = b""
        self._blocked_hi = b""
        self.rows: list[bytes] = []
        self.page_size = page_size
        self._used = HEADER_SIZE

    # Variable-length header fields are managed properties: assigning them
    # keeps the incremental ``used_bytes`` cache exact.

    @property
    def side_key(self) -> bytes:
        return self._side_key

    @side_key.setter
    def side_key(self, value: bytes) -> None:
        self._used += len(value) - len(self._side_key)
        self._side_key = value

    @property
    def blocked_lo(self) -> bytes:
        return self._blocked_lo

    @blocked_lo.setter
    def blocked_lo(self, value: bytes) -> None:
        self._used += len(value) - len(self._blocked_lo)
        self._blocked_lo = value

    @property
    def blocked_hi(self) -> bytes:
        return self._blocked_hi

    @blocked_hi.setter
    def blocked_hi(self, value: bytes) -> None:
        self._used += len(value) - len(self._blocked_hi)
        self._blocked_hi = value

    # ------------------------------------------------------------------ size

    def _recompute_used(self) -> int:
        """Full O(n) recount; ground truth for the incremental cache."""
        rows = run_bytes(self.rows)
        side = len(self.side_key) + len(self.blocked_lo) + len(self.blocked_hi)
        return HEADER_SIZE + side + rows

    @property
    def used_bytes(self) -> int:
        """Exact bytes this page would occupy on disk, excluding padding.

        O(1): mutators maintain the cached count.  ``rows`` must only be
        mutated through the mutator methods (``insert_row`` / ``append_row``
        / ``insert_rows`` / ``extend_rows`` / ``delete_row`` /
        ``delete_rows`` / ``replace_row``), never in place.
        """
        if _debug_accounting:
            actual = self._recompute_used()
            if self._used != actual:
                raise AssertionError(
                    f"page {self.page_id} byte-accounting drift: cached "
                    f"{self._used} != recomputed {actual}"
                )
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.page_size - self.used_bytes

    def fits(self, row: bytes, extra_rows: int = 1) -> bool:
        """Would ``extra_rows`` copies of ``row`` fit right now?  O(1)."""
        return (
            self.page_size - self._used
            >= extra_rows * (SLOT_OVERHEAD + len(row))
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def fill_fraction(self) -> float:
        """Fraction of row space in use (0.0 on an empty page).  O(1)."""
        used = self.used_bytes - HEADER_SIZE
        return used / (self.page_size - HEADER_SIZE)

    # ------------------------------------------------------------------ flags

    # Flag state is a plain int internally: ``has_flag`` sits on the
    # traversal hot path, and going through IntFlag.__and__ re-enters the
    # enum machinery on every check.  ``flag._value_`` reads the member's
    # raw int without the DynamicClassAttribute indirection of ``.value``.

    @property
    def flags(self) -> PageFlag:
        return PageFlag(self._flags)

    @flags.setter
    def flags(self, value: int) -> None:
        self._flags = int(value)

    def has_flag(self, flag: PageFlag) -> bool:
        return bool(self._flags & flag._value_)

    def set_flag(self, flag: PageFlag) -> None:
        self._flags |= flag._value_

    def clear_flag(self, flag: PageFlag) -> None:
        self._flags &= ~flag._value_

    def set_side_entry(self, key: bytes, page_id: int) -> None:
        """Publish the split side entry ``[key, page_id]`` (§2.3).

        Valid only while OLDPGOFSPLIT is set; the caller sets the flag.
        """
        # Blocked-range bytes are excluded here on purpose: a side entry
        # and a blocked range are never live at once (SPLIT vs SHRINK).
        rows_used = (
            self._used
            - len(self.side_key)
            - len(self.blocked_lo)
            - len(self.blocked_hi)
        )
        if rows_used + len(key) > self.page_size:
            raise PageFullError(
                f"side entry of {len(key)} bytes does not fit on page "
                f"{self.page_id}"
            )
        self.side_key = key
        self.side_page = page_id

    def clear_side_entry(self) -> None:
        self.side_key = b""
        self.side_page = NO_PAGE
        self.clear_flag(PageFlag.OLDPGOFSPLIT)

    def set_blocked_range(self, lo: bytes, hi: bytes) -> None:
        """Publish the §6.2 delete-range side entry ``[lo, hi)``.

        An empty ``lo`` means minus-infinity, an empty ``hi`` means
        plus-infinity (so an all-empty range blocks everything, which is
        the plain-SHRINK behavior).  Valid only while SHRINKRANGE is set;
        the caller sets the flag.
        """
        grow = len(lo) + len(hi) - len(self.blocked_lo) - len(self.blocked_hi)
        if grow > self.free_bytes:
            raise PageFullError(
                f"blocked range does not fit on page {self.page_id}"
            )
        self.blocked_lo = lo
        self.blocked_hi = hi

    def clear_blocked_range(self) -> None:
        self.blocked_lo = b""
        self.blocked_hi = b""
        self.clear_flag(PageFlag.SHRINKRANGE)

    def clear_protocol_state(self) -> None:
        """Drop what an in-flight top action left on the page: the SPLIT
        and SHRINK bits, the side entry and the blocked range."""
        self.clear_flag(PageFlag.SPLIT)
        self.clear_flag(PageFlag.SHRINK)
        self.clear_side_entry()
        self.clear_blocked_range()

    def blocks_unit(self, unit: bytes) -> bool:
        """Does this page's SHRINK state block a traversal for ``unit``?

        Plain SHRINK blocks everything; with SHRINKRANGE only units inside
        the published ``[blocked_lo, blocked_hi)`` range are blocked.
        """
        if not self.has_flag(PageFlag.SHRINK):
            return False
        if not self.has_flag(PageFlag.SHRINKRANGE):
            return True
        if self.blocked_lo and unit < self.blocked_lo:
            return False
        if self.blocked_hi and unit >= self.blocked_hi:
            return False
        return True

    # ------------------------------------------------------------------- rows

    def row(self, pos: int) -> bytes:
        return self.rows[pos]

    def insert_row(self, pos: int, data: bytes) -> None:
        """Insert ``data`` at slot ``pos``, shifting later slots right."""
        if not self.fits(data):
            raise PageFullError(
                f"row of {len(data)} bytes does not fit on page "
                f"{self.page_id} (free={self.free_bytes})"
            )
        if not 0 <= pos <= len(self.rows):
            raise PageFormatError(
                f"insert position {pos} out of range on page {self.page_id}"
            )
        self.rows.insert(pos, data)
        self._used += SLOT_OVERHEAD + len(data)

    def append_row(self, data: bytes) -> None:
        self.insert_row(len(self.rows), data)

    def insert_rows(self, pos: int, rows: list[bytes]) -> int:
        """Insert the run ``rows`` at slot ``pos``; returns its row bytes.

        The bulk form of :meth:`insert_row`: one fit check for the whole
        batch and one slice assignment.  All-or-nothing — a batch that does
        not fit raises :class:`PageFullError` and leaves the page untouched.
        """
        cost = run_bytes(rows)
        if cost > self.page_size - self._used:
            raise PageFullError(
                f"{len(rows)} rows of {cost} bytes with their slots do not "
                f"fit on page {self.page_id} (free={self.free_bytes})"
            )
        if not 0 <= pos <= len(self.rows):
            raise PageFormatError(
                f"insert position {pos} out of range on page {self.page_id}"
            )
        self.rows[pos:pos] = rows
        self._used += cost
        return cost - SLOT_OVERHEAD * len(rows)

    def extend_rows(self, rows: list[bytes]) -> int:
        return self.insert_rows(len(self.rows), rows)

    def delete_row(self, pos: int) -> bytes:
        if not 0 <= pos < len(self.rows):
            raise PageFormatError(
                f"delete position {pos} out of range on page {self.page_id}"
            )
        row = self.rows.pop(pos)
        self._used -= SLOT_OVERHEAD + len(row)
        return row

    def delete_rows(self, lo: int, hi: int) -> list[bytes]:
        """Delete slots ``lo:hi`` and return them (rebuild's delete phase)."""
        if not 0 <= lo <= hi <= len(self.rows):
            raise PageFormatError(
                f"delete range [{lo}, {hi}) out of range on page {self.page_id}"
            )
        removed = self.rows[lo:hi]
        del self.rows[lo:hi]
        self._used -= sum(map(len, removed)) + SLOT_OVERHEAD * len(removed)
        return removed

    def replace_row(self, pos: int, data: bytes) -> bytes:
        """Replace slot ``pos``; used by UPDATE propagation entries."""
        old = self.rows[pos]
        grow = len(data) - len(old)
        if grow > self.free_bytes:
            raise PageFullError(
                f"replacing row {pos} grows page {self.page_id} past capacity"
            )
        self.rows[pos] = data
        self._used += grow
        return old

    # ------------------------------------------------------------ persistence

    def to_bytes(self) -> bytes:
        """Serialize to exactly ``page_size`` bytes."""
        used = self.used_bytes
        if used > self.page_size:
            raise PageFormatError(
                f"page {self.page_id} overflows: {used} bytes"
            )
        rows = self.rows
        header = _HEADER.pack(
            _HEADER_MAGIC,
            self.page_id,
            self.index_id,
            int(self.page_type),
            self.level,
            self._flags,
            0,  # pad
            len(rows),
            self.side_page,
            len(self._side_key),
            self.prev_page,
            self.next_page,
            self.page_lsn,
            len(self._blocked_lo),
            len(self._blocked_hi),
        )
        head = header + self._side_key + self._blocked_lo + self._blocked_hi
        nrows = len(rows)
        size = len(rows[1]) if nrows > 1 else -1
        if (
            size >= 0
            and len(rows[-1]) == size  # rejects most mixed pages for free
            and [*map(len, rows)].count(size)
            == nrows - (len(rows[0]) != size)
        ):
            # Every row after the first has one length (a nonleaf's first
            # entry carries no key): its prefix joins them.
            first, prefix = _prefixes(rows[:2])
            body = b"".join((
                head, first, rows[0], prefix, prefix.join(rows[1:]),
            ))
        else:
            # Interleave [head, len0, row0, len1, row1, ...] by strided
            # slice assignment: no per-row call, one join.
            parts = [head] * (2 * nrows + 1)
            parts[1::2] = _prefixes(rows)
            parts[2::2] = rows
            body = b"".join(parts)
        return body.ljust(self.page_size, b"\x00")

    @classmethod
    def from_bytes(cls, data: bytes, page_size: int = PAGE_SIZE_DEFAULT) -> "Page":
        """Parse a page image produced by :meth:`to_bytes`.

        Every length field is bounds-checked against the image, so a
        corrupted image ends in :class:`PageFormatError` whichever field
        was hit, never in a ``struct.error`` or in rows silently sliced
        from the wrong offsets.
        """
        if len(data) != page_size:
            raise PageFormatError(
                f"expected {page_size}-byte image, got {len(data)}"
            )
        if type(data) is not bytes:
            data = bytes(data)  # rows must be immutable slices
        if page_size < HEADER_SIZE:
            raise PageFormatError(f"{page_size}-byte image has no header")
        (
            magic,
            page_id,
            index_id,
            page_type,
            level,
            flags,
            _pad,
            nrows,
            side_page,
            side_key_len,
            prev_page,
            next_page,
            page_lsn,
            blocked_lo_len,
            blocked_hi_len,
        ) = _HEADER.unpack_from(data)
        if magic != _HEADER_MAGIC:
            raise PageFormatError(f"bad page magic 0x{magic:04x}")
        page = cls(page_id, page_size)
        page.index_id = index_id
        try:
            page.page_type = _PAGE_TYPES[page_type]
        except IndexError:
            raise PageFormatError(
                f"page {page_id}: bad page type {page_type}"
            ) from None
        if flags & ~_ALL_FLAGS:
            raise PageFormatError(f"page {page_id}: bad flags 0x{flags:02x}")
        page.level = level
        page._flags = flags
        page.prev_page = prev_page
        page.next_page = next_page
        page.page_lsn = page_lsn
        page.side_page = side_page
        lo_at = HEADER_SIZE + side_key_len
        hi_at = lo_at + blocked_lo_len
        off = hi_at + blocked_hi_len
        page._side_key = data[HEADER_SIZE:lo_at]
        page._blocked_lo = data[lo_at:hi_at]
        page._blocked_hi = data[hi_at:off]
        rows = page.rows
        try:
            if nrows > 1:
                # Row 0 by hand; if every later prefix reads the length L
                # of the next one, the rest is one C call.  The k-th later
                # prefix sits at ``off + k * (L + 2)`` only if the k rows
                # before it have length L, so comparing the strided bytes
                # checks all of them.
                start = off + SLOT_OVERHEAD
                off = start + (data[off] | data[off + 1] << 8)
                rows.append(data[start:off])
                lo, hi = data[off], data[off + 1]
                count = nrows - 1
                stride = SLOT_OVERHEAD + (lo | hi << 8)
                end = off + count * stride
                if (
                    end <= page_size
                    and data[off:end:stride] == bytes((lo,)) * count
                    and data[off + 1:end:stride] == bytes((hi,)) * count
                ):
                    rows += _row_cutter(stride - SLOT_OVERHEAD, count)(
                        data, off
                    )
                    off = end
                    nrows = 0
                else:
                    nrows = count
            append = rows.append
            for _ in range(nrows):
                start = off + SLOT_OVERHEAD
                off = start + (data[off] | data[off + 1] << 8)
                append(data[start:off])
        except IndexError:  # a length prefix past the end of the image
            off = page_size + 1
        if off > page_size:
            raise PageFormatError(
                f"page {page_id}: lengths overflow the {page_size}-byte image"
            )
        # ``to_bytes`` pads with zeros: anything else past the last row
        # means a length field was corrupted to something shorter.
        if data.count(0, off) != page_size - off:
            raise PageFormatError(
                f"page {page_id}: {page_size - off} bytes after the last "
                "row are not padding"
            )
        page._used = off
        return page

    def copy(self) -> "Page":
        """Deep copy (used by the buffer pool to snapshot for flushing)."""
        return Page.from_bytes(self.to_bytes(), self.page_size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Page {self.page_id} {self.page_type.name} L{self.level} "
            f"rows={self.nrows} flags={self.flags!r} "
            f"prev={self.prev_page} next={self.next_page}>"
        )


def partition_rows(rows: list[bytes], budget: int) -> list[list[bytes]]:
    """Greedy byte partition of ``rows`` into batches of at most ``budget``
    row bytes (slots included); a row larger than ``budget`` gets a batch
    of its own."""
    batches: list[list[bytes]] = []
    batch: list[bytes] = []
    used = 0
    for row in rows:
        cost = SLOT_OVERHEAD + len(row)
        if batch and used + cost > budget:
            batches.append(batch)
            batch, used = [], 0
        batch.append(row)
        used += cost
    if batch:
        batches.append(batch)
    return batches

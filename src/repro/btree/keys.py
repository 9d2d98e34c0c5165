"""Key encoding, ordering, and suffix compression.

The paper rebuilds a *secondary* index: each leaf row is a key value plus
the ROWID of the data record (§1).  We encode a leaf row as the
concatenation ``key || rowid`` with

* a **fixed key length per index** (the paper's experiments use 4-byte and
  40-byte keys), which makes plain lexicographic byte comparison
  order-preserving for the concatenation, and
* a 6-byte big-endian ROWID (page number + slot, the classic layout),
  big-endian so that numeric ROWID order equals byte order.

The comparable unit ``key || rowid`` is what traversal searches with;
appending the ROWID makes every leaf row unique even under duplicate key
values, exactly how commercial secondary indexes break ties.

Nonleaf separators are **suffix compressed** (§6.4: ASE's index manager
"uses suffix compression which reduces the nonleaf row size"): the
separator between a left page ending in ``left_max`` and a right page
starting at ``right_min`` is the shortest byte string ``s`` with
``left_max < s <= right_min`` — the first ``i+1`` bytes of ``right_min``
where ``i`` is the length of the common prefix.  Routing stays correct for
any separator in that half-open interval.
"""

from __future__ import annotations

from repro.errors import BTreeError

ROWID_LEN = 6
ROWID_MAX = (1 << (8 * ROWID_LEN)) - 1


def encode_rowid(rowid: int) -> bytes:
    """6-byte big-endian ROWID."""
    if not 0 <= rowid <= ROWID_MAX:
        raise BTreeError(f"rowid {rowid} out of 48-bit range")
    return rowid.to_bytes(ROWID_LEN, "big")


def decode_rowid(data: bytes) -> int:
    if len(data) != ROWID_LEN:
        raise BTreeError(f"rowid must be {ROWID_LEN} bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def check_key(key: bytes, key_len: int) -> None:
    """Raise unless ``key`` is exactly the index's ``key_len`` bytes."""
    if len(key) != key_len:
        raise BTreeError(
            f"key must be exactly {key_len} bytes for this index, "
            f"got {len(key)}"
        )


def leaf_unit(key: bytes, rowid: int, key_len: int) -> bytes:
    """The comparable leaf row ``key || rowid``; validates the key length.

    Every request builds one, so the two checks run inline and call
    :func:`check_key` / :func:`encode_rowid` only to raise."""
    if len(key) != key_len:
        check_key(key, key_len)
    if not 0 <= rowid <= ROWID_MAX:
        encode_rowid(rowid)
    return key + rowid.to_bytes(ROWID_LEN, "big")


def split_unit(unit: bytes) -> tuple[bytes, int]:
    """Inverse of :func:`leaf_unit` (payload-free rows only)."""
    if len(unit) < ROWID_LEN:
        raise BTreeError(f"leaf unit of {len(unit)} bytes is too short")
    return unit[:-ROWID_LEN], decode_rowid(unit[-ROWID_LEN:])


def decode_leaf_row(row: bytes, key_len: int) -> tuple[bytes, int, bytes]:
    """Decode a leaf row into (key, rowid, payload).

    A *secondary* index stores bare ``key || rowid`` rows (empty payload);
    a *primary* index — the paper's footnote 2, where the primary key
    doubles as the ROWID — appends the data record after the unit.
    """
    unit_len = key_len + ROWID_LEN
    if len(row) < unit_len:
        raise BTreeError(
            f"leaf row of {len(row)} bytes is shorter than the "
            f"{unit_len}-byte unit"
        )
    return (
        row[:key_len],
        decode_rowid(row[key_len:unit_len]),
        row[unit_len:],
    )


def search_floor(key: bytes) -> bytes:
    """Smallest unit with key value ``key`` (range-scan lower bound)."""
    return key + b"\x00" * ROWID_LEN


def search_ceiling(key: bytes) -> bytes:
    """Largest unit with key value ``key`` (range-scan upper bound)."""
    return key + b"\xff" * ROWID_LEN


def separator(left_max: bytes, right_min: bytes) -> bytes:
    """Shortest ``s`` with ``left_max < s <= right_min`` (suffix compression).

    ``s`` is the prefix of ``right_min`` one byte past the common prefix
    with ``left_max``.  Requires ``left_max < right_min`` strictly, which
    leaf-unit uniqueness guarantees.
    """
    if not left_max < right_min:
        raise BTreeError(
            f"separator requires left < right, got {left_max!r} >= "
            f"{right_min!r}"
        )
    common = 0
    limit = min(len(left_max), len(right_min))
    while common < limit and left_max[common] == right_min[common]:
        common += 1
    return right_min[: common + 1]

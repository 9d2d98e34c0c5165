"""Typed views over index pages: leaf rows and nonleaf index entries.

A **leaf row** is the comparable unit ``key || rowid`` from
:mod:`repro.btree.keys`; rows on a leaf are kept in strictly increasing
byte order, so plain binary search positions both lookups and inserts.

A **nonleaf index entry** is ``separator || child_pageid`` with the child
id in the last 4 bytes.  A page with ``n`` children holds ``n`` entries
``C0, [K1, C1], ..., [Kn-1, Cn-1]`` — the paper's §5 representation where
*the first entry carries no key value* (we store an empty separator, which
sorts before everything).  Child ``Ci`` (i >= 1) covers units ``>= Ki``;
``C0`` covers units below ``K1``.

Binary searches here count key comparisons into the engine's cost-model
counters, which feed the Cratio benchmark.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.errors import BTreeError, TreeStructureError
from repro.stats.counters import Counters
from repro.storage.page import Page, PageType

CHILD_LEN = 4
_CHILD_MAX = b"\xff" * CHILD_LEN  # compares above any real child page id


class IndexEntry(NamedTuple):
    """A decoded nonleaf entry: separator key and child page id."""

    key: bytes
    child: int


def encode_entry(key: bytes, child: int) -> bytes:
    return key + struct.pack("<I", child)


def decode_entry(row: bytes) -> IndexEntry:
    if len(row) < CHILD_LEN:
        raise BTreeError(f"nonleaf entry of {len(row)} bytes is too short")
    (child,) = struct.unpack_from("<I", row, len(row) - CHILD_LEN)
    return IndexEntry(row[:-CHILD_LEN], child)


def entry_key(row: bytes) -> bytes:
    return row[:-CHILD_LEN]


def entry_child(row: bytes) -> int:
    (child,) = struct.unpack_from("<I", row, len(row) - CHILD_LEN)
    return child


def strip_entry_key(row: bytes) -> bytes:
    """The same entry with an empty separator (new-first-child rule, §5)."""
    return row[-CHILD_LEN:]


# ------------------------------------------------------------------ leaf ops


def leaf_search(page: Page, unit: bytes, counters: Counters) -> tuple[int, bool]:
    """Binary search for ``unit``; returns (position, found).

    Rows are compared by their leading ``len(unit)`` bytes: a secondary
    index stores bare units, a primary index (paper footnote 2) appends a
    data payload after the unit, and the unit prefix alone is unique.
    ``position`` is where the unit is, or where it would be inserted.
    """
    rows = page.rows
    lo, hi = 0, len(rows)
    probes = 0
    while lo < hi:
        mid = (lo + hi) >> 1
        probes += 1
        # Comparing the whole row equals comparing its ``len(unit)``-byte
        # prefix: rows at least as long as the unit agree with their
        # prefix on ``< unit`` (a longer row with an equal prefix sorts
        # >= unit either way), so no per-probe slice is allocated.
        if rows[mid] < unit:
            lo = mid + 1
        else:
            hi = mid
    if probes:
        counters.add("key_comparisons", probes)
    found = lo < len(rows) and rows[lo].startswith(unit)
    return lo, found


def leaf_low_unit(page: Page) -> bytes:
    if page.is_empty:
        raise TreeStructureError(f"leaf {page.page_id} is empty")
    return page.rows[0]


# --------------------------------------------------------------- nonleaf ops


def child_search(page: Page, unit: bytes, counters: Counters) -> tuple[int, int]:
    """Route a search unit: returns (entry position, child page id).

    Picks the largest ``i`` with ``Ki <= unit`` (``K0`` is implicitly
    minus-infinity), i.e. the child whose subtree covers ``unit``.
    """
    if page.page_type is not PageType.NONLEAF:
        raise TreeStructureError(
            f"page {page.page_id} is not a nonleaf page"
        )
    rows = page.rows
    if not rows:
        raise TreeStructureError(f"nonleaf {page.page_id} has no entries")
    lo, hi = 1, len(rows)  # entry 0 always qualifies (no key)
    probes = 0
    # ``sep <= unit`` equals ``row <= unit + 0xff*CHILD_LEN`` whenever the
    # separator has exactly ``len(unit)`` bytes (the child-id suffix is
    # always < 0xffffffff), so equal-length rows compare without slicing.
    unit_hi = unit + _CHILD_MAX
    full_len = len(unit) + CHILD_LEN
    while lo < hi:
        mid = (lo + hi) >> 1
        probes += 1
        row = rows[mid]
        if (
            row <= unit_hi
            if len(row) == full_len
            else row[: len(row) - CHILD_LEN] <= unit
        ):
            lo = mid + 1
        else:
            hi = mid
    if probes:
        counters.add("key_comparisons", probes)
    pos = lo - 1
    return pos, entry_child(rows[pos])


def entry_insert_pos(page: Page, key: bytes, counters: Counters) -> int:
    """Position at which an entry with separator ``key`` belongs."""
    rows = page.rows
    lo, hi = 1, len(rows)  # never before the keyless first entry
    if not rows:
        return 0
    probes = 0
    key_hi = key + _CHILD_MAX  # same no-slice trick as child_search
    full_len = len(key) + CHILD_LEN
    while lo < hi:
        mid = (lo + hi) >> 1
        probes += 1
        row = rows[mid]
        if (
            row <= key_hi
            if len(row) == full_len
            else row[: len(row) - CHILD_LEN] <= key
        ):
            lo = mid + 1
        else:
            hi = mid
    if probes:
        counters.add("key_comparisons", probes)
    return lo

def find_child_entry(page: Page, child: int) -> int:
    """Position of the entry pointing at ``child``; raises if absent."""
    for pos, row in enumerate(page.rows):
        if entry_child(row) == child:
            return pos
    raise TreeStructureError(
        f"page {page.page_id} has no entry for child {child}"
    )


def child_ids(page: Page) -> list[int]:
    return [entry_child(row) for row in page.rows]


def entries(page: Page) -> list[IndexEntry]:
    return [decode_entry(row) for row in page.rows]

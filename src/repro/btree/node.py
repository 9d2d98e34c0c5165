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

The binary searches run in C (:mod:`bisect`), which does not report its
probes, so each search adds its *depth* to the ``key_comparisons``
cost-model counter: ``n.bit_length()`` for a search over ``n`` entries,
the most probes a binary search over them can take.  The counter feeds
the Cratio benchmark.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import NamedTuple

from repro.errors import BTreeError, TreeStructureError
from repro.stats.counters import Counters
from repro.storage.page import Page, PageType

CHILD_LEN = 4
entry_key = itemgetter(slice(None, -CHILD_LEN))  # entry -> its separator
_CHILD = struct.Struct("<I")
_NONLEAF = PageType.NONLEAF  # bound once, as latch.LATCH_X is


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


def entry_child(row: bytes) -> int:
    (child,) = _CHILD.unpack_from(row, len(row) - CHILD_LEN)
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
    # Comparing the whole row equals comparing its ``len(unit)``-byte
    # prefix: rows at least as long as the unit agree with their prefix on
    # ``< unit`` (a longer row with an equal prefix sorts >= unit either
    # way), so the search needs no per-row slice.
    pos = bisect_left(rows, unit)
    counters.add("key_comparisons", len(rows).bit_length())
    return pos, pos < len(rows) and rows[pos].startswith(unit)


# --------------------------------------------------------------- nonleaf ops


def child_search(page: Page, unit: bytes, counters: Counters) -> tuple[int, int]:
    """Route a search unit: returns (entry position, child page id).

    Picks the largest ``i`` with ``Ki <= unit`` (``K0`` is implicitly
    minus-infinity), i.e. the child whose subtree covers ``unit``.
    """
    if page.page_type is not _NONLEAF:
        raise TreeStructureError(
            f"page {page.page_id} is not a nonleaf page"
        )
    rows = page.rows
    if not rows:
        raise TreeStructureError(f"nonleaf {page.page_id} has no entries")
    counters.add("key_comparisons", (len(rows) - 1).bit_length())
    pos = bisect_right(rows, unit, 1, key=entry_key) - 1  # entry 0 has no key
    return pos, entry_child(rows[pos])


def entry_insert_pos(page: Page, key: bytes, counters: Counters) -> int:
    """Position at which an entry with separator ``key`` belongs: after
    every entry whose separator is ``<= key``, never before the keyless
    first entry."""
    rows = page.rows
    if not rows:
        return 0
    counters.add("key_comparisons", (len(rows) - 1).bit_length())
    return bisect_right(rows, key, 1, key=entry_key)


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

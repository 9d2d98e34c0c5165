"""Partition planner for the parallel online rebuild.

The rebuild's unit of work — one multipage top action — is already
independently latched, locked, and logged (§4.1), so nothing prevents
several top actions from running concurrently *as long as they operate on
disjoint key ranges*.  This module supplies the disjointness: the leaf
chain is split into up to ``parallel_workers`` contiguous segments, and
each worker's copy loop is bounded by an exclusive ``stop_before`` key.

**Planning is from level 1, not from the leaves.**  A nonleaf separator
``Ki`` partitions units exactly (``Ki <= unit`` routes right of it), so
cutting on level-1 separators gives correct disjoint segments after
reading only the nonleaf pages — a handful of reads even for a large
index.  This matters for the whole point of the feature: a planner that
walked the leaf chain would serially pre-pay exactly the cold-read I/O
the parallel copy phase exists to overlap (measured: ``rebuild_io`` ran
40 % slower and made 55 % more I/O calls per page behind a leaf walk).
Each level-1 entry is one leaf, so cuts balance leaf counts; each page's
first entry is keyless and simply offers no cut candidate.

A level-1 cut says nothing about how the packing stream aligns with it,
so the first worker of each non-leftmost segment leaves its PP's content
untouched (``fill_pp=False``): the cost is up to ``segments - 1`` seam
pages packed short of the fillfactor, never a wrong result.

The descent is latch-by-latch against the live tree (no locks, no bits).
When a concurrent split or shrink restructures the levels under it — or
the index is a single root leaf — the plan is **one unbounded segment**:
the run is then simply what a one-worker rebuild is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.btree import node
from repro.btree.tree import BTree
from repro.concurrency.latch import LatchMode
from repro.context import EngineContext
from repro.errors import StorageError
from repro.storage.page import PageType

if TYPE_CHECKING:
    from repro.wal.recovery import RebuildCheckpoint


@dataclass(frozen=True)
class ResumeSegment:
    """One segment's launch spec — a slice of the leaf chain plus where to
    (re)start in it.

    Every run is a list of these: one unbounded spec for a one-worker,
    restricted or sliced run, the level-1 plan for a fresh parallel run
    (probe = the segment start), the recorded tiling for a resumed one
    (probe = the partition's highest durable unit, successor-probed).
    """

    ordinal: int
    """Partition ordinal; also the worker's heartbeat key and the
    ``partition`` field of its progress records."""
    start_unit: bytes | None = None
    """Where the segment's coverage starts (a level-1 separator), which
    its progress records carry verbatim across resumes; None = the
    beginning of the index."""
    stop_before: bytes | None = None
    """Exclusive upper bound: the copy loop never extends onto a leaf whose
    first unit is >= this; None = run to the end of the chain."""
    probe: bytes | None = None
    """First position-discovery probe (None = leftmost leaf)."""
    done: bool = False
    """The segment already finished — skip it, pre-complete its token."""


def segments_from_checkpoint(
    checkpoint: "RebuildCheckpoint",
) -> list[ResumeSegment] | None:
    """Reconstruct the recorded partition tiling from durable progress.

    Returns None — caller replans from scratch — when the tiling cannot
    be trusted to cover the whole key space: a partition ordinal with no
    durable record (its range would silently be skipped), or a leftmost
    partition that does not start at the beginning.
    """
    parts = checkpoint.partitions
    if not parts:
        return None
    count = max(parts) + 1
    if any(i not in parts for i in range(count)):
        return None
    if parts[0].start_unit != b"":
        return None
    specs: list[ResumeSegment] = []
    for i in range(count):
        part = parts[i]
        start = part.start_unit if part.start_unit else None
        stop = parts[i + 1].start_unit if i + 1 < count else None
        specs.append(
            ResumeSegment(
                ordinal=i,
                start_unit=start,
                stop_before=stop,
                probe=part.last_unit + b"\x00" if part.last_unit else start,
                done=part.done,
            )
        )
    return specs


def plan_partitions(
    ctx: EngineContext, tree: BTree, workers: int
) -> list[ResumeSegment]:
    """Cut the leaf chain into up to ``workers`` disjoint segments along
    level-1 separators: a few nonleaf page reads, no leaf I/O.  The leaf
    count it sees becomes the progress reporter's total.

    The plan is one unbounded segment when the descent hits anything
    unexpected — a root that is a leaf, a concurrent split/shrink
    restructuring the levels mid-walk.
    """
    # (leaves before the boundary, separator unit); built left to right.
    boundaries: list[tuple[int, bytes]] = []
    total = 0

    def visit(page_id: int) -> None:
        nonlocal total
        # Large I/O on a cold pool: the descent's handful of nonleaf
        # reads ride the same aligned-run batching as the copy phase
        # instead of issuing scattered single-page device calls.
        page = ctx.get_latched(
            page_id, LatchMode.S, large_io=True, scan=True
        )
        try:
            if page.page_type is not PageType.NONLEAF:
                raise LookupError(f"page {page_id} is not a nonleaf page")
            level = page.level
            rows = list(page.rows)
        finally:
            ctx.release_page(page_id)
        if level == 1:
            for row in rows:
                sep = node.entry_key(row)
                # The keyless first entry of each page offers no cut.
                if total > 0 and sep:
                    boundaries.append((total, bytes(sep)))
                total += 1
        else:
            for row in rows:
                visit(node.entry_child(row))

    try:
        visit(tree.root_page_id)
    except (LookupError, StorageError):
        # Restructured mid-walk, or unreadable (the copy phase will say
        # so).  A simulated power failure is neither: it propagates.
        return [ResumeSegment(ordinal=0)]
    ctx.counters.add("partition_planner_leaves", total)
    ctx.progress.set_units_total(total)
    seams = [sep for _cum, sep in _choose_cuts(boundaries, total, workers)]
    return [
        ResumeSegment(
            ordinal=i, start_unit=start, stop_before=stop, probe=start
        )
        for i, (start, stop) in enumerate(zip([None] + seams, seams + [None]))
    ]


def repair_key_bounds(
    key_len: int, start_sep: bytes, end_sep: bytes
) -> tuple[bytes | None, bytes | None]:
    """Convert a separator interval ``[start_sep, end_sep)`` into the
    ``(start_key, end_key)`` arguments of a range-scoped rebuild.

    The integrity scrubber quarantines a damaged child by the separator
    bounds its latched parent snapshot assigns to it; this translates
    those *unit-space prefixes* (separators are suffix-compressed) into
    the inclusive full-length key bounds ``OnlineRebuild.run`` /
    ``RebuildSupervisor.run`` accept, such that the rebuilt leaves cover
    every unit in the quarantined interval:

    * ``start_key`` — ``start_sep`` zero-padded: its search floor is the
      smallest unit at/above the separator, so the start probe lands on
      the damaged leaf itself.  An empty separator (first child) means
      "from the beginning" → None.
    * ``end_key`` — ``end_sep`` zero-padded minus one: its search ceiling
      is the largest unit strictly below the separator.  An empty
      separator (last child, parent bound unknown) means "to the end" →
      None.
    """
    start_key: bytes | None = None
    if start_sep:
        start_key = start_sep[:key_len].ljust(key_len, b"\x00")
    end_key: bytes | None = None
    if end_sep:
        padded = end_sep[:key_len].ljust(key_len, b"\x00")
        as_int = int.from_bytes(padded, "big")
        if as_int > 0:
            end_key = (as_int - 1).to_bytes(key_len, "big")
        # An all-zero end separator bounds an empty interval; leave the
        # rebuild unbounded rather than underflow (harmlessly wider).
    return start_key, end_key


# ------------------------------------------------------------- cut selection


def _choose_cuts(
    boundaries: list[tuple[int, bytes]], total: int, workers: int
) -> list[tuple[int, bytes]]:
    """Pick up to ``workers - 1`` strictly increasing boundaries: for each
    ideal (equal-weight) cut position the nearest boundary not yet
    passed."""
    if workers <= 1 or total <= 0:
        return []
    per = total / workers
    cuts: list[tuple[int, bytes]] = []
    min_cum = 0
    for w in range(1, workers):
        ideal = per * w
        later = [b for b in boundaries if b[0] > min_cum]
        if not later:
            break
        choice = min(later, key=lambda b: abs(b[0] - ideal))
        cuts.append(choice)
        min_cum = choice[0]
    return cuts

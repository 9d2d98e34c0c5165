"""Partition planner for the parallel online rebuild.

The rebuild's unit of work — one multipage top action — is already
independently latched, locked, and logged (§4.1), so nothing prevents
several top actions from running concurrently *as long as they operate on
disjoint key ranges*.  This module supplies the disjointness: the leaf
chain is split into up to ``parallel_workers`` contiguous segments, and
each worker's copy loop is bounded by an exclusive ``stop_before`` key.

**Default planning is from level 1, not from the leaves.**  A nonleaf
separator ``Ki`` partitions units exactly (``Ki <= unit`` routes right of
it), so cutting on level-1 separators gives correct disjoint segments
after reading only the nonleaf pages — a handful of reads even for a
large index.  This matters for the whole point of the feature: a planner
that walked the leaf chain would serially pre-pay exactly the cold-read
I/O the parallel copy phase exists to overlap.  Each level-1 entry is one
leaf, so cuts balance leaf counts; each page's first entry is keyless and
simply offers no cut candidate.

**Exact packing** (``partition_exact_packing=True``) walks the leaf chain
instead and replays the serial rebuild's packing stream (pure arithmetic
on row sizes) to find *clean* cuts — seams where that stream would open a
fresh target page anyway — so the parallel leaf level is byte-identical
to the serial one's, possibly at fewer segments.  Without it a dirty cut
is still *correct* — the first worker of each segment leaves its PP's
content untouched (``fill_pp=False``), so the only cost is up to
``segments - 1`` seam pages packed short of the fillfactor.

Both walks are latch-by-latch against the live tree (no locks, no bits)
and best-effort under concurrent traffic: a mutated chain ends the walk
early and the driver simply launches fewer segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.btree import node
from repro.btree.tree import BTree
from repro.concurrency.latch import LatchMode
from repro.context import EngineContext
from repro.core.config import RebuildConfig
from repro.storage.page import HEADER_SIZE, NO_PAGE, SLOT_OVERHEAD, PageType

if TYPE_CHECKING:
    from repro.wal.recovery import RebuildCheckpoint

_CLEAN_WINDOW_FRACTION = 0.25
"""A clean boundary within this fraction of a segment's ideal weight wins
over a closer dirty boundary (exact-packing walk only)."""


@dataclass(frozen=True)
class PartitionSegment:
    """One worker's slice of the leaf chain."""

    start_unit: bytes | None
    """Probe for the worker's first position discovery (a level-1
    separator, or the first unit of the segment's first leaf under exact
    packing); None = start from the leftmost leaf."""
    stop_before: bytes | None
    """Exclusive upper bound: the copy loop never extends onto a leaf whose
    first unit is >= this; None = run to the end of the chain."""
    clean_start: bool
    """The seam at the segment's *start* is packing-exact (trivially true
    for the leftmost segment; always False for level-1 cuts, whose
    alignment is unknown)."""


@dataclass(frozen=True)
class ResumeSegment:
    """One worker's launch spec — a segment plus where to restart in it.

    Produced for fresh runs (probe = the segment start) and for resumed
    runs (probe = the partition's highest durable unit, successor-probed),
    so the parallel driver launches both through one code path.
    """

    ordinal: int
    """Partition ordinal; also the worker's heartbeat key and the
    ``partition`` field of its progress records."""
    segment: PartitionSegment
    probe: bytes | None
    """First position-discovery probe (None = leftmost leaf)."""
    progress_start: bytes
    """Coverage start recorded in this worker's progress records (b"" =
    the beginning of the index); inherited verbatim across resumes."""
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
        segment = PartitionSegment(
            # A resumed seam is never packing-exact territory: the worker
            # either restarts past its own progress (its PP is a page it
            # already rebuilt) or re-runs a dirty level-1 cut.
            start_unit=start, stop_before=stop, clean_start=(i == 0),
        )
        probe = part.last_unit + b"\x00" if part.last_unit else start
        specs.append(
            ResumeSegment(
                ordinal=i,
                segment=segment,
                probe=probe,
                progress_start=part.start_unit,
                done=part.done,
            )
        )
    return specs


@dataclass
class PartitionPlan:
    """What one planner walk produced."""

    segments: list[PartitionSegment] = field(default_factory=list)
    leaves_walked: int = 0
    """Leaves accounted: level-1 entries seen (default) or leaves latched
    (exact packing)."""
    total_units: int = 0
    """Units replayed by the exact-packing walk; 0 for level-1 plans."""
    clean_cuts: int = 0
    """Cuts placed on packing-exact boundaries (out of
    ``len(segments) - 1``)."""


def plan_partitions(
    ctx: EngineContext,
    tree: BTree,
    config: RebuildConfig,
    first_leaf: int,
    workers: int,
    readahead=None,
) -> PartitionPlan:
    """Cut the leaf chain into up to ``workers`` disjoint segments.

    Level-1 separator planning by default; the exact-packing leaf walk
    when configured, and as the fallback when the nonleaf descent hits a
    concurrent restructure.  ``readahead(next_leaf, unit)``, when given,
    publishes the leaf walk's position to the I/O scheduler every
    ``ntasize`` leaves, so the walk reads behind the rebuild's read-ahead
    window instead of paying cold-read latency leaf by leaf.
    """
    if not config.partition_exact_packing:
        plan = _plan_from_level1(ctx, tree, workers)
        if plan is not None:
            return plan
    return _plan_from_leaves(ctx, config, first_leaf, workers, readahead)


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


# ------------------------------------------------------------ level-1 plan


def _plan_from_level1(
    ctx: EngineContext, tree: BTree, workers: int
) -> PartitionPlan | None:
    """Plan from nonleaf separators: a few page reads, no leaf I/O.

    Returns None when the descent hits anything unexpected (a concurrent
    split/shrink restructuring the levels mid-walk) — the caller falls
    back to the leaf walk, which tolerates mutation by construction.
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
                raise _PlanFallback(page_id)
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
    except _PlanFallback:
        return None
    except Exception:  # noqa: BLE001 - planning is best-effort
        return None
    if total <= 0:
        return None
    ctx.counters.add("partition_planner_leaves", total)
    plan = PartitionPlan(leaves_walked=total)
    cuts = _choose_cuts(
        [(cum, sep, False) for cum, sep in boundaries],
        total,
        workers,
        exact_packing=False,
    )
    _finish(plan, cuts)
    return plan


class _PlanFallback(Exception):
    """A nonleaf descent found a non-nonleaf page: replan from the leaves."""


# --------------------------------------------------------- exact-packing plan


def _plan_from_leaves(
    ctx: EngineContext,
    config: RebuildConfig,
    first_leaf: int,
    workers: int,
    readahead=None,
) -> PartitionPlan:
    """Walk the chain from ``first_leaf``, replaying the serial packing
    stream to tag clean boundaries; cut preferring them."""
    budget = max(1, int(config.fillfactor * (ctx.page_size - HEADER_SIZE)))
    # (cumulative units before the boundary, first unit after it, clean?)
    boundaries: list[tuple[int, bytes, bool]] = []
    free = 0  # packing-stream head room; 0 opens the first target page
    cum_units = 0
    leaves = 0
    pid = first_leaf
    while pid != NO_PAGE:
        if not ctx.page_manager.is_allocated(pid):
            break  # chain mutated mid-walk; plan what we have
        try:
            page = ctx.get_latched(
                pid, LatchMode.S, large_io=True, scan=True
            )
        except Exception:
            break
        try:
            costs = [SLOT_OVERHEAD + len(r) for r in page.rows]
            first = page.rows[0] if page.nrows else None
            last = page.rows[-1] if page.nrows else None
            next_id = page.next_page
        finally:
            ctx.release_page(pid)
        if leaves > 0 and first is not None:
            boundaries.append(
                (cum_units, bytes(first), SLOT_OVERHEAD + len(first) > free)
            )
        for cost in costs:
            if cost > free:
                free = budget
            free -= cost
        cum_units += len(costs)
        leaves += 1
        if readahead is not None and leaves % config.ntasize == 0:
            # The successor's range starts right behind this leaf's last
            # unit (an empty leaf has no unit to offer: chain walk).
            readahead(next_id, last + b"\x00" if last is not None else None)
        pid = next_id
    ctx.counters.add("partition_planner_leaves", leaves)

    plan = PartitionPlan(leaves_walked=leaves, total_units=cum_units)
    cuts = _choose_cuts(
        boundaries, cum_units, workers, config.partition_exact_packing
    )
    plan.clean_cuts = sum(1 for _cum, _unit, clean in cuts if clean)
    _finish(plan, cuts)
    return plan


# ------------------------------------------------------------- cut selection


def _finish(
    plan: PartitionPlan, cuts: list[tuple[int, bytes, bool]]
) -> None:
    """Turn chosen cuts into the segment list."""
    starts: list[tuple[bytes | None, bool]] = [(None, True)] + [
        (unit, clean) for _cum, unit, clean in cuts
    ]
    stops: list[bytes | None] = [unit for _cum, unit, _clean in cuts] + [None]
    plan.segments = [
        PartitionSegment(start_unit=start, stop_before=stop, clean_start=clean)
        for (start, clean), stop in zip(starts, stops)
    ]


def _choose_cuts(
    boundaries: list[tuple[int, bytes, bool]],
    total_units: int,
    workers: int,
    exact_packing: bool,
) -> list[tuple[int, bytes, bool]]:
    """Pick up to ``workers - 1`` strictly increasing boundaries.

    For each ideal (equal-weight) cut position: the nearest *clean*
    boundary wins if it lies within the clean window; otherwise the
    nearest boundary of any kind — unless ``exact_packing``, which admits
    only clean boundaries (possibly yielding fewer segments).
    """
    if workers <= 1 or not boundaries or total_units <= 0:
        return []
    per = total_units / workers
    window = per * _CLEAN_WINDOW_FRACTION
    cuts: list[tuple[int, bytes, bool]] = []
    min_cum = 0
    for w in range(1, workers):
        ideal = per * w
        best: tuple[float, int, bytes, bool] | None = None
        best_clean: tuple[float, int, bytes, bool] | None = None
        for cum, unit, clean in boundaries:
            if cum <= min_cum:
                continue
            d = abs(cum - ideal)
            if clean and (best_clean is None or d < best_clean[0]):
                best_clean = (d, cum, unit, clean)
            if best is None or d < best[0]:
                best = (d, cum, unit, clean)
        if exact_packing:
            choice = best_clean
        elif best_clean is not None and best_clean[0] <= window:
            choice = best_clean
        else:
            choice = best
        if choice is None:
            continue
        cuts.append((choice[1], choice[2], choice[3]))
        min_cum = choice[1]
    return cuts

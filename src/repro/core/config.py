"""Online rebuild configuration (§3, §6).

``ntasize`` and ``xactsize`` are the paper's two batching knobs: pages per
multipage rebuild top action (ASE chose 32 from the study reproduced in
``benchmarks/bench_table1.py``) and pages per rebuild transaction (the
paper suggests "a few hundred" to amortize the end-of-transaction forced
write of new pages without delaying old-page reuse too long).

``fillfactor`` leaves headroom in new leaf pages for future inserts
(§4.1: ``k`` may exceed ``n`` when a fillfactor below 100% is requested).

The two §6.2 concurrency enhancements are selectable for the ablation
benches:

* ``reorganize_level1`` — §5.5's insert-into-left-sibling packing of
  level-1 pages during propagation (on in the paper's algorithm; off gives
  the naive propagation a separate level-1 pass would have to fix);
* ``split_then_shrink`` — stage SPLIT bits on the old leaves during the
  copy (readers still allowed) and flip them to SHRINK only for the final
  unlink, instead of SHRINK for the whole top action.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RebuildError


@dataclass(frozen=True)
class RebuildConfig:
    """Knobs of the online index rebuild."""

    ntasize: int = 32
    xactsize: int = 256
    fillfactor: float = 1.0
    reorganize_level1: bool = True
    split_then_shrink: bool = False
    nonleaf_range_side_entries: bool = False
    """§6.2 first enhancement: SHRINK-bitted propagation pages publish the
    key range of the entries being deleted, so traversals looking for
    keys outside it pass through (helps when propagation continues above
    level 1)."""
    pipeline_depth: int = 0
    """Asynchronous I/O pipelining (:mod:`repro.storage.io_scheduler`).
    0: forces at transaction boundaries are synchronous and no read-ahead
    runs.  > 0 enables the write-behind forcer and keeps a read-ahead
    window of ``pipeline_depth × ntasize`` leaves requested beyond the
    rebuild's position (capped by what the pool's ring holds)."""
    group_commit_window: float = 0.0
    """Seconds the rebuild sets as the log's group-commit window for its
    duration (0.0 leaves the log untouched: one physical flush per
    commit)."""
    ring_frames: int = 0
    """Frames of the buffer pool's probationary *rebuild ring* the rebuild
    enables for its duration (0 leaves the pool's setting untouched —
    ring disabled by default, i.e. today's plain LRU).  With a ring, the
    rebuild's scan-class reads, prefetches, and new-page allocations
    recycle at most this many frames instead of sweeping the OLTP working
    set out of the protected LRU.  Restored to the engine's setting when
    the rebuild ends."""

    def __post_init__(self) -> None:
        if self.ntasize < 1:
            raise RebuildError(f"ntasize must be >= 1, got {self.ntasize}")
        if self.xactsize < self.ntasize:
            raise RebuildError(
                f"xactsize ({self.xactsize}) must be >= ntasize "
                f"({self.ntasize})"
            )
        if not 0.05 <= self.fillfactor <= 1.0:
            raise RebuildError(
                f"fillfactor must be in [0.05, 1.0], got {self.fillfactor}"
            )
        if self.pipeline_depth < 0:
            raise RebuildError(
                f"pipeline_depth must be >= 0, got {self.pipeline_depth}"
            )
        if self.group_commit_window < 0.0:
            raise RebuildError(
                "group_commit_window must be >= 0, "
                f"got {self.group_commit_window}"
            )
        if self.ring_frames < 0:
            raise RebuildError(
                f"ring_frames must be >= 0, got {self.ring_frames}"
            )

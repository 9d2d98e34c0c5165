"""Online rebuild configuration (§3, §6).

``ntasize`` and ``xactsize`` are the paper's two batching knobs: pages per
multipage rebuild top action (ASE chose 32 from the study reproduced in
``benchmarks/bench_table1.py``) and pages per rebuild transaction (the
paper suggests "a few hundred" to amortize the end-of-transaction forced
write of new pages without delaying old-page reuse too long).

``fillfactor`` leaves headroom in new leaf pages for future inserts
(§4.1: ``k`` may exceed ``n`` when a fillfactor below 100% is requested).

Two choices are left to select for the ablation benches:

* ``reorganize_level1`` — §5.5's insert-into-left-sibling packing of
  level-1 pages during propagation (on in the paper's algorithm; off gives
  the naive propagation a separate level-1 pass would have to fix);
* ``split_then_shrink`` — the one §6.2 enhancement left to select: stage
  SPLIT bits on the old leaves during the copy (readers still allowed) and
  flip them to SHRINK only for the final unlink, instead of SHRINK for the
  whole top action.

§6.2's other enhancement, the key range a SHRINK-bitted propagation page
publishes so that traversals outside it pass, is not a choice: a page
publishes it whenever it fits (``core/propagation.py``).

How the I/O is done is not configured: a run decides for itself, from the
device service time the pool observes, whether to hide the device behind
read-ahead and write-behind threads (``rebuild.PIPELINE_MIN_SERVICE``).
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

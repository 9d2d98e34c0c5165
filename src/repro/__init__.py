"""Reproduction of "Online Index Rebuild" (Ponnekanti & Kodavalla, SIGMOD 2000).

Public API:

* :class:`Engine` — a storage engine with WAL, buffer pool, recovery, and
  an index catalog;
* :class:`BTree` — the secondary-index manager (insert/delete/scan);
* :class:`OnlineRebuild` / :class:`RebuildConfig` — the paper's online
  index rebuild (multipage rebuild top actions);
* :class:`RebuildSupervisor` — crash/fault-resilient rebuild lifecycle
  (WAL-checkpointed resume, retry with backoff, graceful degradation
  under fault storms).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.btree.tree import BTree
from repro.core.config import RebuildConfig
from repro.core.rebuild import OnlineRebuild, RebuildReport
from repro.core.supervisor import (
    RebuildSupervisor,
    SupervisorReport,
)
from repro.engine import Engine
from repro.errors import ReproError
from repro.stats.counters import Counters, Timer
from repro.stats.fragmentation import FragmentationReport, analyze_index

__all__ = [
    "BTree",
    "Counters",
    "Engine",
    "FragmentationReport",
    "OnlineRebuild",
    "RebuildConfig",
    "RebuildReport",
    "RebuildSupervisor",
    "ReproError",
    "SupervisorReport",
    "Timer",
    "analyze_index",
]

__version__ = "1.0.0"

"""The paper's contribution: online index rebuild and its baselines."""

from repro.core.config import RebuildConfig
from repro.core.offline import OfflineReport, offline_rebuild, table_lock_resource
from repro.core.propagation import PropagationEntry, PropOp
from repro.core.rebuild import OnlineRebuild, RebuildReport
from repro.core.scrubber import (
    ScrubConfig,
    ScrubDefect,
    Scrubber,
    ScrubReport,
)
from repro.core.supervisor import (
    Pacer,
    RebuildSupervisor,
    SupervisorReport,
)

__all__ = [
    "OfflineReport",
    "OnlineRebuild",
    "Pacer",
    "PropOp",
    "PropagationEntry",
    "RebuildConfig",
    "RebuildReport",
    "RebuildSupervisor",
    "ScrubConfig",
    "ScrubDefect",
    "ScrubReport",
    "Scrubber",
    "SupervisorReport",
    "offline_rebuild",
    "table_lock_resource",
]

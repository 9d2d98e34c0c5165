"""The paper's contribution: online index rebuild, its supervisor and the scrubber."""

from repro.core.config import RebuildConfig
from repro.core.pacer import Pacer
from repro.core.propagation import PropagationEntry, PropOp
from repro.core.rebuild import OnlineRebuild, RebuildReport
from repro.core.scrubber import (
    ScrubConfig,
    ScrubDefect,
    Scrubber,
    ScrubReport,
)
from repro.core.supervisor import RebuildSupervisor, SupervisorReport

__all__ = [
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
]

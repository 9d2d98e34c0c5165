"""Deterministic cost-model counters, timing, fragmentation analysis."""

from repro.stats.counters import Counters, Timer
from repro.stats.fragmentation import FragmentationReport, analyze_index

__all__ = [
    "Counters",
    "FragmentationReport",
    "Timer",
    "analyze_index",
]

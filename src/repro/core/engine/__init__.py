"""Batched scoring engine: stacked counts + array-level quality kernels.

The engine is the vectorised middle layer between the group-by counts
(:mod:`repro.core.counts`) and the selection pipeline / baselines.  See
``ARCHITECTURE.md`` for the counts -> kernels -> engine -> explainer
layering.
"""

from . import kernels
from .engine import ScoringEngine, scoring_engine
from .shm import SharedStack, SharedStackHandle, StackCounts, attach_counts, share_stack
from .stacks import CountsStack, DomainBucket

__all__ = [
    "kernels",
    "ScoringEngine",
    "scoring_engine",
    "CountsStack",
    "DomainBucket",
    "SharedStack",
    "SharedStackHandle",
    "StackCounts",
    "attach_counts",
    "share_stack",
]

"""The paper's primary contribution: explicit-state synthesis.

Given a protocol *skeleton* — a transition system whose rule bodies contain
:class:`~repro.core.hole.Hole` resolution points — the synthesis engine
enumerates assignments of designer-provided :class:`~repro.core.action.Action`
values to holes, dispatching each complete candidate to the embedded model
checker, and prunes candidates inferred to fail from previously recorded
failure patterns (Section II of the paper).
"""

from repro.core.action import Action, action
from repro.core.candidate import WILDCARD, CandidateVector, format_candidate
from repro.core.discovery import CandidateResolver, HoleRegistry
from repro.core.engine import SynthesisConfig, SynthesisEngine
from repro.core.enumeration import SubtreeEnumerator
from repro.core.hole import Hole
from repro.core.pruning import DfsMatcher, PruningPattern, PruningTable
from repro.core.report import Solution, SynthesisReport

__all__ = [
    "Action",
    "CandidateResolver",
    "CandidateVector",
    "DfsMatcher",
    "Hole",
    "HoleRegistry",
    "PruningPattern",
    "PruningTable",
    "Solution",
    "SubtreeEnumerator",
    "SynthesisConfig",
    "SynthesisEngine",
    "SynthesisReport",
    "WILDCARD",
    "action",
    "format_candidate",
]

"""Explicit-state model checking substrate (the paper's embedded checker).

This subpackage implements the Murphi-like modelling and verification layer
that VerC3 embeds: guarded-command transition systems over immutable
states, one unified exploration kernel (:mod:`repro.mc.kernel`)
parameterised by a frontier strategy — FIFO/"bfs" for minimal error
traces, LIFO/"dfs" as the ablation — with resumable prefix checkpoints,
scalarset symmetry reduction on packed state encodings, and three-valued
verdicts (SUCCESS / FAILURE / UNKNOWN) so the synthesis layer can reason
about candidates containing wildcard holes.
"""

from repro.mc.bfs import BfsExplorer
from repro.mc.context import ExecutionContext, FixedResolver, NullResolver
from repro.mc.dfs import DfsExplorer
from repro.mc.kernel import (
    EXPLORER_STRATEGIES,
    ExplorationKernel,
    ExplorationLimits,
    FifoFrontier,
    FrontierStrategy,
    LifoFrontier,
    make_explorer,
)
from repro.mc.multiset import Multiset
from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
from repro.mc.result import Verdict, VerificationResult
from repro.mc.rule import Rule, RuleInstance, ruleset
from repro.mc.symmetry import Permuter, ScalarSet
from repro.mc.system import TransitionSystem
from repro.mc.trace import Trace, TraceStep

__all__ = [
    "BfsExplorer",
    "CoverageProperty",
    "DeadlockPolicy",
    "DfsExplorer",
    "EXPLORER_STRATEGIES",
    "ExecutionContext",
    "ExplorationKernel",
    "ExplorationLimits",
    "FifoFrontier",
    "FixedResolver",
    "FrontierStrategy",
    "Invariant",
    "LifoFrontier",
    "Multiset",
    "NullResolver",
    "Permuter",
    "Rule",
    "RuleInstance",
    "ScalarSet",
    "Trace",
    "TraceStep",
    "TransitionSystem",
    "Verdict",
    "VerificationResult",
    "make_explorer",
    "ruleset",
]

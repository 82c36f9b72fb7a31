"""Explicit-state model checking substrate (the paper's embedded checker).

This subpackage implements the Murphi-like modelling and verification layer
that VerC3 embeds: guarded-command transition systems over immutable
states, one breadth-first exploration kernel (:mod:`repro.mc.kernel`)
whose FIFO frontier yields minimal error traces, resumable prefix
checkpoints, scalarset symmetry reduction on packed state encodings, and
three-valued verdicts (SUCCESS / FAILURE / UNKNOWN) so the synthesis layer
can reason about candidates containing wildcard holes.
"""

from repro.mc.context import ExecutionContext, FixedResolver, NullResolver
from repro.mc.kernel import ExplorationKernel, ExplorationLimits
from repro.mc.multiset import Multiset
from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
from repro.mc.result import Verdict, VerificationResult
from repro.mc.rule import Rule, RuleInstance, ruleset
from repro.mc.symmetry import Permuter, ScalarSet
from repro.mc.system import TransitionSystem
from repro.mc.trace import Trace, TraceStep

__all__ = [
    "CoverageProperty",
    "DeadlockPolicy",
    "ExecutionContext",
    "ExplorationKernel",
    "ExplorationLimits",
    "FixedResolver",
    "Invariant",
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
    "ruleset",
]

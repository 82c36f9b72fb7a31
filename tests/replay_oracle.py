"""Counterexample-replay conflict extraction, kept as a test oracle.

The engine reads a failure's conflict off the exploration kernel's
hole paths (:func:`repro.core.pruning.generalise_failure`).  This module
computes the same conflict independently, from the counterexample trace
alone: it replays the trace firing by firing under the failed
candidate's assignment and records which holes execute.  For DEADLOCK
failures the conflict also includes every hole executed by the
(successor-less) firings attempted at the final state.

:func:`replay_conflict` returns ``None`` when there is nothing to replay
(COVERAGE failures, store replays) or the replay does not
reproduce the trace; an empty pattern means the trace executed no holes.
"""

from typing import Optional, Sequence

from repro.core.candidate import CandidateVector
from repro.core.discovery import CandidateResolver
from repro.core.pruning import PruningPattern
from repro.errors import WildcardEncountered
from repro.mc.context import ExecutionContext
from repro.mc.result import FailureKind, VerificationResult


def replay_conflict(
    system,
    registry,
    digits: Sequence[int],
    result: VerificationResult,
) -> Optional[PruningPattern]:
    """The replayed minimal-conflict pattern of a failed candidate."""
    trace = result.trace
    if trace is None or result.failure_kind is FailureKind.COVERAGE:
        return None
    vector = CandidateVector.from_digits(tuple(digits))
    ctx = ExecutionContext(CandidateResolver(registry, vector))
    rules_by_name = {rule.name: rule for rule in system.rules}
    state = trace.initial_state
    executed: set = set()
    for step in trace.steps[1:]:
        rule = rules_by_name.get(step.rule_name)
        if rule is None:
            return None
        ctx.begin_firing()
        try:
            successors = rule.fire(state, ctx)
        except WildcardEncountered:
            return None
        executed |= ctx.firing_executed_holes
        if not any(successor == step.state for successor in successors):
            return None
        state = step.state
    if result.failure_kind is FailureKind.DEADLOCK:
        for rule in system.rules:
            if not rule.guard(state):
                continue
            ctx.begin_firing()
            try:
                successors = rule.fire(state, ctx)
            except WildcardEncountered:
                return None
            if successors:
                return None  # not the deadlock the verdict reported
            executed |= ctx.firing_executed_holes
    constraints = []
    for hole in executed:
        position = registry.position_of(hole, register=False)
        if position is None or position >= len(digits):
            return None
        constraints.append((position, digits[position]))
    return PruningPattern(constraints)

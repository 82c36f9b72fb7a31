"""Random walks over transition systems, kept as a test helper.

Not part of the paper's algorithm: the protocol tests use random walks to
sanity-check a model and its invariants cheaply before paying for
exhaustive exploration, and the packed-codec tests use them to reach raw,
non-canonical states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.errors import WildcardEncountered
from repro.mc.context import ExecutionContext
from repro.mc.system import TransitionSystem
from repro.mc.trace import Trace, TraceStep


@dataclass
class SimulationResult:
    """Outcome of one random walk."""

    trace: Trace
    violated_invariant: Optional[str]
    deadlocked: bool
    steps_taken: int


def simulate(
    system: TransitionSystem,
    max_steps: int = 100,
    seed: Optional[int] = None,
    resolver: Any = None,
) -> SimulationResult:
    """Perform one random walk from a random initial state.

    Stops at the step limit, at an invariant violation, or at a state with
    no enabled rules.  Wildcard-cut firings are treated as disabled.
    """
    rng = random.Random(seed)
    ctx = ExecutionContext(resolver)
    state = rng.choice(system.initial_states())
    steps: List[TraceStep] = [TraceStep(None, state)]

    violated = _check_invariants(system, state)
    if violated is not None:
        return SimulationResult(Trace(steps), violated, False, 0)

    for step_index in range(max_steps):
        choices = []
        for rule in system.rules:
            if not rule.guard(state):
                continue
            ctx.begin_firing()
            try:
                successors = rule.fire(state, ctx)
            except WildcardEncountered:
                continue
            for successor in successors:
                choices.append((rule.name, successor))
        if not choices:
            return SimulationResult(Trace(steps), None, True, step_index)
        rule_name, state = rng.choice(choices)
        steps.append(TraceStep(rule_name, state))
        violated = _check_invariants(system, state)
        if violated is not None:
            return SimulationResult(Trace(steps), violated, False, step_index + 1)

    return SimulationResult(Trace(steps), None, False, max_steps)


def _check_invariants(system: TransitionSystem, state: Any) -> Optional[str]:
    for invariant in system.invariants:
        if not invariant.holds(state):
            return invariant.name
    return None

"""A plain breadth-first search over object states, kept as a test oracle.

The exploration kernel runs on packed encodings with a firing memo, a
guard memo and interned slab ids.  :func:`reference_bfs` shares none of
that: it calls ``rule.guard``/``rule.fire``, ``system.canonicalize``,
the invariants, the coverage properties and the deadlock policy
directly, with a FIFO frontier and the rules tried in declaration order.
The kernel has that one search order, so every observable of a run must
match the oracle exactly: the failure kind, the state, transition and
attempt counts, the deepest expanded depth, the counterexample trace
step by step, the unmet coverage and the executed holes.

Wildcards are not modelled: a resolver that leaves an executed hole
unassigned makes the oracle raise ``WildcardEncountered``.
"""

from collections import deque
from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Set, Tuple

from repro.mc.context import ExecutionContext


@dataclass(frozen=True)
class ReferenceRun:
    """What the oracle saw.

    ``kind`` is ``"invariant"``, ``"deadlock"``, ``"coverage"`` or
    ``None`` (success); ``trace`` is a tuple of ``(rule name or None,
    state)`` pairs from an initial state to the failing one, ``None``
    when there is no counterexample path (success or coverage).
    """

    kind: Optional[str]
    states: int
    transitions: int
    attempts: int
    max_depth: int
    trace: Optional[Tuple[Tuple[Optional[str], Any], ...]]
    unmet_coverage: Tuple[str, ...]
    executed_holes: FrozenSet[str]
    visited: Set[Any]


def reference_bfs(system, resolver: Any = None) -> ReferenceRun:
    """Explore ``system`` breadth-first with the kernel's verdict rules.

    Invariants are checked on each new state as it is generated, and
    coverage once the frontier drains.  A state that produced no
    successor is a deadlock unless the policy accepts it.
    """
    rules = list(system.rules)
    ctx = ExecutionContext(resolver)
    #: canonical state -> (parent canonical state or None, rule name, state)
    parents = {}
    frontier = deque()
    pending = list(system.coverage)
    counts = {"states": 0, "transitions": 0, "attempts": 0, "depth": 0}

    def finish(kind, failing=None):
        trace = None
        if failing is not None:
            steps = []
            cursor = failing
            while cursor is not None:
                parent, rule_name, state = parents[cursor]
                steps.append((rule_name, state))
                cursor = parent
            trace = tuple(reversed(steps))
        return ReferenceRun(
            kind=kind,
            states=counts["states"],
            transitions=counts["transitions"],
            attempts=counts["attempts"],
            max_depth=counts["depth"],
            trace=trace,
            unmet_coverage=tuple(prop.name for prop in pending),
            executed_holes=frozenset(
                hole.name for hole in ctx.run_executed_holes
            ),
            visited=set(parents),
        )

    def add(state, parent, rule_name, depth):
        """Dedup and enqueue; the canonical key if the new state violates
        an invariant, else ``None``."""
        canon = system.canonicalize(state)
        if canon in parents:
            return None
        parents[canon] = (parent, rule_name, state)
        counts["states"] += 1
        pending[:] = [prop for prop in pending if not prop.satisfied_by(state)]
        frontier.append((state, canon, depth))
        if any(not inv.holds(state) for inv in system.invariants):
            return canon
        return None

    for state in system.initial_states():
        failing = add(state, None, None, 0)
        if failing is not None:
            return finish("invariant", failing)
    while frontier:
        state, canon, depth = frontier.popleft()
        counts["depth"] = max(counts["depth"], depth)
        produced = False
        for rule in rules:
            if not rule.guard(state):
                continue
            counts["attempts"] += 1
            ctx.begin_firing()
            successors = rule.fire(state, ctx)
            produced = produced or bool(successors)
            for successor in successors:
                counts["transitions"] += 1
                failing = add(successor, canon, rule.name, depth + 1)
                if failing is not None:
                    return finish("invariant", failing)
        if not produced and system.deadlock.is_deadlock(state):
            return finish("deadlock", canon)
    return finish("coverage" if pending else None)


def assert_matches_reference(result, reference: ReferenceRun) -> None:
    """Assert a kernel result shows exactly what the oracle saw."""
    kind = result.failure_kind.value if result.failure_kind else None
    assert kind == reference.kind, result.message
    assert result.is_success == (reference.kind is None)
    stats = result.stats
    assert stats.states_visited == reference.states
    assert stats.transitions_fired == reference.transitions
    assert stats.rules_attempted == reference.attempts
    assert stats.max_depth == reference.max_depth
    assert not stats.truncated
    assert stats.wildcard_cuts == 0
    if reference.kind in (None, "coverage"):
        assert tuple(result.unmet_coverage) == reference.unmet_coverage
    assert {hole.name for hole in result.executed_holes} == set(
        reference.executed_holes
    )
    if reference.trace is None:
        assert result.trace is None
    else:
        assert result.trace is not None
        got = tuple((step.rule_name, step.state) for step in result.trace)
        assert [name for name, _ in got] == [name for name, _ in reference.trace]
        assert got == reference.trace

"""Candidate pruning: the paper's key contribution.

When a candidate fails, its configuration — including wildcard entries for
holes discovered but not yet assigned — is recorded as a *pruning pattern*.
Soundness (paper, Section II): if candidate ``C`` fails with an error trace
executing the hole subset ``Ct ⊆ C``, every ``C'`` with ``Ct ⊆ C'`` fails
with the same trace.  A pattern therefore constrains only the non-wildcard
positions; any candidate agreeing on all constrained positions is inferred
to fail without model checking.

Two matching engines are provided:

* :meth:`PruningTable.matches` — per-candidate matching, the behaviour of
  the paper's C++ lookup table.  It answers with one subset query over an
  inverted constraint index (the same query rejects subsumed patterns in
  :meth:`PruningTable.add`), not a scan of the table; still, one query
  per candidate is too slow in CPython for the billion-candidate
  MSI-large space.
* :class:`DfsMatcher` — an incremental matcher driven by the subtree-
  skipping enumerator (:mod:`repro.core.enumeration`).  Digits are pushed
  and popped in position order; the instant every constraint of a pattern is
  satisfied, the whole subtree below the pattern's last constrained position
  is skipped and its size counted analytically.  Patterns may be added
  mid-walk (from the walk's own failures); the process backend broadcasts
  each worker's patterns to the others between batches, which is how
  parallel workers "make use of another thread's registered patterns as
  soon as they become available" (paper, Section II, Parallel Synthesis).

The same machinery is reused for *success patterns* (solutions found in an
earlier pass whose unconstrained holes are provably unreachable and hence
don't-cares): matching candidates are skipped without being re-verified or
double-counted.

Conflict generalisation (:func:`generalise_failure`) strengthens the
recorded failure patterns beyond the paper: instead of constraining every
assigned position of the failed candidate, the counterexample trace is
*replayed* to find the exact hole subset it executes — the minimal conflict
— and only those positions are constrained.  Because the pattern's highest
constrained position bounds the shortest assignment prefix that already
forces the counterexample, the subtree-skipping enumerator can discard the
entire subtree below that prefix, which is exponentially larger than what
the full-width pattern could cut.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.candidate import CandidateVector
from repro.errors import WildcardEncountered
from repro.mc.context import ExecutionContext
from repro.mc.result import FailureKind, VerificationResult


class PruningPattern:
    """An immutable conjunction of (position, action_index) constraints."""

    __slots__ = ("constraints", "max_position", "_hash")

    def __init__(self, constraints: Iterable[Tuple[int, int]]) -> None:
        ordered = tuple(sorted(constraints))
        positions = [position for position, _action in ordered]
        if len(set(positions)) != len(positions):
            raise ValueError("pattern constrains a position twice")
        for position, action in ordered:
            if position < 0 or action < 0:
                raise ValueError("pattern constraints must be non-negative")
        self.constraints = ordered
        self.max_position = positions[-1] if positions else -1
        self._hash = hash(ordered)

    @classmethod
    def from_candidate(cls, vector: CandidateVector) -> "PruningPattern":
        """Pattern recording a failed candidate: its non-wildcard entries."""
        return cls(vector.constraints())

    @property
    def is_empty(self) -> bool:
        """An empty pattern matches everything: the model is inherently faulty."""
        return not self.constraints

    def matches(self, vector: CandidateVector) -> bool:
        """Does ``vector`` satisfy every constraint of this pattern?

        Wildcard entries in the candidate do *not* satisfy constraints: a
        pattern constraining a position the candidate leaves wildcard is not
        (yet) a certain failure for it.
        """
        for position, action in self.constraints:
            if vector.action_index(position) != action:
                return False
        return True

    def subsumes(self, other: "PruningPattern") -> bool:
        """True if every candidate matched by ``other`` is matched by self."""
        return set(self.constraints) <= set(other.constraints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PruningPattern):
            return NotImplemented
        return self.constraints == other.constraints

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}@{a}" for p, a in self.constraints)
        return f"PruningPattern({inner})"


class PruningTable:
    """A versioned, thread-safe store of pruning patterns.

    ``version`` increases with every accepted pattern; matchers track the
    version up to which they have integrated patterns and fetch the delta
    with :meth:`patterns_since`.

    Subsumption and :meth:`matches` are both one subset query: which
    stored patterns have every constraint inside a given constraint set?
    An inverted index maps each ``(position, action)`` constraint to a
    bitmask of the ids (insertion indices) of the patterns containing it.
    A pattern is a subset of ``Q`` exactly when it has no constraint
    outside ``Q``, so the answer is every id minus the postings of the
    constraints not in ``Q``; the first stored such pattern is the lowest
    set bit.  The cost is one big-int OR per distinct constraint, instead
    of a pass over every stored pattern.
    """

    def __init__(self, subsumption: bool = True) -> None:
        self._lock = threading.Lock()
        self._patterns: List[PruningPattern] = []
        self._seen: set = set()
        self._subsumption = subsumption
        self._postings: Dict[Tuple[int, int], int] = {}

    def _first_subset(self, query) -> Optional[PruningPattern]:
        """Lowest-id stored pattern whose constraints all lie in ``query``.

        ``query`` is a set of ``(position, action)`` pairs; call with the
        lock held.
        """
        excluded = 0
        for constraint, ids in self._postings.items():
            if constraint not in query:
                excluded |= ids
        found = ((1 << len(self._patterns)) - 1) & ~excluded
        if not found:
            return None
        return self._patterns[(found & -found).bit_length() - 1]

    def add(self, pattern: PruningPattern) -> bool:
        """Insert a pattern; returns False if it was redundant.

        With subsumption enabled, a pattern already implied by a stored
        pattern is rejected (keeping the table small); stored patterns that
        the new pattern subsumes are *not* removed (removal would invalidate
        matcher snapshots; the duplicate work is only a slightly larger
        table).
        """
        constraints = pattern.constraints
        with self._lock:
            if constraints in self._seen:
                return False
            if self._subsumption and self._first_subset(set(constraints)) is not None:
                return False
            bit = 1 << len(self._patterns)
            postings = self._postings
            for constraint in constraints:
                postings[constraint] = postings.get(constraint, 0) | bit
            self._patterns.append(pattern)
            self._seen.add(constraints)
            return True

    def __len__(self) -> int:
        return len(self._patterns)

    @property
    def version(self) -> int:
        """Monotonic counter of accepted patterns (for delta sync)."""
        return len(self._patterns)

    def patterns_since(self, version: int) -> List[PruningPattern]:
        """Patterns added after ``version`` (a past value of :attr:`version`)."""
        with self._lock:
            return self._patterns[version:]

    def constraints_since(
        self, version: int = 0
    ) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Wire form of :meth:`patterns_since`: bare constraint tuples.

        The distributed backend ships these across process boundaries
        (coordinator snapshots/deltas out, worker discoveries back) instead
        of pickling pattern objects.
        """
        with self._lock:
            return tuple(pattern.constraints for pattern in self._patterns[version:])

    def all_patterns(self) -> List[PruningPattern]:
        """Snapshot of every stored pattern."""
        with self._lock:
            return list(self._patterns)

    def matches(self, vector: CandidateVector) -> Optional[PruningPattern]:
        """First stored pattern matching ``vector``, if any.

        A pattern matches exactly when its constraints are a subset of the
        vector's non-wildcard ``(position, action)`` pairs.
        """
        query = set(vector.constraints())
        with self._lock:
            return self._first_subset(query)


class DfsMatcher:
    """Incremental pattern matcher for position-ordered DFS enumeration.

    The enumerator pushes digits in increasing position order and pops them
    on backtrack.  Each stored pattern keeps a count of unsatisfied
    constraints; a push of ``(position, action)`` decrements the count of
    every pattern constraining exactly that pair.  A pattern *fires* when
    its count reaches zero — which, because positions are pushed in order,
    can only happen while pushing its maximum constrained position — and the
    enumerator then skips the entire subtree.

    Patterns may be added mid-walk via :meth:`integrate`, passing the digits
    currently on the DFS path so the new pattern's counter reflects the
    constraints that path already satisfies.  A pattern whose constraints
    are already fully satisfied at integration time is tracked through the
    ``matched_count`` invariant: the matcher maintains the number of
    patterns with zero unsatisfied constraints, so :meth:`push` (and
    :attr:`any_matched`) report a match regardless of *when* the pattern
    completed.
    """

    def __init__(self, patterns: Iterable[PruningPattern] = ()) -> None:
        self._patterns: List[PruningPattern] = []
        self._remaining: List[int] = []
        self._index: Dict[Tuple[int, int], List[int]] = {}
        self._matched_count = 0
        for pattern in patterns:
            self._install(pattern, current_path=())

    def _install(self, pattern: PruningPattern, current_path: Sequence[int]) -> None:
        pattern_id = len(self._patterns)
        satisfied = 0
        for position, action in pattern.constraints:
            if position < len(current_path) and current_path[position] == action:
                satisfied += 1
            self._index.setdefault((position, action), []).append(pattern_id)
        self._patterns.append(pattern)
        remaining = len(pattern.constraints) - satisfied
        self._remaining.append(remaining)
        if remaining == 0:
            self._matched_count += 1

    def integrate(self, patterns: Iterable[PruningPattern],
                  current_path: Sequence[int]) -> None:
        """Add patterns discovered mid-walk (the walk's own failures)."""
        for pattern in patterns:
            self._install(pattern, current_path)

    @property
    def any_matched(self) -> bool:
        """True if some pattern is fully satisfied by the current DFS path."""
        return self._matched_count > 0

    def push(self, position: int, action: int) -> bool:
        """Record digit ``action`` at ``position``; True if a pattern matches.

        Returning True means the entire subtree below the current path is
        inferred to fail (or, for success tables, to succeed) — the
        enumerator should skip it.
        """
        remaining = self._remaining
        for pattern_id in self._index.get((position, action), ()):
            remaining[pattern_id] -= 1
            if remaining[pattern_id] == 0:
                self._matched_count += 1
        return self._matched_count > 0

    def pop(self, position: int, action: int) -> None:
        """Undo the matching effect of the corresponding :meth:`push`."""
        remaining = self._remaining
        for pattern_id in self._index.get((position, action), ()):
            if remaining[pattern_id] == 0:
                self._matched_count -= 1
            remaining[pattern_id] += 1

    def fully_matched(self, path: Sequence[int]) -> bool:
        """Non-incremental check of a complete path (used in tests)."""
        for pattern, _remaining in zip(self._patterns, self._remaining):
            if all(
                position < len(path) and path[position] == action
                for position, action in pattern.constraints
            ):
                return True
        return False

    @property
    def pattern_count(self) -> int:
        """Patterns currently integrated into the matcher."""
        return len(self._patterns)


def generalise_failure(
    system,
    registry,
    digits: Sequence[int],
    result: VerificationResult,
    telemetry=None,
) -> Optional[PruningPattern]:
    """Minimal-conflict pattern for a failed candidate, via trace replay.

    ``telemetry`` (a ``repro.obs.Telemetry``, optional) wraps the replay
    in a ``generalise`` trace span recording whether a conflict was
    found and how narrow it is — replay cost is one of the phases the
    ``stats`` subcommand attributes.

    Soundness is the paper's Section II argument made exact: the
    counterexample trace is replayed firing by firing under the failed
    candidate's assignment, recording precisely which holes execute.  Any
    candidate agreeing on those positions replays the same trace (guards
    are hole-free; firings that resolved no further holes are
    assignment-independent) and therefore contains the same violation, so
    the returned pattern constrains *only* the replayed conflict — every
    other position becomes a wildcard, including assigned positions the
    failure never touched.

    For DEADLOCK failures the conflict additionally includes every hole
    executed by the (successor-less) rule firings attempted at the final
    state: a candidate disagreeing there could enable an escape.

    Returns ``None`` — callers fall back to the full-width pattern — when
    no trace is available (COVERAGE failures, ``record_traces=False``) or
    the replay cannot reproduce the trace (nondeterministic rule bodies,
    an unexpected wildcard).  An *empty* pattern is a genuine result: the
    trace executed no holes at all, so the skeleton fails identically
    under every assignment (the engine reports an inherent failure).
    """
    if telemetry is not None and telemetry.enabled:
        with telemetry.span("generalise") as span:
            pattern = _generalise_failure(system, registry, digits, result)
            span.set(
                generalised=pattern is not None,
                width=len(pattern.constraints) if pattern is not None else None,
            )
            return pattern
    return _generalise_failure(system, registry, digits, result)


def _generalise_failure(
    system,
    registry,
    digits: Sequence[int],
    result: VerificationResult,
) -> Optional[PruningPattern]:
    trace = result.trace
    if trace is None or result.failure_kind is FailureKind.COVERAGE:
        return None
    from repro.core.discovery import CandidateResolver

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

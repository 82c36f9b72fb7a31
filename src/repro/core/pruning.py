"""Candidate pruning: the paper's key contribution.

When a candidate fails, its configuration — including wildcard entries for
holes discovered but not yet assigned — is recorded as a *pruning pattern*.
Soundness (paper, Section II): if candidate ``C`` fails with an error trace
executing the hole subset ``Ct ⊆ C``, every ``C'`` with ``Ct ⊆ C'`` fails
with the same trace.  A pattern therefore constrains only the non-wildcard
positions; any candidate agreeing on all constrained positions is inferred
to fail without model checking.

Patterns live in a :class:`PruningTable`: an append-only, versioned log
that rejects exact duplicates and nothing else.  Matching is the job of
:class:`DfsMatcher`, an incremental bitset matcher driven by the
subtree-skipping enumerator (:mod:`repro.core.enumeration`).  Digits are
pushed and popped in position order, each push costing a few big-int
operations over pattern-id masks; the instant every constraint of a
pattern is satisfied, the whole subtree below the pattern's last
constrained position is skipped and its size counted analytically.
Patterns may be added mid-walk (from the walk's own failures); the
process backend broadcasts each worker's patterns to the others between
batches, which is how parallel workers "make use of another thread's
registered patterns as soon as they become available" (paper, Section
II, Parallel Synthesis).

The table never checks whether a stored pattern implies a new one.  In
a sequential run that cannot happen: before a candidate is dispatched
its walker integrates every stored pattern, so a dispatched candidate
matches none of them; the pattern its verdict records is a subset of the
candidate's own constraints, so no stored pattern can lie inside it.  On
the process backend a pattern found concurrently can still be implied by
one stored meanwhile, which is harmless: anything it matches, the smaller
pattern matches too.

The same machinery is reused for *success patterns* (solutions found in an
earlier pass whose unconstrained holes are provably unreachable and hence
don't-cares): matching candidates are skipped without being re-verified or
double-counted.

Conflict generalisation (:func:`generalise_failure`) strengthens the
recorded failure patterns beyond the paper: instead of constraining every
assigned position of the failed candidate, the pattern constrains only the
holes the failure executes — the minimal conflict.  The exploration kernel
tracks, per state, the holes executed on its discovery path, so the
conflict is read off the failing run rather than recomputed.  Because the pattern's highest constrained
position bounds the shortest assignment prefix that already forces the
counterexample, the subtree-skipping enumerator can discard the entire
subtree below that prefix, which is exponentially larger than what the
full-width pattern could cut.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.candidate import CandidateVector
from repro.errors import SynthesisError
from repro.mc.context import mask_positions
from repro.mc.result import VerificationResult


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
    """A versioned, thread-safe, append-only log of pruning patterns.

    ``version`` increases with every accepted pattern; matchers track the
    version up to which they have integrated patterns and fetch the delta
    with :meth:`patterns_since`.  Patterns are never removed or reordered,
    so a version is a stable prefix of the log.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._patterns: List[PruningPattern] = []
        self._seen: set = set()

    def add(self, pattern: PruningPattern) -> bool:
        """Append a pattern; returns False if it is an exact duplicate."""
        constraints = pattern.constraints
        with self._lock:
            if constraints in self._seen:
                return False
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


class DfsMatcher:
    """Incremental bitset matcher for position-ordered DFS enumeration.

    The enumerator pushes digits in increasing position order, starting
    at position 0, and pops them on backtrack.  Each integrated pattern
    owns one bit (its insertion index), and three indexes map to bitmasks
    of pattern ids: the patterns constraining a position at all, the
    patterns holding a given ``(position, action)`` constraint, and the
    patterns whose last constraint is at a position.  The matcher keeps
    two masks for the current path:

    * ``violated`` — patterns with a constraint the path contradicts;
    * ``covered`` — patterns whose every constrained position is on the
      path (empty patterns from the start).

    A push ORs one mask into each, so its cost is a few big-int
    operations however many patterns share the constraint; a pattern
    *fires* when it is covered and not violated, and the enumerator then
    skips the entire subtree.  A pop restores the pair saved by the
    matching push.

    Patterns may be added mid-walk via :meth:`integrate`, passing the
    digits currently on the DFS path; the new pattern's bit is set in the
    current pair and in every saved pair it belongs to, so a pattern
    already satisfied by a shallower prefix fires until the walk
    backtracks above it.
    """

    def __init__(self, patterns: Iterable[PruningPattern] = ()) -> None:
        self._patterns: List[PruningPattern] = []
        #: position -> ids of patterns constraining it
        self._at: List[int] = []
        #: position -> ids of patterns whose last constraint is there
        self._ending: List[int] = []
        #: (position, action) -> ids of patterns with that constraint
        self._with: Dict[Tuple[int, int], int] = {}
        self._violated = 0
        self._covered = 0
        #: (violated, covered) before each push still on the path
        self._stack: List[Tuple[int, int]] = []
        self.integrate(patterns, current_path=())

    def _install(self, pattern: PruningPattern) -> int:
        """Index ``pattern`` under a fresh id; returns its bit."""
        bit = 1 << len(self._patterns)
        self._patterns.append(pattern)
        at, ending, with_ = self._at, self._ending, self._with
        grow = pattern.max_position + 1 - len(at)
        if grow > 0:
            at.extend([0] * grow)
            ending.extend([0] * grow)
        for constraint in pattern.constraints:
            at[constraint[0]] |= bit
            with_[constraint] = with_.get(constraint, 0) | bit
        if not pattern.is_empty:
            ending[pattern.max_position] |= bit
        return bit

    def integrate(self, patterns: Iterable[PruningPattern],
                  current_path: Sequence[int]) -> None:
        """Add patterns discovered mid-walk (the walk's own failures).

        ``current_path`` holds the digits pushed so far, one per saved
        pair; the pair saved before the push at position ``k`` describes
        the prefix ``current_path[:k]``.
        """
        stack = self._stack
        depth = len(stack)
        for pattern in patterns:
            bit = self._install(pattern)
            # First prefix length at which the path contradicts the
            # pattern, and the first at which it covers it.
            violated_from = depth + 1
            for position, action in pattern.constraints:
                if position >= depth:
                    break
                if current_path[position] != action:
                    violated_from = position + 1
                    break
            covered_from = pattern.max_position + 1
            for k in range(min(violated_from, covered_from), depth):
                violated, covered = stack[k]
                if k >= violated_from:
                    violated |= bit
                if k >= covered_from:
                    covered |= bit
                stack[k] = (violated, covered)
            if depth >= violated_from:
                self._violated |= bit
            if depth >= covered_from:
                self._covered |= bit

    @property
    def any_matched(self) -> bool:
        """True if some pattern is fully satisfied by the current DFS path."""
        return bool(self._covered & ~self._violated)

    def push(self, position: int, action: int) -> bool:
        """Record digit ``action`` at ``position``; True if a pattern matches.

        Returning True means the entire subtree below the current path is
        inferred to fail (or, for success tables, to succeed) — the
        enumerator should skip it.
        """
        violated = self._violated
        covered = self._covered
        self._stack.append((violated, covered))
        if position < len(self._at):
            violated |= self._at[position] & ~self._with.get((position, action), 0)
            covered |= self._ending[position]
            self._violated = violated
            self._covered = covered
        return bool(covered & ~violated)

    def pop(self, position: int, action: int) -> None:
        """Undo the matching effect of the corresponding :meth:`push`."""
        self._violated, self._covered = self._stack.pop()

    @property
    def pattern_count(self) -> int:
        """Patterns currently integrated into the matcher."""
        return len(self._patterns)


def generalise_failure(
    registry,
    digits: Sequence[int],
    result: VerificationResult,
) -> PruningPattern:
    """Minimal-conflict pattern for a failed candidate.

    The pattern constrains exactly the positions of
    ``result.failure_mask``: the holes the exploration kernel saw
    executed on the failing state's discovery path (its counterexample
    trace), plus, for a DEADLOCK, the holes executed by the
    successor-less firings attempted at the final state — a candidate
    disagreeing there could enable an escape.  For a COVERAGE failure the
    mask is every hole the run executed.  The mask's bits are already
    ``registry`` positions (the candidate's resolver numbered the holes by
    them), so the registry itself is not consulted.

    Soundness is the paper's Section II argument made exact.  A candidate
    agreeing on those positions fires the same transitions along the
    trace (guards are hole-free; firings that resolved no further holes
    are assignment-independent), so it contains the same violation; a
    COVERAGE failure is only reported on a complete, wildcard-free
    exploration, which such a candidate repeats state for state.  Every
    other position becomes a wildcard, including assigned positions the
    failure never touched.

    An *empty* pattern is a genuine result: the failure executed no holes
    at all, so the skeleton fails identically under every assignment (the
    engine reports an inherent failure).
    """
    mask = result.failure_mask
    if mask >> len(digits):
        position = mask.bit_length() - 1
        raise SynthesisError(
            f"failure hole at position {position} has no assigned digit"
        )
    return PruningPattern(
        (position, digits[position]) for position in mask_positions(mask)
    )

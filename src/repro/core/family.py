"""Hole families: sets of candidate completions checked as one quotient.

The 1-by-1 synthesis loop (:mod:`repro.core.engine`) enumerates every
completion of the discovered holes and model checks each.  A
:class:`HoleFamily` instead fixes only the holes whose option subset has
narrowed to a single action and leaves the rest as wildcards; one kernel
run on that *quotient* then classifies the whole family:

* **FAILURE** — the counterexample trace executed only the fixed holes,
  so by the paper's pruning soundness argument *every* member contains
  the same violation: the family is all-fail and prunes in one check.
* **SUCCESS** — the run completed wildcard-free, meaning the quotient
  never even read the unfixed holes: every member is behaviourally
  identical to the quotient, so the family is all-pass and each member
  is a solution with the quotient's visited set and fingerprint.
* **UNKNOWN** (wildcard cuts) — ambiguous: the verdict depends on holes
  the family leaves open.  The scheduler *splits* on the hole that cut
  shallowest (:attr:`~repro.mc.result.VerificationResult.cut_holes`) and
  re-checks the children, whose check vectors gain a concrete digit.

This is the `SynthesizerAR` abstraction-refinement shape from PAYNT,
transplanted onto the paper's wildcard kernel: the wildcard-cut states a
prefix checkpoint records are exactly the split frontier, so family
checks compose with prefix reuse (a child resumes its parent's
checkpoint), packed states, and symmetry rather than replacing any of
them.

Everything here is pure data + arithmetic; the scheduler that drives
worklists of families lives in :mod:`repro.core.engine` and the
distributed sharding in :mod:`repro.dist`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.candidate import WILDCARD, CandidateVector
from repro.errors import CandidateError

#: wire form of a family: one sorted option tuple per hole position
WireFamily = Tuple[Tuple[int, ...], ...]


class HoleFamily:
    """An immutable per-hole subset of candidate options.

    ``options[i]`` is the sorted, duplicate-free tuple of action indices
    still admitted at hole position ``i`` (discovery order, like
    candidate digits).  The family denotes the cartesian product of its
    option subsets; a position whose subset is a singleton is *fixed* and
    appears concretely in :meth:`check_vector`, every other position is
    checked as a wildcard.
    """

    __slots__ = ("options", "_hash")

    def __init__(self, options: Sequence[Sequence[int]]) -> None:
        normalised: List[Tuple[int, ...]] = []
        for position, subset in enumerate(options):
            ordered = tuple(sorted(set(subset)))
            if not ordered:
                raise CandidateError(
                    f"family has an empty option subset at position {position}"
                )
            if ordered[0] < 0:
                raise CandidateError(
                    f"family option indices must be non-negative "
                    f"(position {position})"
                )
            normalised.append(ordered)
        self.options: WireFamily = tuple(normalised)
        self._hash = hash(self.options)

    # -- construction -------------------------------------------------------

    @classmethod
    def full(cls, radices: Sequence[int]) -> "HoleFamily":
        """The family of *every* completion: all options at every hole."""
        return cls([tuple(range(r)) for r in radices])

    @classmethod
    def singleton(cls, digits: Sequence[int]) -> "HoleFamily":
        """The one-member family of a fully-assigned candidate."""
        return cls([(digit,) for digit in digits])

    @classmethod
    def from_wire(cls, wire: WireFamily) -> "HoleFamily":
        """Rebuild from :attr:`options` shipped across a process boundary."""
        return cls(wire)

    # -- basic views --------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of hole positions the family constrains."""
        return len(self.options)

    @property
    def size(self) -> int:
        """Number of member candidates: prod(len(subset))."""
        total = 1
        for subset in self.options:
            total *= len(subset)
        return total

    @property
    def is_singleton(self) -> bool:
        """True when exactly one member remains."""
        return all(len(subset) == 1 for subset in self.options)

    def multi_positions(self) -> Tuple[int, ...]:
        """Positions still admitting more than one option."""
        return tuple(
            position
            for position, subset in enumerate(self.options)
            if len(subset) > 1
        )

    def check_vector(self) -> CandidateVector:
        """The quotient's resolver input: fixed digits, wildcards elsewhere."""
        return CandidateVector(
            tuple(
                subset[0] if len(subset) == 1 else WILDCARD
                for subset in self.options
            )
        )

    def check_digits(self) -> Tuple:
        """The entries of :meth:`check_vector` (digit or ``WILDCARD``)."""
        return self.check_vector().entries

    def members(self) -> Iterator[Tuple[int, ...]]:
        """Every member candidate, in mixed-radix order over the subsets.

        The *last* position varies fastest, matching the 1-by-1
        enumerator's digit order, so member streams are comparable across
        the two schedulers.
        """
        width = self.width
        if width == 0:
            yield ()
            return
        counters = [0] * width
        options = self.options
        while True:
            yield tuple(options[i][counters[i]] for i in range(width))
            position = width - 1
            while position >= 0:
                counters[position] += 1
                if counters[position] < len(options[position]):
                    break
                counters[position] = 0
                position -= 1
            if position < 0:
                return

    def contains(self, digits: Sequence[int]) -> bool:
        """Is the fully-assigned candidate a member of this family?"""
        if len(digits) != self.width:
            return False
        return all(
            digit in subset for digit, subset in zip(digits, self.options)
        )

    # -- refinement ---------------------------------------------------------

    def split(self, position: int) -> Tuple["HoleFamily", ...]:
        """Partition on ``position``: one child per remaining option.

        Children are returned in ascending option order; they are
        pairwise disjoint and their union is exactly the parent.  Each
        child's check vector gains a concrete digit at ``position``, so
        re-checking a child always makes progress.
        """
        subset = self.options[position]
        if len(subset) < 2:
            raise CandidateError(
                f"cannot split position {position}: subset {subset} is "
                f"already a singleton"
            )
        children = []
        for option in subset:
            options = list(self.options)
            options[position] = (option,)
            children.append(HoleFamily(options))
        return tuple(children)

    def without(self, position: int, option: int) -> Optional["HoleFamily"]:
        """The family minus every member choosing ``option`` at ``position``.

        Returns ``None`` when that removal empties the subset (i.e. the
        whole family chose ``option`` there).
        """
        subset = self.options[position]
        if option not in subset:
            return self
        remaining = tuple(o for o in subset if o != option)
        if not remaining:
            return None
        options = list(self.options)
        options[position] = remaining
        return HoleFamily(options)

    # -- identity -----------------------------------------------------------

    def to_wire(self) -> WireFamily:
        """Picklable/shippable form; :meth:`from_wire` round-trips it."""
        return self.options

    def digest(self) -> str:
        """JSON-stable content digest, identical across processes.

        The digest hashes the canonical JSON rendering of the sorted
        option subsets — no hash randomisation, no object identity — so
        corpus files and distributed shard journals can name families
        byte-stably.
        """
        payload = json.dumps(
            [list(subset) for subset in self.options],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HoleFamily):
            return NotImplemented
        return self.options == other.options

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            str(subset[0]) if len(subset) == 1 else
            "{" + ",".join(map(str, subset)) + "}"
            for subset in self.options
        )
        return f"HoleFamily([{inner}])"


def plan_family_shards(
    radices: Sequence[int], target: int
) -> Tuple[HoleFamily, ...]:
    """Pre-split the full family into at least ``target`` disjoint shards.

    The distributed coordinator cannot grow a shared worklist across
    process boundaries, so it splits the root family *up front* and
    hands each worker batch a contiguous slice of the shard list.  The
    split is level-by-level at the lowest multi-option position, so the
    result is deterministic, partitions the full space exactly, and
    stays aligned with the sequential scheduler's split order (children
    in ascending option order).  The count may overshoot ``target`` by
    up to one radix factor; that only means slightly smaller batches.
    """
    shards: List[HoleFamily] = [HoleFamily.full(radices)]
    while len(shards) < target:
        expanded: List[HoleFamily] = []
        split_any = False
        for shard in shards:
            multi = shard.multi_positions()
            if multi:
                expanded.extend(shard.split(multi[0]))
                split_any = True
            else:
                expanded.append(shard)
        shards = expanded
        if not split_any:
            break
    return tuple(shards)


def apply_pattern(
    family: HoleFamily, constraints: Sequence[Tuple[int, int]]
) -> Tuple[Optional[HoleFamily], int]:
    """Narrow ``family`` against one pruning pattern.

    A pattern (a conjunction of ``(position, action)`` constraints)
    partitions the family's members into matched and unmatched.  Exact
    narrowing is only cheap when the matched slice is a sub-product:

    * no constraint touches the family (wrong position, a fixed position
      disagreeing, or an option the subset no longer admits) — nothing
      matches: ``(family, 0)``;
    * every constraint is satisfied by a *fixed* position — everything
      matches: ``(None, family.size)``;
    * exactly one constraint lands on a multi-option position (the rest
      fixed-satisfied) — the matched slice is the sub-family choosing
      that option there, and removing it keeps the family a product:
      ``(narrowed, matched_count)``;
    * two or more constraints land on multi-option positions — the
      matched set is not a sub-product, so the family is returned
      unchanged and the pattern is left for descendants to apply (after
      splits fix more positions).  Sound for fail *and* success tables:
      unmatched members are merely re-examined, never skipped.

    Returns ``(remaining_family_or_None, members_removed)``.
    """
    free: List[Tuple[int, int]] = []
    for position, action in constraints:
        if position >= family.width:
            return family, 0
        subset = family.options[position]
        if action not in subset:
            return family, 0
        if len(subset) > 1:
            free.append((position, action))
    if not free:
        return None, family.size
    if len(free) > 1:
        return family, 0
    position, action = free[0]
    removed = family.size // len(family.options[position])
    narrowed = family.without(position, action)
    return narrowed, removed


def narrow_family(
    family: HoleFamily,
    fail_constraints: Sequence[Sequence[Tuple[int, int]]],
    success_constraints: Sequence[Sequence[Tuple[int, int]]],
) -> Tuple[Optional[HoleFamily], int, int]:
    """Drive :func:`apply_pattern` to a fixpoint over both tables.

    Each application either leaves the family unchanged or strictly
    shrinks it, so iterating the pattern lists until a full round changes
    nothing terminates.  Re-running matters: removing an option can turn
    a multi-option position into a fixed one, unlocking patterns that
    previously had two free constraints.

    Returns ``(remaining_family_or_None, members_pruned_as_failing,
    members_skipped_as_succeeding)``.
    """
    pruned = 0
    skipped = 0
    current: Optional[HoleFamily] = family
    changed = True
    while changed and current is not None:
        changed = False
        for constraints in fail_constraints:
            if current is None:
                break
            narrowed, removed = apply_pattern(current, constraints)
            if removed:
                pruned += removed
                changed = True
                current = narrowed
        for constraints in success_constraints:
            if current is None:
                break
            narrowed, removed = apply_pattern(current, constraints)
            if removed:
                skipped += removed
                changed = True
                current = narrowed
    return current, pruned, skipped

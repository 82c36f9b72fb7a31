"""Candidate enumeration.

The synthesis procedure runs in *passes*: each pass enumerates the full
mixed-radix product over the holes known at pass start (first-discovered
hole most significant, matching Figure 2 of the paper); holes discovered
during a pass join the vector as wildcards and become enumerable in the next
pass ("once a hole has been used as a non-wildcard in any candidate
configuration, it cannot be used as a wildcard again").

:class:`SubtreeEnumerator` walks one pass (optionally restricted to an
index subrange, which is how parallel workers split the space) as a DFS
with incremental bitset pattern matching
(:class:`~repro.core.pruning.DfsMatcher`: each push or pop is a few
big-int operations).  When a pattern fires at depth ``d``, the whole
subtree (``prod(radices[d+1:])`` candidates) is skipped and counted
analytically.  This is our CPython-feasible replacement for the paper's
per-candidate lookup over billions of candidates (docs/architecture.md,
"Departures from the paper", item 1).  Because a pattern fires the
moment its *last* constrained position is pushed, conflict-generalised
patterns (:func:`~repro.core.pruning.generalise_failure`, read off the
kernel's hole paths) — whose highest constrained position is the end of
the shortest failure-forcing prefix — cut subtrees at the shallowest
sound depth, once per matching assignment of their (possibly sparse)
constrained positions.

A flat per-candidate matcher, the paper's lookup taken literally, took
over twice the subtree walker's wall time on MSI-small and was removed;
it survives as a test oracle only (docs/architecture.md, the flat
matching entry under "Tried, measured, removed").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.pruning import DfsMatcher
from repro.util.itertools2 import product_size


class EnumeratorCounters:
    """Shared counter block for one pass walk."""

    __slots__ = ("covered", "yielded", "skipped")

    def __init__(self, tags: Sequence[str]) -> None:
        self.covered = 0
        self.yielded = 0
        self.skipped: Dict[str, int] = {tag: 0 for tag in tags}

    def total_skipped(self) -> int:
        return sum(self.skipped.values())


class SubtreeEnumerator:
    """Subtree-skipping DFS over one pass's candidate space.

    Args:
        radices: domain size per hole position (discovery order).
        matchers: ordered ``(tag, DfsMatcher)`` pairs; on a match the subtree
            is skipped and attributed to the first matching tag (so put the
            failure table before the success table).
        start, end: half-open candidate-index range to walk (defaults to the
            full product); indices follow mixed-radix order with position 0
            most significant.
    """

    def __init__(
        self,
        radices: Sequence[int],
        matchers: Sequence[Tuple[str, DfsMatcher]],
        start: int = 0,
        end: Optional[int] = None,
    ) -> None:
        self.radices = list(radices)
        self.matchers = list(matchers)
        total = product_size(self.radices)
        self.start = max(0, start)
        self.end = total if end is None else min(end, total)
        self.counters = EnumeratorCounters([tag for tag, _m in self.matchers])
        self._weights: List[int] = []
        weight = 1
        for radix in reversed(self.radices):
            self._weights.append(weight)
            weight *= radix
        self._weights.reverse()
        self._digits: List[int] = []

    @property
    def current_path(self) -> Tuple[int, ...]:
        """Digits currently on the DFS path (valid while paused at a yield)."""
        return tuple(self._digits)

    def matched_tag(self) -> Optional[str]:
        """First tag whose matcher currently has a fully-satisfied pattern.

        Call after integrating freshly arrived patterns at a leaf to decide
        whether the about-to-be-dispatched candidate is pruned after all.
        """
        for tag, matcher in self.matchers:
            if matcher.any_matched:
                return tag
        return None

    def note_leaf_skipped(self, tag: str) -> None:
        """Attribute the current (not yielded again) leaf to ``tag``."""
        self.counters.yielded -= 1
        self.counters.skipped[tag] += 1

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        if self.start >= self.end:
            return
        self.counters.covered += self.end - self.start
        if not self.radices:
            # The single empty candidate.
            self.counters.yielded += 1
            yield ()
            return
        yield from self._walk(0, 0)

    def _walk(self, position: int, base_index: int) -> Iterator[Tuple[int, ...]]:
        weight = self._weights[position]
        last = position == len(self.radices) - 1
        for digit in range(self.radices[position]):
            low = base_index + digit * weight
            high = low + weight
            if high <= self.start or low >= self.end:
                continue
            overlap = min(high, self.end) - max(low, self.start)
            # A push also reports patterns a mid-walk integrate left
            # satisfied at a shallower position.
            matched: Optional[str] = None
            for tag, matcher in self.matchers:
                fired = matcher.push(position, digit)
                if fired and matched is None:
                    matched = tag
            self._digits.append(digit)
            if matched is not None:
                self.counters.skipped[matched] += overlap
            elif last:
                self.counters.yielded += 1
                yield tuple(self._digits)
            else:
                yield from self._walk(position + 1, low)
            self._digits.pop()
            for tag, matcher in reversed(self.matchers):
                matcher.pop(position, digit)

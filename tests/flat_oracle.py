"""Flat per-candidate pattern matching, kept as a test oracle.

The engine walks each pass with the subtree-skipping enumerator and its
incremental bitset matcher (:class:`repro.core.pruning.DfsMatcher`).
This module answers the same question the way the paper's lookup table
does, one candidate at a time: it decodes every index of the pass and
scans the live pattern tables for a pattern the candidate satisfies.
A pattern recorded by one candidate's verdict takes effect from the
next candidate on.

:func:`use_flat_matching` swaps :class:`FlatPassWalker` in for the
sequential engine's walker through ``monkeypatch``.  The scan costs one
pass over every stored pattern per candidate: fine for the small
catalog skeletons and fuzz specs, far too slow for msi-small.
"""

from typing import Optional, Sequence, Tuple

import repro.core.engine as engine_module
from repro.core.engine import FAIL_TAG, SUCCESS_TAG
from repro.core.enumeration import EnumeratorCounters
from repro.util.itertools2 import mixed_radix_decode, product_size


def pattern_matches(constraints, digits: Sequence) -> bool:
    """Does the candidate ``digits`` satisfy every ``(position, action)``?

    A position past the end of ``digits``, or holding a wildcard,
    satisfies no constraint.
    """
    return all(
        position < len(digits) and digits[position] == action
        for position, action in constraints
    )


class FlatEnumerator:
    """One pass, every index decoded and matched against the live tables.

    ``tables`` is an ordered list of ``(tag, PruningTable)`` pairs; a
    skipped candidate is attributed to the first table that matches it.
    """

    def __init__(self, radices: Sequence[int], tables, start: int = 0,
                 end: Optional[int] = None) -> None:
        self.radices = list(radices)
        self.tables = list(tables)
        total = product_size(self.radices)
        self.start = max(0, start)
        self.end = total if end is None else min(end, total)
        self.counters = EnumeratorCounters([tag for tag, _table in self.tables])
        self._digits: Tuple[int, ...] = ()

    @property
    def current_path(self) -> Tuple[int, ...]:
        return self._digits

    def matched_tag(self) -> Optional[str]:
        for tag, table in self.tables:
            for pattern in table.all_patterns():
                if pattern_matches(pattern.constraints, self._digits):
                    return tag
        return None

    def note_leaf_skipped(self, tag: str) -> None:
        self.counters.yielded -= 1
        self.counters.skipped[tag] += 1

    def __iter__(self):
        if self.start >= self.end:
            return
        self.counters.covered += self.end - self.start
        for index in range(self.start, self.end):
            self._digits = mixed_radix_decode(index, self.radices)
            matched = self.matched_tag()
            if matched is not None:
                self.counters.skipped[matched] += 1
                continue
            self.counters.yielded += 1
            yield self._digits


class FlatPassWalker:
    """Drop-in for the engine's pass walker, matching candidate by candidate."""

    def __init__(self, core, radices: Sequence[int], start: int = 0,
                 end: Optional[int] = None) -> None:
        tables = []
        if core.config.pruning:
            tables = [(FAIL_TAG, core.fail_table), (SUCCESS_TAG, core.success_table)]
        self.enumerator = FlatEnumerator(radices, tables, start, end)

    def recheck_at_leaf(self) -> Optional[str]:
        # The live tables were scanned when the candidate was yielded.
        return None

    @property
    def counters(self) -> EnumeratorCounters:
        return self.enumerator.counters


def use_flat_matching(monkeypatch) -> None:
    """Make every sequential engine built afterwards walk with the oracle."""
    monkeypatch.setattr(engine_module, "_PassWalker", FlatPassWalker)

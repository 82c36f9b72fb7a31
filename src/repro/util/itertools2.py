"""Mixed-radix counting helpers used by the candidate enumerator.

A candidate configuration assigns one action index to each discovered hole.
Enumerating all configurations is counting in a mixed-radix number system
where digit ``i`` has radix ``len(domain of hole i)``.  The first-discovered
hole is the *most significant* digit, matching the order of the worked
example in Figure 2 of the paper (``<1@A, 2@A>`` precedes ``<1@B, 2@A>``).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple


def product_size(radices: Sequence[int]) -> int:
    """Return the number of values representable with the given radices.

    An empty radix list yields 1 (the single empty assignment).
    """
    size = 1
    for radix in radices:
        if radix <= 0:
            raise ValueError(f"radices must be positive, got {radix}")
        size *= radix
    return size


def mixed_radix_decode(index: int, radices: Sequence[int]) -> Tuple[int, ...]:
    """Decode ``index`` into digits, most significant digit first."""
    if index < 0:
        raise ValueError("index must be non-negative")
    digits = [0] * len(radices)
    remaining = index
    for position in range(len(radices) - 1, -1, -1):
        radix = radices[position]
        digits[position] = remaining % radix
        remaining //= radix
    if remaining:
        raise ValueError(f"index {index} out of range for radices {list(radices)}")
    return tuple(digits)


def mixed_radix_encode(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Inverse of :func:`mixed_radix_decode`."""
    if len(digits) != len(radices):
        raise ValueError("digits and radices must have equal length")
    index = 0
    for digit, radix in zip(digits, radices):
        if not 0 <= digit < radix:
            raise ValueError(f"digit {digit} out of range for radix {radix}")
        index = index * radix + digit
    return index


class MixedRadixCounter:
    """Stateful counter over a mixed-radix digit vector.

    Unlike :func:`itertools.product`, the counter exposes ``skip_suffix``:
    given a digit position, it advances directly past all values sharing the
    current digits up to and including that position, the same move the
    synthesis enumerator makes when it skips a pruned subtree without
    visiting each candidate (docs/architecture.md, "Departures from the
    paper", item 1).
    """

    def __init__(self, radices: Sequence[int]) -> None:
        for radix in radices:
            if radix <= 0:
                raise ValueError(f"radices must be positive, got {radix}")
        self._radices: List[int] = list(radices)
        self._digits: List[int] = [0] * len(radices)
        self._exhausted = not radices and False  # empty vector yields one value
        self._yielded_empty = False

    @property
    def radices(self) -> Tuple[int, ...]:
        return tuple(self._radices)

    @property
    def digits(self) -> Tuple[int, ...]:
        return tuple(self._digits)

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def advance(self) -> None:
        """Advance to the next value (least significant digit first)."""
        self._increment_from(len(self._radices) - 1)

    def skip_suffix(self, position: int) -> None:
        """Skip all values sharing the current digits[0..position] prefix.

        Equivalent to zeroing every digit after ``position`` and then adding
        one at ``position``.
        """
        if not 0 <= position < len(self._radices):
            raise IndexError(f"position {position} out of range")
        for trailing in range(position + 1, len(self._radices)):
            self._digits[trailing] = 0
        self._increment_from(position)

    def _increment_from(self, position: int) -> None:
        if not self._radices:
            self._exhausted = True
            return
        cursor = position
        while cursor >= 0:
            self._digits[cursor] += 1
            if self._digits[cursor] < self._radices[cursor]:
                return
            self._digits[cursor] = 0
            cursor -= 1
        self._exhausted = True

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        if not self._radices:
            if not self._yielded_empty:
                self._yielded_empty = True
                yield ()
            return
        while not self._exhausted:
            yield self.digits
            self.advance()


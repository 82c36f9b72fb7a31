"""Mixed-radix counting helpers used by the candidate enumerator.

A candidate configuration assigns one action index to each discovered hole.
Enumerating all configurations is counting in a mixed-radix number system
where digit ``i`` has radix ``len(domain of hole i)``.  The first-discovered
hole is the *most significant* digit, matching the order of the worked
example in Figure 2 of the paper (``<1@A, 2@A>`` precedes ``<1@B, 2@A>``).
"""

from __future__ import annotations

from typing import Sequence, Tuple


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


"""Small generic utilities shared across the library."""

from repro.util.itertools2 import (
    mixed_radix_decode,
    mixed_radix_encode,
    product_size,
)
from repro.util.timing import Stopwatch

__all__ = [
    "Stopwatch",
    "mixed_radix_decode",
    "mixed_radix_encode",
    "product_size",
]

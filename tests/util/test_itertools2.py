"""Unit and property tests for mixed-radix counting helpers."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.itertools2 import (
    mixed_radix_decode,
    mixed_radix_encode,
    product_size,
)

radices_strategy = st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=5)


class TestProductSize:
    def test_empty(self):
        assert product_size([]) == 1

    def test_simple(self):
        assert product_size([3, 2, 2, 2]) == 24

    def test_msi_small_space(self):
        # The paper's MSI-small naive candidate space.
        assert product_size([5, 7, 3, 5, 7, 3, 3, 7]) == 231_525

    def test_msi_large_space(self):
        assert product_size([5, 7, 3, 5, 7, 3, 3, 7, 3, 7, 3, 7]) == 102_102_525

    def test_wildcard_extended_spaces(self):
        assert product_size([6, 8, 4, 6, 8, 4, 4, 8]) == 1_179_648
        assert product_size([6, 8, 4, 6, 8, 4, 4, 8, 4, 8, 4, 8]) == 1_207_959_552

    def test_rejects_zero_radix(self):
        with pytest.raises(ValueError):
            product_size([3, 0])


class TestEncodeDecode:
    def test_decode_zero(self):
        assert mixed_radix_decode(0, [3, 2]) == (0, 0)

    def test_decode_last(self):
        assert mixed_radix_decode(5, [3, 2]) == (2, 1)

    def test_first_position_most_significant(self):
        # Matches Figure 2's ordering: <1@A,2@A> before <1@B,2@A>.
        assert mixed_radix_decode(2, [3, 2]) == (1, 0)

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            mixed_radix_decode(6, [3, 2])

    def test_encode_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            mixed_radix_encode([3], [3])

    def test_encode_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            mixed_radix_encode([0], [3, 2])

    @given(radices_strategy, st.integers(min_value=0, max_value=10_000))
    def test_roundtrip(self, radices, raw_index):
        total = product_size(radices)
        index = raw_index % total
        digits = mixed_radix_decode(index, radices)
        assert mixed_radix_encode(digits, radices) == index

    @given(radices_strategy)
    def test_decode_matches_itertools_product(self, radices):
        expected = list(itertools.product(*(range(r) for r in radices)))
        actual = [mixed_radix_decode(i, radices) for i in range(product_size(radices))]
        assert actual == expected


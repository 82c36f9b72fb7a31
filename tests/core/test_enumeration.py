"""Tests for candidate enumerators (completeness, ranges, skipping)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumeration import SubtreeEnumerator
from repro.core.pruning import DfsMatcher, PruningPattern, PruningTable
from repro.util.itertools2 import mixed_radix_decode, product_size

from tests.flat_oracle import FlatEnumerator

radices_strategy = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)


class TestSubtreeEnumerator:
    def test_full_walk_without_patterns(self):
        enumerator = SubtreeEnumerator([2, 2], [])
        assert list(enumerator) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert enumerator.counters.covered == 4
        assert enumerator.counters.yielded == 4

    def test_empty_radices_yield_empty_candidate(self):
        enumerator = SubtreeEnumerator([], [])
        assert list(enumerator) == [()]

    def test_range_restriction(self):
        enumerator = SubtreeEnumerator([3, 2], [], start=2, end=5)
        assert list(enumerator) == [(1, 0), (1, 1), (2, 0)]
        assert enumerator.counters.covered == 3

    def test_empty_range(self):
        enumerator = SubtreeEnumerator([3, 2], [], start=4, end=4)
        assert list(enumerator) == []
        assert enumerator.counters.covered == 0

    def test_subtree_skip_counts_whole_subtree(self):
        matcher = DfsMatcher([PruningPattern([(0, 0)])])
        enumerator = SubtreeEnumerator([2, 3], [("fail", matcher)])
        walked = list(enumerator)
        assert walked == [(1, 0), (1, 1), (1, 2)]
        assert enumerator.counters.skipped["fail"] == 3

    def test_skip_clipped_to_range(self):
        # Pattern kills the first digit's subtree (indices 0..2); the range
        # only covers index 1..5, so only 2 of the 3 skipped are counted.
        matcher = DfsMatcher([PruningPattern([(0, 0)])])
        enumerator = SubtreeEnumerator([2, 3], [("fail", matcher)], start=1, end=6)
        walked = list(enumerator)
        assert walked == [(1, 0), (1, 1), (1, 2)]
        assert enumerator.counters.skipped["fail"] == 2
        assert enumerator.counters.covered == 5

    def test_multiple_matchers_priority(self):
        fail = DfsMatcher([PruningPattern([(0, 0)])])
        success = DfsMatcher([PruningPattern([(0, 0)])])  # overlapping
        enumerator = SubtreeEnumerator(
            [2, 2], [("fail", fail), ("success", success)]
        )
        list(enumerator)
        assert enumerator.counters.skipped["fail"] == 2
        assert enumerator.counters.skipped["success"] == 0

    def test_current_path_available_at_yield(self):
        enumerator = SubtreeEnumerator([2, 2], [])
        iterator = iter(enumerator)
        first = next(iterator)
        assert enumerator.current_path == first

    @given(radices_strategy, st.data())
    @settings(max_examples=100, deadline=None)
    def test_range_partition_covers_everything(self, radices, data):
        total = product_size(radices)
        cuts = sorted(data.draw(
            st.lists(st.integers(min_value=0, max_value=total), max_size=3)
        ))
        bounds = [0, *cuts, total]
        collected = []
        for start, end in zip(bounds, bounds[1:]):
            collected.extend(SubtreeEnumerator(radices, [], start, end))
        assert collected == [
            mixed_radix_decode(i, radices) for i in range(total)
        ]


class TestFlatEnumerator:
    """The flat-matching test oracle's enumerator (tests/flat_oracle.py)."""

    def test_full_walk(self):
        enumerator = FlatEnumerator([2, 2], [])
        assert list(enumerator) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_table_matching(self):
        table = PruningTable()
        table.add(PruningPattern([(1, 1)]))
        enumerator = FlatEnumerator([2, 2], [("fail", table)])
        assert list(enumerator) == [(0, 0), (1, 0)]
        assert enumerator.counters.skipped["fail"] == 2

    def test_live_table_updates_take_effect(self):
        # A pattern added mid-iteration prunes later candidates.
        table = PruningTable()
        enumerator = FlatEnumerator([2, 2], [("fail", table)])
        iterator = iter(enumerator)
        assert next(iterator) == (0, 0)
        table.add(PruningPattern([(0, 1)]))
        remaining = list(iterator)
        assert remaining == [(0, 1)]
        assert enumerator.counters.skipped["fail"] == 2

    def test_range(self):
        enumerator = FlatEnumerator([3, 2], [], start=2, end=4)
        assert list(enumerator) == [(1, 0), (1, 1)]

    @given(radices_strategy)
    @settings(max_examples=50, deadline=None)
    def test_matches_subtree_enumerator_without_patterns(self, radices):
        flat = list(FlatEnumerator(radices, []))
        subtree = list(SubtreeEnumerator(radices, []))
        assert flat == subtree

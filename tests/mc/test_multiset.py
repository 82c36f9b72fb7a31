"""Unit and property tests for the immutable multiset (unordered network)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl.network import Message
from repro.mc.multiset import Multiset

elements = st.lists(st.integers(min_value=0, max_value=5), max_size=10)


class TestBasics:
    def test_empty(self):
        bag = Multiset()
        assert len(bag) == 0
        assert not bag
        assert 1 not in bag

    def test_add_and_count(self):
        bag = Multiset(["a"]).add("a").add("b")
        assert bag.count("a") == 2
        assert bag.count("b") == 1
        assert bag.count("c") == 0

    def test_add_is_persistent(self):
        bag = Multiset(["x"])
        bigger = bag.add("x")
        assert len(bag) == 1
        assert len(bigger) == 2

    def test_remove(self):
        bag = Multiset(["a", "a", "b"]).remove("a")
        assert bag.count("a") == 1
        assert bag.count("b") == 1

    def test_remove_last_copy_drops_element(self):
        bag = Multiset(["a"]).remove("a")
        assert "a" not in bag
        assert len(bag) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            Multiset(["a"]).remove("b")

    def test_remove_too_many_raises(self):
        with pytest.raises(KeyError):
            Multiset(["a"]).remove("a", count=2)

    def test_add_remove_zero_is_identity(self):
        bag = Multiset(["a"])
        assert bag.add("a", 0) is bag
        assert bag.remove("a", 0) is bag

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Multiset().add("a", -1)
        with pytest.raises(ValueError):
            Multiset().remove("a", -1)


class TestValueSemantics:
    def test_order_independent_equality(self):
        assert Multiset(["a", "b", "a"]) == Multiset(["b", "a", "a"])

    def test_order_independent_hash(self):
        assert hash(Multiset([3, 1, 2])) == hash(Multiset([2, 3, 1]))

    def test_count_sensitivity(self):
        assert Multiset(["a"]) != Multiset(["a", "a"])

    def test_iteration_yields_all_copies(self):
        assert sorted(Multiset(["b", "a", "a"])) == ["a", "a", "b"]

    def test_distinct(self):
        assert list(Multiset(["b", "a", "a"]).distinct()) == ["a", "b"]

    @given(elements)
    def test_equality_invariant_under_permutation(self, items):
        assert Multiset(items) == Multiset(list(reversed(items)))

    @given(elements, st.integers(min_value=0, max_value=5))
    def test_add_then_remove_roundtrip(self, items, value):
        bag = Multiset(items)
        assert bag.add(value).remove(value) == bag

    @given(elements)
    def test_length_matches_input(self, items):
        assert len(Multiset(items)) == len(items)


class TestTransforms:
    def test_map_renames(self):
        bag = Multiset([("msg", 0), ("msg", 1)])
        renamed = bag.map(lambda item: (item[0], 1 - item[1]))
        assert renamed == Multiset([("msg", 1), ("msg", 0)])

    def test_map_can_merge(self):
        bag = Multiset([1, 2]).map(lambda _x: 0)
        assert bag.count(0) == 2

    def test_repr_mentions_multiplicity(self):
        assert "x2" in repr(Multiset(["a", "a"]))


# -- differential test against the re-sorting implementation -----------------


class _ResortingReference:
    """The pre-incremental multiset: a dict of counts, fully re-sorted by
    ``repr`` (a stable sort) after every update."""

    def __init__(self, items=()):
        counts = {}
        for item in items:
            counts[item] = counts.get(item, 0) + 1
        self.items = self._sorted(counts)

    @staticmethod
    def _sorted(counts):
        return tuple(sorted(counts.items(), key=lambda pair: repr(pair[0])))

    def _with(self, counts):
        new = _ResortingReference()
        new.items = self._sorted(counts)
        return new

    def add(self, item, count=1):
        counts = dict(self.items)
        counts[item] = counts.get(item, 0) + count
        return self if count == 0 else self._with(counts)

    def remove(self, item, count=1):
        counts = dict(self.items)
        have = counts.get(item, 0)
        if have < count:
            raise KeyError(item)
        if count == 0:
            return self
        if have == count:
            del counts[item]
        else:
            counts[item] = have - count
        return self._with(counts)

    def map(self, fn):
        return _ResortingReference(
            element for item, count in self.items for element in [fn(item)] * count
        )


class Twin:
    """Unequal instances that all print the same: their order in a bag is
    decided by the stable sort's tie-break alone."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        if not isinstance(other, Twin):
            return NotImplemented
        return self.tag == other.tag

    def __hash__(self):
        return hash(("twin", self.tag))

    def __repr__(self):
        return "Twin"


ATOMS = [
    0, 1, 2, True, False, "a", "b", "Twin",
    ("a", 0), ("a", 1), (0, "a"),
    Message("Req", 0, -1), Message("Req", 1, -1), Message("Gnt", -1, 0),
    Message("Gnt", -1, 1, 1), Message("Gnt", -1, 1, True),
]
#: drawn as often as all other atoms together, so ties are common
bag_elements = st.one_of(st.sampled_from(ATOMS), st.builds(Twin, st.integers(0, 2)))


def _rename(item):
    if isinstance(item, Message):
        return item.renamed((1, 0))
    if type(item) is int:
        return (item + 1) % 3
    if isinstance(item, tuple) and type(item[1]) is int:
        return (item[0], 1 - item[1])
    if isinstance(item, Twin):
        return Twin((item.tag + 1) % 3)
    return item


MAPS = [
    lambda item: item,
    _rename,
    lambda item: 0,  # collapses everything
    lambda item: "a" if item == "b" else item,  # collapses two elements
    lambda item: Twin(0) if isinstance(item, Twin) else item,
    lambda item: type(item).__name__,
]


operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), bag_elements, st.integers(0, 2)),
        st.tuples(st.just("remove"), bag_elements, st.integers(0, 2)),
        st.tuples(st.just("map"), st.integers(0, len(MAPS) - 1)),
    ),
    max_size=30,
)


def exact(items):
    """``_items`` down to element identity: equal-but-distinct elements
    (``1``/``True``, the Twins) must land in the same slot, not merely
    compare equal."""
    return [(element, type(element), repr(element), count) for element, count in items]


class TestAgainstResortingReference:
    @settings(max_examples=300)
    @given(st.lists(bag_elements, max_size=8), operations)
    def test_random_update_sequences(self, initial, steps):
        bag, reference = Multiset(initial), _ResortingReference(initial)
        assert exact(bag._items) == exact(reference.items)
        for step in steps:
            kind = step[0]
            if kind in ("add", "remove"):
                _kind, item, count = step
                try:
                    expected = getattr(reference, kind)(item, count)
                except KeyError:
                    with pytest.raises(KeyError):
                        getattr(bag, kind)(item, count)
                    continue
                bag, reference = getattr(bag, kind)(item, count), expected
            else:
                bag, reference = bag.map(MAPS[step[1]]), reference.map(MAPS[step[1]])
            assert exact(bag._items) == exact(reference.items), step
            assert hash(bag) == hash(reference.items)

    def test_equal_repr_ties_follow_insertion_order(self):
        bag = Multiset().add(Twin(2)).add(Twin(0)).add("Twin").add(Twin(1))
        # "'Twin'" (the string) sorts first; the Twins keep arrival order
        assert [getattr(item, "tag", item) for item in bag.distinct()] == [
            "Twin", 2, 0, 1,
        ]
        assert exact(bag._items) == exact(
            _ResortingReference([Twin(2), Twin(0), "Twin", Twin(1)]).items
        )

    def test_updates_keep_the_stored_element_of_an_equal_pair(self):
        assert exact(Multiset([1]).add(True)._items) == [(1, int, "1", 2)]
        assert exact(Multiset([1, 1]).remove(True)._items) == [(1, int, "1", 1)]

    def test_map_collapsing_two_elements_sums_their_counts(self):
        bag = Multiset(["b", "a", "b", "c"]).map(
            lambda item: "a" if item == "b" else item
        )
        assert exact(bag._items) == [("a", str, "'a'", 3), ("c", str, "'c'", 1)]

"""Tests for scalarset symmetry reduction."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.mc.multiset import Multiset
from repro.mc.symmetry import Permuter, ScalarSet
from repro.mc.state import state_key


def permute_caches(state, mapping):
    """State shape: (tuple-of-cache-states, owner-or-None, net multiset)."""
    caches, owner, net = state
    new_caches = list(caches)
    for old_index, cache in enumerate(caches):
        new_caches[mapping[old_index]] = cache
    new_owner = None if owner is None else mapping[owner]
    new_net = net.map(lambda msg: (msg[0], mapping[msg[1]]))
    return tuple(new_caches), new_owner, new_net


def make_state(caches, owner, messages):
    return tuple(caches), owner, Multiset(messages)


class TestScalarSet:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ModelError):
            ScalarSet("c", 0)

    def test_permutations_count(self):
        assert len(ScalarSet("c", 3).permutations()) == 6

    def test_identity_first(self):
        assert ScalarSet("c", 3).permutations()[0] == (0, 1, 2)


class TestPermuter:
    @pytest.fixture
    def permuter(self):
        return Permuter.for_single(ScalarSet("cache", 3), permute_caches)

    def test_orbit_size(self, permuter):
        state = make_state(["I", "S", "M"], 2, [("Inv", 0)])
        assert len(permuter.orbit(state)) == 6

    def test_canonical_form_is_orbit_member(self, permuter):
        state = make_state(["M", "I", "S"], 0, [("Data", 2)])
        orbit_keys = {state_key(s) for s in permuter.orbit(state)}
        assert state_key(permuter.canonicalize(state)) in orbit_keys

    def test_canonical_form_invariant_under_permutation(self, permuter):
        state = make_state(["M", "I", "S"], 0, [("Data", 2)])
        canon = permuter.canonicalize(state)
        for mapping in itertools.permutations(range(3)):
            permuted = permute_caches(state, mapping)
            assert permuter.canonicalize(permuted) == canon

    def test_distinct_orbits_stay_distinct(self, permuter):
        one_m = make_state(["M", "I", "I"], 0, [])
        two_m = make_state(["M", "M", "I"], 0, [])
        assert permuter.canonicalize(one_m) != permuter.canonicalize(two_m)

    def test_owner_renamed_consistently(self, permuter):
        # Owner must follow its cache through the permutation.
        state = make_state(["M", "I", "I"], 0, [])
        canon = permuter.canonicalize(state)
        caches, owner, _net = canon
        assert caches[owner] == "M"

    @given(
        st.lists(st.sampled_from(["I", "S", "M"]), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2),
        st.lists(
            st.tuples(st.sampled_from(["Data", "Inv"]), st.integers(0, 2)),
            max_size=3,
        ),
    )
    def test_property_canonical_invariance(self, caches, owner, messages):
        permuter = Permuter.for_single(ScalarSet("cache", 3), permute_caches)
        state = make_state(caches, owner, messages)
        canon = permuter.canonicalize(state)
        for mapping in itertools.permutations(range(3)):
            assert permuter.canonicalize(permute_caches(state, mapping)) == canon


class TestMultipleScalarsets:
    def test_product_group(self):
        # Two independent scalarsets of sizes 2 and 3 -> 2! * 3! = 12 mappings.
        def permute(state, mappings):
            first, second = mappings
            a, b = state
            return (tuple(sorted(first[x] for x in a)), tuple(sorted(second[y] for y in b)))

        permuter = Permuter(
            [ScalarSet("a", 2), ScalarSet("b", 3)],
            permute,
        )
        assert len(permuter.orbit(((0,), (1,)))) == 12

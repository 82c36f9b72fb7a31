"""Tests for the hole registry and resolvers (lazy discovery)."""

import threading

import pytest

from repro.core.action import Action
from repro.core.candidate import CandidateVector
from repro.core.discovery import CandidateResolver, DefaultingResolver, HoleRegistry
from repro.core.hole import Hole
from repro.errors import SynthesisError, WildcardEncountered


def make_hole(name, arity=2):
    return Hole(name, [Action(f"a{i}") for i in range(arity)])


class TestHoleRegistry:
    def test_registers_in_discovery_order(self):
        registry = HoleRegistry()
        first, second = make_hole("h1"), make_hole("h2")
        assert registry.position_of(first) == 0
        assert registry.position_of(second) == 1
        assert registry.holes == (first, second)

    def test_lookup_without_register(self):
        registry = HoleRegistry()
        assert registry.position_of(make_hole("h"), register=False) is None

    def test_repeat_registration_is_stable(self):
        registry = HoleRegistry()
        hole = make_hole("h")
        assert registry.position_of(hole) == 0
        assert registry.position_of(hole) == 0
        assert len(registry) == 1

    def test_duplicate_names_rejected(self):
        registry = HoleRegistry()
        registry.position_of(make_hole("h"))
        with pytest.raises(SynthesisError):
            registry.position_of(make_hole("h"))

    def test_hole_named(self):
        registry = HoleRegistry()
        hole = make_hole("h")
        registry.position_of(hole)
        assert registry.hole_named("h") is hole
        with pytest.raises(KeyError):
            registry.hole_named("missing")

    def test_radices(self):
        registry = HoleRegistry()
        registry.position_of(make_hole("h1", arity=3))
        registry.position_of(make_hole("h2", arity=5))
        assert registry.radices() == (3, 5)

    def test_concurrent_registration_is_consistent(self):
        registry = HoleRegistry()
        holes = [make_hole(f"h{i}") for i in range(50)]
        positions = {}
        lock = threading.Lock()

        def work(chunk):
            for hole in chunk:
                pos = registry.position_of(hole)
                with lock:
                    positions[hole.name] = pos

        threads = [
            threading.Thread(target=work, args=(holes,)) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(registry) == 50
        # Every thread saw the same position per hole.
        assert sorted(positions.values()) == list(range(50))


class TestCandidateResolver:
    def test_resolves_assigned_action(self):
        registry = HoleRegistry()
        hole = make_hole("h")
        resolver = CandidateResolver(registry, CandidateVector.from_digits([1]))
        assert resolver.resolve(hole).name == "a1"

    def test_wildcard_beyond_vector(self):
        registry = HoleRegistry()
        resolver = CandidateResolver(registry, CandidateVector.empty())
        hole = make_hole("h")
        with pytest.raises(WildcardEncountered):
            resolver.resolve(hole)
        # Discovery happened despite the wildcard cut.
        assert registry.holes == (hole,)

    def test_out_of_range_action_rejected(self):
        registry = HoleRegistry()
        hole = make_hole("h", arity=2)
        resolver = CandidateResolver(registry, CandidateVector.from_digits([7]))
        with pytest.raises(SynthesisError):
            resolver.resolve(hole)


class TestDefaultingResolver:
    def test_substitutes_default(self):
        registry = HoleRegistry()
        hole = make_hole("h")
        resolver = DefaultingResolver(registry, CandidateVector.empty())
        assert resolver.resolve(hole).name == "a0"

    def test_respects_assignment(self):
        registry = HoleRegistry()
        hole = make_hole("h")
        resolver = DefaultingResolver(registry, CandidateVector.from_digits([1]))
        assert resolver.resolve(hole).name == "a1"

"""Tests for Action and Hole."""

import pytest

from repro.core.action import Action, action
from repro.core.hole import Hole
from repro.errors import HoleDomainError


class TestAction:
    def test_callable_action(self):
        act = Action("double", fn=lambda x: 2 * x)
        assert act(3) == 6

    def test_marker_action_rejects_call(self):
        act = Action("marker", payload="S")
        with pytest.raises(TypeError):
            act()

    def test_payload(self):
        assert Action("next", payload="M").payload == "M"

    def test_decorator(self):
        @action("inc")
        def inc(x):
            return x + 1

        assert isinstance(inc, Action)
        assert inc.name == "inc"
        assert inc(1) == 2

    def test_requires_name(self):
        with pytest.raises(ValueError):
            Action("")


class TestHole:
    def test_arity(self):
        hole = Hole("h", [Action("a"), Action("b")])
        assert hole.arity == 2

    def test_action_lookup(self):
        hole = Hole("h", [Action("a"), Action("b")])
        assert hole.index_of("b") == 1
        assert hole.index_of("a") == 0

    def test_missing_action(self):
        hole = Hole("h", [Action("a")])
        with pytest.raises(KeyError):
            hole.index_of("z")

    def test_rejects_empty_domain(self):
        with pytest.raises(HoleDomainError):
            Hole("h", [])

    def test_rejects_duplicate_action_names(self):
        with pytest.raises(HoleDomainError):
            Hole("h", [Action("a"), Action("a")])

    def test_rejects_empty_name(self):
        with pytest.raises(HoleDomainError):
            Hole("", [Action("a")])

    def test_identity_semantics(self):
        # Two holes with identical definitions are distinct holes.
        first = Hole("h", [Action("a")])
        second = Hole("h", [Action("a")])
        assert first != second
        assert len({first, second}) == 2

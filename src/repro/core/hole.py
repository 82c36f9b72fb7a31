"""Holes: the unknowns of a protocol skeleton.

A :class:`Hole` is a named slot in a rule body with an ordered, designer-
provided domain of candidate :class:`~repro.core.action.Action` values.
Holes are *symmetry aware* by construction (paper, Section II): the hole
object is defined once at the skeleton level — per controller type, state,
and event — and replicated processes resolve the *same* hole object, so the
synthesiser never replicates holes per process instance.

Holes are compared by identity: two distinct Hole objects are distinct holes
even with equal names (names must still be unique within one skeleton, which
the registry enforces for readable reports).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.action import Action
from repro.errors import HoleDomainError


class Hole:
    """A synthesis hole with an ordered action domain."""

    __slots__ = ("name", "domain")

    def __init__(self, name: str, domain: Sequence[Action]) -> None:
        if not name:
            raise HoleDomainError("hole name must be non-empty")
        if not domain:
            raise HoleDomainError(f"hole {name!r} has an empty action domain")
        names = [a.name for a in domain]
        if len(set(names)) != len(names):
            raise HoleDomainError(f"hole {name!r} has duplicate action names")
        self.name = name
        self.domain: Tuple[Action, ...] = tuple(domain)

    @property
    def arity(self) -> int:
        """Number of candidate actions (excluding the implicit wildcard)."""
        return len(self.domain)

    def index_of(self, name: str) -> int:
        """The domain position of the named action (KeyError if absent)."""
        for index, candidate in enumerate(self.domain):
            if candidate.name == name:
                return index
        raise KeyError(f"hole {self.name!r} has no action named {name!r}")

    def __repr__(self) -> str:
        return f"Hole({self.name!r}, arity={self.arity})"

"""Execution contexts: how rule bodies resolve synthesis holes.

The model checker is usable standalone (complete systems) and embedded in the
synthesis loop (systems with holes).  The difference is the *resolver* the
execution context delegates to:

* :class:`NullResolver` — for complete systems; resolving any hole is an
  error, because a verification-only run should never contain holes.
* :class:`FixedResolver` — maps each hole to a fixed action; used to run a
  hand-completed skeleton or to replay a synthesised solution.
* ``CandidateResolver`` (in :mod:`repro.core.discovery`) — the synthesis
  resolver implementing lazy hole discovery and wildcard semantics.

Every resolver numbers the holes it meets (see :class:`Resolver`), and
the context records executed holes as int bitmasks over those positions.
The synthesis resolvers use the hole registry's discovery positions; the
other two number holes in first-resolve order.

A resolver signals a wildcard assignment by raising
:class:`~repro.errors.WildcardEncountered`; the context records the event so
the explorer can classify the run (UNKNOWN vs SUCCESS) and then lets the
exception propagate to abort the current rule firing.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ModelError, WildcardEncountered

#: digit-table entry for a hole the table cannot resolve: a memo hit
#: gives up there and the real firing raises the resolver's error
UNRESOLVED = object()


def mask_positions(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def holes_at(holes: Sequence[Any], mask: int) -> FrozenSet[Any]:
    """The holes of a position-indexed sequence selected by ``mask``."""
    return frozenset(holes[position] for position in mask_positions(mask))


class Resolver:
    """What the context and the packed runtime's firing memo ask of a resolver.

    * ``space`` — the position space (identity-compared): the registry,
      or the resolver itself;
    * ``position_of(hole)`` — the hole's position, numbering it if new;
    * ``digits`` and ``beyond`` — the digit table a firing-memo hit
      reads: ``digits[p]`` (``beyond`` past the end) is position ``p``'s
      memo edge key, ``None`` for a wildcard cut, or :data:`UNRESOLVED`
      to send the hit back to a real firing;
    * ``entry(hole, position)`` — ``(digit, action)`` for a resolution,
      or the exception a real firing must raise;
    * ``holes_in(mask)`` — the hole objects at a mask's positions.
    """

    space: Any
    digits: Sequence[Any]
    beyond: Any = UNRESOLVED

    def position_of(self, hole: Any) -> int:
        raise NotImplementedError

    def entry(self, hole: Any, position: int) -> Tuple[Any, Any]:
        raise NotImplementedError

    def holes_in(self, mask: int) -> FrozenSet[Any]:
        raise NotImplementedError

    def resolve(self, hole: Any) -> Any:
        """The action for ``hole`` (raising as :meth:`entry` does)."""
        return self.entry(hole, self.position_of(hole))[1]


class _FirstResolveNumbering(Resolver):
    """Position space of resolvers without a registry: first-resolve order."""

    def __init__(self) -> None:
        self.space = self
        self._holes: List[Any] = []
        self._positions: Dict[Any, int] = {}
        self.digits: List[Any] = []

    def _digit(self, hole: Any) -> Any:
        raise NotImplementedError

    def position_of(self, hole: Any) -> int:
        """The hole's first-resolve position (numbered on first sight)."""
        position = self._positions.get(hole)
        if position is None:
            position = len(self._holes)
            self._positions[hole] = position
            self._holes.append(hole)
            self.digits.append(self._digit(hole))
        return position

    def holes_in(self, mask: int) -> FrozenSet[Any]:
        """The hole objects at ``mask``'s positions."""
        return holes_at(self._holes, mask)


class NullResolver(_FirstResolveNumbering):
    """Resolver for hole-free systems: any hole resolution is a bug."""

    def _digit(self, hole: Any) -> Any:
        return UNRESOLVED

    def entry(self, hole: Any, position: int) -> Tuple[Any, Any]:
        """Reject any resolution: complete systems have no holes."""
        raise ModelError(
            f"hole {hole!r} resolved during a verification-only run; "
            "use FixedResolver or the synthesis engine for systems with holes"
        )


class FixedResolver(_FirstResolveNumbering):
    """Resolve holes from a fixed mapping (replay a complete assignment).

    ``assignment`` maps hole objects (or hole names) to actions.  A missing
    hole raises :class:`~repro.errors.WildcardEncountered` when ``strict`` is
    False (treat-missing-as-wildcard, useful for partial replays) and
    :class:`~repro.errors.ModelError` when ``strict`` is True.
    """

    def __init__(self, assignment: Dict[Any, Any], strict: bool = True) -> None:
        super().__init__()
        self._assignment = dict(assignment)
        self._strict = strict

    def _action(self, hole: Any) -> Optional[Any]:
        if hole in self._assignment:
            return self._assignment[hole]
        name = getattr(hole, "name", None)
        if name is not None and name in self._assignment:
            return self._assignment[name]
        return None

    def _digit(self, hole: Any) -> Any:
        action = self._action(hole)
        if action is None:
            return UNRESOLVED if self._strict else None
        for index, candidate in enumerate(getattr(hole, "domain", ())):
            if candidate is action:
                return index
        return action  # an action from outside the domain keys its own edge

    def entry(self, hole: Any, position: int) -> Tuple[Any, Any]:
        """``(digit, action)`` from the fixed assignment (see the class docs)."""
        action = self._action(hole)
        if action is not None:
            return self.digits[position], action
        if self._strict:
            raise ModelError(f"no action assigned for hole {hole!r}")
        raise WildcardEncountered(str(getattr(hole, "name", None) or hole))


class ExecutionContext:
    """Per-run bookkeeping shared between the explorer and rule bodies.

    Rule bodies call :meth:`resolve` to obtain the action currently assigned
    to a hole.  The context tracks, per rule firing and for the whole run,
    the executed holes (as position masks, ``firing_executed`` and
    ``run_executed``) and whether a wildcard cut occurred; the explorer
    uses the per-firing data for deadlock classification and hole-path
    tracking.  The packed runtime's firing memo sets the same fields on a
    memo hit without running the rule body.
    """

    __slots__ = (
        "resolver",
        "run_wildcard_encountered",
        "run_executed",
        "firing_executed",
        "firing_hit_wildcard",
        "_record",
    )

    def __init__(self, resolver: Any = None) -> None:
        self.resolver = resolver if resolver is not None else NullResolver()
        self.run_wildcard_encountered: bool = False
        #: position mask of every hole resolved during the run
        self.run_executed: int = 0
        #: position mask of the holes resolved during the current firing
        self.firing_executed: int = 0
        #: whether the current firing hit a wildcard
        self.firing_hit_wildcard: bool = False
        self._record: Optional[list] = None

    def begin_firing(self) -> None:
        """Reset per-firing tracking before a rule body runs."""
        self.firing_executed = 0
        self.firing_hit_wildcard = False

    @property
    def firing_executed_holes(self) -> FrozenSet[Any]:
        """Holes resolved during the current rule firing."""
        return self.resolver.holes_in(self.firing_executed)

    @property
    def run_executed_holes(self) -> FrozenSet[Any]:
        """Holes resolved during the run."""
        return self.resolver.holes_in(self.run_executed)

    def begin_recording(self) -> None:
        """Start capturing this firing's hole-resolution path.

        Used by the packed runtime's firing memo: the recorded
        ``(hole, position, digit)`` sequence — ending in a ``None`` digit
        if the firing hit a wildcard — keys the memoised successors.
        """
        self._record = []

    def end_recording(self) -> list:
        """Stop recording and return the captured resolution path."""
        record, self._record = self._record, None
        return record

    def resolve(self, hole: Any) -> Any:
        """Resolve ``hole`` to its currently assigned action.

        Raises :class:`~repro.errors.WildcardEncountered` (after recording
        the event) if the assignment is the wildcard; rule bodies must let
        the exception propagate.
        """
        resolver = self.resolver
        position = resolver.position_of(hole)
        try:
            digit, action = resolver.entry(hole, position)
        except WildcardEncountered:
            self.firing_hit_wildcard = True
            self.run_wildcard_encountered = True
            if self._record is not None:
                self._record.append((hole, position, None))
            raise
        bit = 1 << position
        self.firing_executed |= bit
        self.run_executed |= bit
        if self._record is not None:
            self._record.append((hole, position, digit))
        return action

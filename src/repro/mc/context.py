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

A resolver signals a wildcard assignment by raising
:class:`~repro.errors.WildcardEncountered`; the context records the event so
the explorer can classify the run (UNKNOWN vs SUCCESS) and then lets the
exception propagate to abort the current rule firing.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Set

from repro.errors import ModelError, WildcardEncountered


class NullResolver:
    """Resolver for hole-free systems: any hole resolution is a bug."""

    def resolve(self, hole: Any) -> Any:
        """Reject any resolution: complete systems have no holes."""
        raise ModelError(
            f"hole {hole!r} resolved during a verification-only run; "
            "use FixedResolver or the synthesis engine for systems with holes"
        )


class FixedResolver:
    """Resolve holes from a fixed mapping (replay a complete assignment).

    ``assignment`` maps hole objects (or hole names) to actions.  A missing
    hole raises :class:`~repro.errors.WildcardEncountered` when ``strict`` is
    False (treat-missing-as-wildcard, useful for partial replays) and
    :class:`~repro.errors.ModelError` when ``strict`` is True.
    """

    def __init__(self, assignment: Dict[Any, Any], strict: bool = True) -> None:
        self._assignment = dict(assignment)
        self._strict = strict

    def resolve(self, hole: Any) -> Any:
        """Resolve from the fixed assignment (see the class docs)."""
        if hole in self._assignment:
            return self._assignment[hole]
        name = getattr(hole, "name", None)
        if name is not None and name in self._assignment:
            return self._assignment[name]
        if self._strict:
            raise ModelError(f"no action assigned for hole {hole!r}")
        raise WildcardEncountered(str(name or hole))


class ExecutionContext:
    """Per-run bookkeeping shared between the explorer and rule bodies.

    Rule bodies call :meth:`resolve` to obtain the action currently assigned
    to a hole.  The context tracks, per rule firing and for the whole run,
    which holes were executed and whether a wildcard cut occurred; the
    explorer uses the per-firing data for deadlock classification and
    (optionally) hole-path tracking for conflict generalisation.
    """

    __slots__ = (
        "_resolver",
        "run_wildcard_encountered",
        "run_executed_holes",
        "_firing_executed",
        "_firing_wildcard",
        "_recording",
        "_record",
    )

    def __init__(self, resolver: Any = None) -> None:
        self._resolver = resolver if resolver is not None else NullResolver()
        self.run_wildcard_encountered: bool = False
        self.run_executed_holes: Set[Any] = set()
        self._firing_executed: Set[Any] = set()
        self._firing_wildcard: bool = False
        self._recording: bool = False
        self._record: list = []

    def begin_firing(self) -> None:
        """Reset per-firing tracking; called by the explorer before each rule."""
        self._firing_executed = set()
        self._firing_wildcard = False

    @property
    def firing_executed_holes(self) -> FrozenSet[Any]:
        """Holes resolved during the current rule firing."""
        return frozenset(self._firing_executed)

    @property
    def firing_hit_wildcard(self) -> bool:
        """Whether the current firing hit a wildcard."""
        return self._firing_wildcard

    def begin_recording(self) -> None:
        """Start capturing this firing's hole-resolution path.

        Used by the packed runtime's firing memo: the recorded
        ``(hole, action)`` sequence — with a trailing ``(hole, None)`` if
        the firing hit a wildcard — keys the memoised successors.
        """
        self._recording = True
        self._record = []

    def end_recording(self) -> list:
        """Stop recording and return the captured resolution path."""
        self._recording = False
        record, self._record = self._record, []
        return record

    def resolve(self, hole: Any) -> Any:
        """Resolve ``hole`` to its currently assigned action.

        Raises :class:`~repro.errors.WildcardEncountered` (after recording
        the event) if the assignment is the wildcard; rule bodies must let
        the exception propagate.
        """
        try:
            action = self._resolver.resolve(hole)
        except WildcardEncountered:
            self._firing_wildcard = True
            self.run_wildcard_encountered = True
            if self._recording:
                self._record.append((hole, None))
            raise
        self._firing_executed.add(hole)
        self.run_executed_holes.add(hole)
        if self._recording:
            self._record.append((hole, action))
        return action

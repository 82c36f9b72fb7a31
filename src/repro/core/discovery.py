"""Lazy hole discovery and candidate-driven hole resolution.

The paper: "initially, no holes are known to the synthesis procedure, i.e.
holes are discovered lazily. Upon model checking, any newly encountered hole
is registered and the default action substituted" — where with pruning
enabled the default action is the wildcard, cutting the execution branch.

:class:`HoleRegistry` is the "global candidate vector" of the paper's
parallel-synthesis section: a thread-safe, append-only, discovery-ordered
registry of holes.  Reads (the common case: look up an already-discovered
hole's position) are lock-free — a deliberate mirror of the paper's
lock-free hot path; only first-time registration takes the lock.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.action import Action
from repro.core.candidate import WILDCARD, CandidateVector
from repro.core.hole import Hole
from repro.errors import SynthesisError, WildcardEncountered
from repro.mc.context import Resolver, holes_at


class HoleRegistry:
    """Append-only, discovery-ordered registry of holes (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holes: List[Hole] = []
        self._positions: Dict[Hole, int] = {}
        self._names: Dict[str, Hole] = {}
        #: names whose slot holds a *placeholder* awaiting its real hole
        self._reserved: set = set()

    def reserve(self, hole: Hole) -> int:
        """Reserve a position for a hole known only by name/arity.

        Placeholder holes come from outside this process (a worker's
        :class:`~repro.dist.messages.HoleSpec`, a verdict-store replay):
        they carry the right name, arity, and action names but no
        executable actions.  The first *real* hole registered under the
        same name binds into the reserved slot (see :meth:`position_of`),
        keeping positions stable.  Reserving an already-known name is a
        no-op returning the existing position.
        """
        with self._lock:
            existing = self._names.get(hole.name)
            if existing is not None:
                return self._positions[existing]
            position = len(self._holes)
            self._holes.append(hole)
            self._positions[hole] = position
            self._names[hole.name] = hole
            self._reserved.add(hole.name)
            return position

    def position_of(self, hole: Hole, register: bool = True) -> Optional[int]:
        """Return the discovery position of ``hole``.

        With ``register=True`` (the resolver's mode), an unknown hole is
        appended and its new position returned — or, if the name has a
        reserved placeholder slot, bound into that slot; with
        ``register=False`` an unknown hole yields ``None``.
        """
        position = self._positions.get(hole)  # lock-free fast path
        if position is not None or not register:
            return position
        with self._lock:
            position = self._positions.get(hole)
            if position is not None:
                return position
            existing = self._names.get(hole.name)
            if existing is not None:
                if hole.name not in self._reserved:
                    raise SynthesisError(
                        f"two distinct holes share the name {hole.name!r}"
                    )
                if hole.arity != existing.arity:
                    raise SynthesisError(
                        f"hole {hole.name!r} has arity {hole.arity} here but "
                        f"{existing.arity} in its reserved slot — the rebuilt "
                        f"skeleton does not match the reservation source"
                    )
                position = self._positions[existing]
                del self._positions[existing]
                self._holes[position] = hole
                self._positions[hole] = position
                self._names[hole.name] = hole
                self._reserved.discard(hole.name)
                return position
            position = len(self._holes)
            self._holes.append(hole)
            self._positions[hole] = position
            self._names[hole.name] = hole
            return position

    @property
    def holes(self) -> Tuple[Hole, ...]:
        """Snapshot of discovered holes in discovery order."""
        with self._lock:
            return tuple(self._holes)

    def names(self) -> Tuple[str, ...]:
        """Hole names in discovery order.

        Names are the cross-process correlation key of the distributed
        backend: hole *objects* are identity-compared and process-local,
        so a worker's rebuilt holes map onto the coordinator's canonical
        positions by name (see :class:`repro.dist.worker.WorkerHoleRegistry`).
        """
        with self._lock:
            return tuple(hole.name for hole in self._holes)

    def hole_named(self, name: str) -> Hole:
        """The registered hole with this name (KeyError if none)."""
        hole = self._names.get(name)
        if hole is None:
            raise KeyError(f"no discovered hole named {name!r}")
        return hole

    def __len__(self) -> int:
        return len(self._holes)

    def radices(self) -> Tuple[int, ...]:
        """Domain sizes of discovered holes, discovery order."""
        with self._lock:
            return tuple(hole.arity for hole in self._holes)


class _RegistryResolver(Resolver):
    """A resolver over the registry's discovery positions and a candidate.

    ``digits`` is the candidate's action indices with wildcard entries
    mapped to ``beyond``, which positions past the vector read too.
    """

    #: digit for wildcard entries and positions past the vector: ``None``
    #: cuts the branch, an action index substitutes that action
    beyond: Optional[int] = None

    def __init__(self, registry: HoleRegistry, vector: CandidateVector) -> None:
        self._registry = registry
        self.space = registry
        beyond = self.beyond
        self.digits: Tuple[Optional[int], ...] = tuple(
            beyond if entry is WILDCARD else entry for entry in vector.entries
        )

    def position_of(self, hole: Hole) -> int:
        """The hole's discovery position (registering a new hole)."""
        return self._registry.position_of(hole, register=True)

    def entry(self, hole: Hole, position: int) -> Tuple[int, Action]:
        """``(action index, action)`` for the hole at ``position``."""
        digits = self.digits
        digit = digits[position] if position < len(digits) else self.beyond
        if digit is None:
            raise WildcardEncountered(hole.name)
        if digit >= hole.arity:
            raise SynthesisError(
                f"candidate assigns action index {digit} to hole {hole.name!r} "
                f"with arity {hole.arity}"
            )
        return digit, hole.domain[digit]

    def holes_in(self, mask: int) -> FrozenSet[Hole]:
        """The registered holes at ``mask``'s positions."""
        return holes_at(self._registry.holes, mask)


class DefaultingResolver(_RegistryResolver):
    """Naive-mode resolver: unassigned holes get a default action, not a cut.

    This reproduces the paper's behaviour *without* candidate pruning: "any
    newly encountered hole is registered and the default action substituted,
    such that the model checker may continue on the current branch of
    execution".  The default is each hole's first action (index 0), so
    skeletons should order a benign action first.
    """

    beyond = 0


class CandidateResolver(_RegistryResolver):
    """Resolve holes against a candidate vector, discovering new holes.

    Holes at positions beyond the vector — or at positions the vector marks
    as wildcards — raise :class:`~repro.errors.WildcardEncountered`, which
    the model checker interprets as "abort this execution branch".
    """

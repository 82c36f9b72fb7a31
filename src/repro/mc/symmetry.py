"""Scalarset symmetry reduction (Ip & Dill style).

Replicated processes (e.g. the cache controllers in the MSI case study) are
interchangeable: any permutation of their indices maps reachable states to
reachable states.  Exploring one representative per permutation orbit shrinks
the state space by up to ``n!`` for ``n`` replicas.  The paper stresses that
realising symmetry reduction is *straightforward* in an explicit-state tool
(unlike symbolic ones) — and indeed this module is small.

The user supplies a ``permute(state, mapping)`` function that renames every
occurrence of a scalarset index inside a state according to ``mapping``
(a tuple where ``mapping[old] == new``).  :class:`Permuter` then
canonicalises a state to a deterministic orbit representative.

Exploration itself canonicalises on the packed runtime
(:mod:`repro.mc.packed`), which memoises one canonical id per interned
state.  The object canonicaliser installed on a system
(``permuter.canonicalize``) has two jobs: it is the fingerprint authority,
and for systems without a codec it is the derived whole-state codec's
canonical step.

**Sorted-replica fast path.**  When the model supplies ``replica_keys``
— a function projecting the state onto one orderable key per replica,
invariant under renaming of the *other* replicas — and those keys are
pairwise distinct, sorting replicas by key yields the orbit
representative with a single ``permute`` call instead of ``n!`` of them.
Key distinctness is an orbit invariant, so every member of an orbit
takes the same path and lands on the same representative; ties fall
back to the full orbit search.  The representatives it picks fix the
msi-family fingerprint values.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.mc.state import state_key

PermuteFn = Callable[[Any, Tuple[int, ...]], Any]
#: projects a state onto one orderable key per replica (see Permuter docs)
ReplicaKeysFn = Callable[[Any], Sequence[Any]]


class ScalarSet:
    """A named finite index set whose elements are interchangeable."""

    __slots__ = ("name", "size", "_perms")

    def __init__(self, name: str, size: int) -> None:
        if size <= 0:
            raise ModelError(f"scalarset {name!r} must have positive size")
        self.name = name
        self.size = size
        self._perms: Optional[List[Tuple[int, ...]]] = None

    def indices(self) -> range:
        """The index range of this scalarset."""
        return range(self.size)

    def permutations(self) -> List[Tuple[int, ...]]:
        """All permutation mappings of this scalarset (identity first).

        Precomputed once per scalarset and reused; callers must not mutate
        the returned list.
        """
        if self._perms is None:
            self._perms = sorted(itertools.permutations(range(self.size)))
        return self._perms

    def __repr__(self) -> str:
        return f"ScalarSet({self.name!r}, size={self.size})"


class Permuter:
    """Canonicalises states to a deterministic orbit representative.

    Without ``replica_keys`` the representative is the lexicographically-
    minimal orbit member under :func:`~repro.mc.state.state_key`.  With
    ``replica_keys`` (single-scalarset only), orbits whose replica keys
    are pairwise distinct use the sorted-replica fast path instead, whose
    representative is equally deterministic and orbit-consistent but not
    necessarily the ``state_key`` minimum.

    ``replica_keys(state)`` must return one orderable key per replica
    index such that ``keys(permute(state, m))[m[i]] == keys(state)[i]``
    — i.e. each key captures everything about replica ``i`` (local state,
    relations like "is the owner", messages addressed to it) in a form
    invariant under renaming of the other replicas.

    For multiple scalarsets, supply one ``permute`` function that accepts a
    mapping per scalarset: ``permute(state, mappings)`` where ``mappings`` is
    a tuple aligned with ``scalarsets``.  For the common single-scalarset
    case, use :meth:`for_single` which adapts a one-mapping function.
    """

    def __init__(
        self,
        scalarsets: Sequence[ScalarSet],
        permute: Callable[[Any, Tuple[Tuple[int, ...], ...]], Any],
        replica_keys: Optional[ReplicaKeysFn] = None,
    ) -> None:
        if not scalarsets:
            raise ModelError("Permuter requires at least one scalarset")
        if replica_keys is not None and len(scalarsets) != 1:
            raise ModelError(
                "the sorted-replica fast path supports a single scalarset"
            )
        self.scalarsets = list(scalarsets)
        self._permute = permute
        self._replica_keys = replica_keys
        self._mappings: List[Tuple[Tuple[int, ...], ...]] = [
            combo
            for combo in itertools.product(
                *(s.permutations() for s in self.scalarsets)
            )
        ]
        #: diagnostics: canonicalisations served by the fast path / by the
        #: full orbit search
        self.fast_path_hits = 0
        self.full_orbit_scans = 0

    @classmethod
    def for_single(
        cls,
        scalarset: ScalarSet,
        permute: PermuteFn,
        replica_keys: Optional[ReplicaKeysFn] = None,
    ) -> "Permuter":
        """Adapt a single-scalarset permute function."""
        return cls(
            [scalarset],
            lambda state, mappings: permute(state, mappings[0]),
            replica_keys=replica_keys,
        )

    def orbit(self, state: Any) -> List[Any]:
        """All images of ``state`` under the permutation group (with dups)."""
        return [self._permute(state, mappings) for mappings in self._mappings]

    def canonicalize(self, state: Any) -> Any:
        """Return this orbit's deterministic representative."""
        if self._replica_keys is not None:
            keys = self._replica_keys(state)
            order = sorted(range(len(keys)), key=keys.__getitem__)
            distinct = all(
                keys[order[i]] != keys[order[i + 1]] for i in range(len(order) - 1)
            )
            if distinct:
                self.fast_path_hits += 1
                mapping = [0] * len(order)
                for rank, old_index in enumerate(order):
                    mapping[old_index] = rank
                if mapping == list(range(len(order))):
                    return state
                return self._permute(state, (tuple(mapping),))
        self.full_orbit_scans += 1
        best = state
        best_key = state_key(state)
        for mappings in self._mappings[1:]:  # mappings[0] is the identity
            candidate = self._permute(state, mappings)
            candidate_key = state_key(candidate)
            if candidate_key < best_key:
                best = candidate
                best_key = candidate_key
        return best

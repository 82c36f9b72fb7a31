"""Transition system definitions.

A :class:`TransitionSystem` bundles everything the explorer needs: initial
states, guarded-command rules, properties, a deadlock policy, an optional
canonicalisation function (supplied by :mod:`repro.mc.symmetry` when symmetry
reduction is enabled), and an optional packed-state codec.  The
expressiveness matches what the paper describes: "any guarded-command style
finite-state transition system (similar in expressiveness to Murphi)".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from repro.errors import ModelError
from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
from repro.mc.rule import Rule

if TYPE_CHECKING:
    from repro.mc.packed import PackedRuntime, PackedSpec

Canonicalizer = Callable[[Any], Any]


class TransitionSystem:
    """A guarded-command transition system with properties.

    Args:
        name: human-readable system name (appears in reports).
        initial_states: the (non-empty) collection of initial states, or a
            zero-argument callable producing it.
        rules: the guarded-command rules; order is significant because hole
            discovery order follows rule order.
        invariants: per-state safety predicates.
        coverage: existential reachability predicates.
        deadlock: policy for terminal states (default: fail on deadlock, the
            appropriate default for protocols).
        canonicalize: maps a state to its symmetry-orbit representative;
            identity when symmetry reduction is off.  It is the
            fingerprint authority (``fingerprint_visited``) in every case.
        packed_spec: optional :class:`~repro.mc.packed.PackedSpec` giving
            the system a fixed-layout state codec.

    Which canonicaliser governs exploration: the codec's table-driven
    orbit minimum when ``packed_spec`` is set, and otherwise the codec
    :meth:`packed_runtime` derives from ``canonicalize`` (a
    :class:`~repro.mc.packed.WholeStateCodec`).
    """

    def __init__(
        self,
        name: str,
        initial_states: Any,
        rules: Sequence[Rule],
        invariants: Sequence[Invariant] = (),
        coverage: Sequence[CoverageProperty] = (),
        deadlock: Optional[DeadlockPolicy] = None,
        canonicalize: Optional[Canonicalizer] = None,
        packed_spec: Optional[PackedSpec] = None,
    ) -> None:
        if not name:
            raise ModelError("system name must be non-empty")
        if not rules:
            raise ModelError("a transition system needs at least one rule")
        self.name = name
        self._initial_states = initial_states
        self.rules: List[Rule] = list(rules)
        self.invariants: List[Invariant] = list(invariants)
        self.coverage: List[CoverageProperty] = list(coverage)
        self.deadlock = deadlock if deadlock is not None else DeadlockPolicy.fail()
        self.canonicalize: Canonicalizer = canonicalize or (lambda state: state)
        self.packed_spec = packed_spec
        self._derived_spec: Optional[PackedSpec] = None
        seen = set()
        for rule in self.rules:
            if rule.name in seen:
                raise ModelError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)

    def initial_states(self) -> List[Any]:
        """Materialise the (non-empty) initial states."""
        states = self._initial_states() if callable(self._initial_states) else self._initial_states
        states = list(states)
        if not states:
            raise ModelError(f"system {self.name!r} has no initial states")
        return states

    def packed_runtime(self) -> PackedRuntime:
        """The :class:`~repro.mc.packed.PackedRuntime` every kernel runs on.

        Without a ``packed_spec`` the whole-state codec is derived on
        first use and kept on this object, so the runtime and its memos
        survive across runs, including for a system whose
        ``packed_spec`` was cleared after construction.
        """
        spec = self.packed_spec
        if spec is None:
            spec = self._derived_spec
            if spec is None:
                # Imported on first use, so ``import repro`` does not load
                # the packed module; systems with a codec built it already.
                from repro.mc.packed import PackedSpec, WholeStateCodec

                canonicalize = self.canonicalize
                spec = PackedSpec(lambda: WholeStateCodec(canonicalize))
                self._derived_spec = spec
        return spec.runtime(self)

    def __repr__(self) -> str:
        return (
            f"TransitionSystem({self.name!r}, rules={len(self.rules)}, "
            f"invariants={len(self.invariants)}, coverage={len(self.coverage)})"
        )

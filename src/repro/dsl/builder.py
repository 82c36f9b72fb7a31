"""Declarative protocol construction.

A protocol is described as one or more *controllers*:

* a **replicated** controller runs one copy per process index (cache
  controllers, lock clients, ...); its transitions are expanded over every
  index and are symmetry-aware;
* a **global** controller runs a single copy (a directory, a lock server);
  by convention it has process id ``GLOBAL`` (-1).

Each controller is a table of :class:`Transition` entries keyed by
``(local_state, event)``.  An event is either ``spontaneous`` (always
offered when the local state matches — think "the CPU issues a store") or a
message type received from the network.  Handlers receive a mutable
:class:`StateView`, the process index, and the execution context through
which synthesis holes are resolved.

The builder compiles the controllers into a
:class:`~repro.mc.system.TransitionSystem` whose states are::

    (procs: ProcessArray, glob: Any, net: UnorderedNetwork)

with canonicalisation over all process permutations (opt-out available).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.dsl.network import Message, UnorderedNetwork
from repro.dsl.process import ProcessArray
from repro.errors import ModelError
from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
from repro.mc.rule import Rule
from repro.mc.symmetry import Permuter, ScalarSet
from repro.mc.system import TransitionSystem

#: process id of a global (non-replicated) controller
GLOBAL = -1

DslState = Tuple[ProcessArray, Any, UnorderedNetwork]


class StateView:
    """Mutable scratch copy of a DSL state, used inside one rule firing."""

    __slots__ = ("procs", "glob", "net")

    def __init__(self, state: DslState) -> None:
        procs, glob, net = state
        self.procs = list(procs)
        self.glob = glob
        self.net = net

    def local(self, index: int) -> Any:
        """The local state of process ``index``."""
        return self.procs[index]

    def become(self, index: int, new_state: Any) -> None:
        """Replace process ``index``'s local state."""
        self.procs[index] = new_state

    def send(self, mtype: str, src: int, dst: int, payload: Any = None) -> None:
        """Put a message in flight."""
        self.net = self.net.send(Message(mtype, src, dst, payload))

    def freeze(self) -> DslState:
        """Back to the immutable DSL state tuple."""
        return (ProcessArray(tuple(self.procs)), self.glob, self.net)


#: handler signature: (view, proc_index, execution_context, message_or_None).
#: ``proc_index`` is the controller instance executing the transition
#: (``GLOBAL`` for a global controller); for message events the consumed
#: message (with its ``src``) is passed as the fourth argument.
Handler = Callable[[StateView, int, Any, Optional[Message]], None]
#: optional payload/extra guard on a message transition
MessageGuard = Callable[[DslState, Message], bool]


@dataclass(frozen=True)
class Transition:
    """One controller table entry."""

    state: Any
    event: str
    handler: Handler
    spontaneous: bool = False
    message_guard: Optional[MessageGuard] = None


class ControllerSpec:
    """A named controller: a set of transitions over local states."""

    def __init__(self, name: str, replicated: bool = True) -> None:
        if not name:
            raise ModelError("controller name must be non-empty")
        self.name = name
        self.replicated = replicated
        self.transitions: List[Transition] = []
        self._keys: set = set()

    def on(
        self,
        state: Any,
        event: str,
        handler: Handler,
        spontaneous: bool = False,
        message_guard: Optional[MessageGuard] = None,
    ) -> "ControllerSpec":
        """Register a transition; returns self for chaining."""
        key = (state, event)
        if key in self._keys:
            raise ModelError(f"duplicate transition {key} in controller {self.name!r}")
        self._keys.add(key)
        self.transitions.append(
            Transition(state, event, handler, spontaneous, message_guard)
        )
        return self


class ProtocolBuilder:
    """Accumulates controllers and properties; compiles a TransitionSystem."""

    def __init__(
        self,
        name: str,
        n_procs: int,
        initial_local: Any,
        initial_global: Any = None,
        symmetry: bool = True,
    ) -> None:
        if n_procs < 1:
            raise ModelError("n_procs must be >= 1")
        self.name = name
        self.n_procs = n_procs
        self.initial_local = initial_local
        self.initial_global = initial_global
        self.symmetry = symmetry
        self._controllers: List[ControllerSpec] = []
        self._invariants: List[Invariant] = []
        self._coverage: List[CoverageProperty] = []
        self._deadlock: DeadlockPolicy = DeadlockPolicy.fail()
        self._global_rename: Optional[Callable[[Any, Tuple[int, ...]], Any]] = None
        self._global_schema: Any = None

    def add_controller(self, spec: ControllerSpec) -> "ProtocolBuilder":
        """Register a controller; returns self for chaining."""
        self._controllers.append(spec)
        return self

    def add_invariant(self, name: str, predicate) -> "ProtocolBuilder":
        """Add a named safety predicate; returns self."""
        self._invariants.append(Invariant(name, predicate))
        return self

    def add_coverage(self, name: str, predicate) -> "ProtocolBuilder":
        """Add a named coverage predicate; returns self."""
        self._coverage.append(CoverageProperty(name, predicate))
        return self

    def set_deadlock_policy(self, policy: DeadlockPolicy) -> "ProtocolBuilder":
        """Set the terminal-state policy; returns self."""
        self._deadlock = policy
        return self

    def set_global_rename(self, rename) -> "ProtocolBuilder":
        """How to rename process ids inside the global state (for symmetry).

        ``rename(glob, mapping) -> glob``.  Required when the global state
        references process indices and symmetry is enabled (unless a
        global schema is set, whose field renames then apply).
        """
        self._global_rename = rename
        return self

    def set_global_schema(self, schema) -> "ProtocolBuilder":
        """Declare the global state's :class:`~repro.dsl.fields.Schema`.

        The schema's typed fields (``IdField``/``IdSetField`` rename
        hooks) give every global location a known finite domain, which
        lets :meth:`build` compile a fully table-driven packed-state
        codec (:mod:`repro.mc.packed`) instead of treating the global
        record as one opaque atom.  When no explicit global rename was
        set, ``schema.rename`` also becomes the object permuter's rename, so
        both layers share one source of truth.
        """
        self._global_schema = schema
        return self

    # -- compilation -------------------------------------------------------

    def _initial_state(self) -> DslState:
        return (
            ProcessArray.uniform(self.initial_local, self.n_procs),
            self.initial_global,
            UnorderedNetwork(),
        )

    def _make_rule(self, spec: ControllerSpec, transition: Transition,
                   proc: int) -> Rule:
        label = f"{spec.name}{'' if proc == GLOBAL else proc}"
        rule_name = f"{label}:{transition.state}+{transition.event}"
        if proc != GLOBAL:
            rule_name = f"{rule_name}[p={proc}]"

        def local_of(state: DslState) -> Any:
            return state[1] if proc == GLOBAL else state[0][proc]

        if transition.spontaneous:
            def guard(state, _t=transition):
                return local_matches(local_of(state), _t.state)

            def apply(state, ctx, _t=transition):
                view = StateView(state)
                _t.handler(view, proc, ctx, None)
                return [view.freeze()]

            return Rule(rule_name, guard, apply, params={"p": proc})

        def guard(state, _t=transition):
            if not local_matches(local_of(state), _t.state):
                return False
            for message in state[2].deliverable(proc, _t.event):
                if _t.message_guard is None or _t.message_guard(state, message):
                    return True
            return False

        def apply(state, ctx, _t=transition):
            successors = []
            for message in state[2].deliverable(proc, _t.event):
                if _t.message_guard is not None and not _t.message_guard(state, message):
                    continue
                view = StateView(state)
                view.net = view.net.deliver(message)
                _t.handler(view, proc, ctx, message)
                successors.append(view.freeze())
            return successors

        return Rule(rule_name, guard, apply, params={"p": proc})

    def build(self) -> TransitionSystem:
        """Compile the controllers into a TransitionSystem."""
        if not self._controllers:
            raise ModelError("protocol has no controllers")
        rules: List[Rule] = []
        for spec in self._controllers:
            procs = range(self.n_procs) if spec.replicated else [GLOBAL]
            for transition in spec.transitions:
                for proc in procs:
                    rules.append(self._make_rule(spec, transition, proc))

        schema = self._global_schema
        global_rename = self._global_rename
        if global_rename is None and schema is not None:
            global_rename = schema.rename

        canonicalize = None
        if self.symmetry and self.n_procs > 1:
            rename = global_rename or (lambda glob, mapping: glob)

            def permute(state: DslState, mapping: Tuple[int, ...]) -> DslState:
                procs, glob, net = state
                return (
                    procs.renamed(mapping),
                    rename(glob, mapping),
                    net.renamed(mapping),
                )

            permuter = Permuter.for_single(
                ScalarSet("proc", self.n_procs), permute
            )
            # No replica_keys fast path here: the builder cannot know which
            # process indices a user's global state references.  The
            # packed codec canonicalises exploration; this orbit search
            # serves fingerprints (and a codec-less build, if cleared).
            canonicalize = permuter.canonicalize

        return TransitionSystem(
            name=f"{self.name}-{self.n_procs}p",
            initial_states=[self._initial_state()],
            rules=rules,
            invariants=self._invariants,
            coverage=self._coverage,
            deadlock=self._deadlock,
            canonicalize=canonicalize,
            packed_spec=self._packed_spec(schema, global_rename),
        )

    def _packed_spec(self, schema, global_rename):
        """The packed-state codec spec for the compiled system.

        With a global schema the codec is fully table-driven (the typed
        fields declare every replica-indexed location); otherwise the
        global state is one interned atom renamed through the user's
        global rename — exact either way, since both reuse the very
        expressions the object permuter applies.
        """
        from repro.mc.packed import (
            PackedSpec,
            codec_for_opaque_global,
            codec_from_schema,
        )

        n_procs = self.n_procs
        symmetry = self.symmetry
        if schema is not None:
            return PackedSpec(
                lambda: codec_from_schema(schema, n_procs, symmetry=symmetry)
            )
        return PackedSpec(
            lambda: codec_for_opaque_global(
                n_procs, global_rename, symmetry=symmetry
            )
        )


def local_matches(local_state: Any, pattern: Any) -> bool:
    """Match a local state against a transition's state pattern.

    Plain equality, except that a pattern may be a callable predicate.
    """
    if callable(pattern):
        return bool(pattern(local_state))
    return local_state == pattern

"""The serialisable intermediate form of a generated protocol.

A :class:`ProtocolSpec` is *parametric*, not operational: it records the
resolved knob values and generated names of one member of the fuzzer's
protocol family, and :func:`build_skeleton_from_spec` deterministically
reconstructs the :class:`~repro.mc.system.TransitionSystem` from those
parameters through the ordinary :class:`~repro.dsl.builder.ProtocolBuilder`
API.  That makes the spec trivially JSON round-trippable (shrinking and
corpus files operate on parameters, never on code), while every generated
system still exercises the same compilation path as the hand-written
catalog protocols.

The family: randomized **grant-service protocols**, a generalisation of
the catalog's ``mutex``.  Replicated clients request a lock from a global
server; a granted client roams a random directed graph of *active* states
before releasing.  Knobs add an explicit acknowledgement round
(``ack_round``), a German-style single-slot port guard on request
consumption (``single_slot``), decorative modular grant counters
(``counters``), a second, server-side hole (``hole_server``), and the
packed-codec flavour (``codec``: a typed-schema codec, the opaque-global
codec, or *no* codec at all — the latter exercises the whole-state codec
every system without a ``packed_spec`` derives).

Ground truth is generator-known: the reference completion
(:attr:`ProtocolSpec.reference_assignment`) verifies by construction, and
the bug completion (:attr:`ProtocolSpec.bug_assignment`) releases the lock
while staying in an active state, which every complete exploration must
report as a failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.action import Action
from repro.core.hole import Hole
from repro.dsl.builder import GLOBAL, ControllerSpec, ProtocolBuilder
from repro.dsl.fields import EnumField, IdField, RangeField, Schema
from repro.errors import ModelError
from repro.mc.properties import DeadlockPolicy
from repro.mc.state import Record
from repro.mc.system import TransitionSystem

#: corpus/spec wire-format version (bumped on incompatible field changes)
FORMAT_VERSION = 1

#: the packed-codec flavours a spec may ask for
CODECS = ("schema", "opaque", "none")

#: roles every spec's message vocabulary must name
MESSAGE_ROLES = ("req", "grant", "rel", "ack")

#: roles every spec's client-state vocabulary must name (active states are
#: named separately, in :attr:`ProtocolSpec.active_states`)
STATE_ROLES = ("idle", "wait")

#: the ground-truth invariant kinds, in canonical order; a spec stores a
#: permutation (declaration order is part of the generated diversity)
INVARIANT_KINDS = (
    "mutual-exclusion",
    "holder-consistent",
    "free-consistent",
    "network-bounded",
)


class FuzzSpecError(ModelError):
    """A spec is malformed (bad field values, not a family member)."""


@dataclass(frozen=True)
class ProtocolSpec:
    """One member of the grant-service family, fully parameterised.

    Attributes:
        name: system/catalog name (also names the corpus file).
        seed: the generator seed that produced this spec (provenance
            only; building never consults it).
        n_procs: replicated client count (>= 2).
        active_states: names of the lock-holding client states; the first
            is the entry state the reference grant transition targets.
        step_edges: ``(i, j)`` pairs — spontaneous moves between active
            states ``i`` and ``j`` (lock retained).
        ack_round: insert a client->server acknowledgement between grant
            and service (the server waits in a ``granting`` state).
        single_slot: guard request consumption German-style — the server
            only consumes a request while no grant/ack is in flight.
        hole_server: also hole the server's request handler (3 actions).
        codec: packed-codec flavour, one of :data:`CODECS`.
        counters: moduli of decorative grant counters (each grant bumps
            every counter mod its modulus).
        messages: role -> generated wire name (roles :data:`MESSAGE_ROLES`).
        states: role -> generated client-state name (:data:`STATE_ROLES`).
        invariants: permutation of :data:`INVARIANT_KINDS` (declaration
            order).
    """

    name: str
    seed: int
    n_procs: int
    active_states: Tuple[str, ...]
    step_edges: Tuple[Tuple[int, int], ...]
    ack_round: bool
    single_slot: bool
    hole_server: bool
    codec: str
    counters: Tuple[int, ...]
    messages: Mapping[str, str]
    states: Mapping[str, str]
    invariants: Tuple[str, ...] = INVARIANT_KINDS

    def __post_init__(self) -> None:
        if self.n_procs < 2:
            raise FuzzSpecError("n_procs must be >= 2")
        if not self.active_states:
            raise FuzzSpecError("need at least one active state")
        if self.codec not in CODECS:
            raise FuzzSpecError(f"unknown codec {self.codec!r}; one of {CODECS}")
        for i, j in self.step_edges:
            if not (0 <= i < len(self.active_states)
                    and 0 <= j < len(self.active_states)):
                raise FuzzSpecError(f"step edge ({i}, {j}) out of range")
            if i == j:
                raise FuzzSpecError(f"step edge ({i}, {j}) is a self-loop")
        for modulus in self.counters:
            if modulus < 2:
                raise FuzzSpecError(f"counter modulus {modulus} must be >= 2")
        if set(self.messages) != set(MESSAGE_ROLES):
            raise FuzzSpecError(f"messages must name roles {MESSAGE_ROLES}")
        if set(self.states) != set(STATE_ROLES):
            raise FuzzSpecError(f"states must name roles {STATE_ROLES}")
        if sorted(self.invariants) != sorted(INVARIANT_KINDS):
            raise FuzzSpecError(
                f"invariants must permute {INVARIANT_KINDS}, "
                f"got {self.invariants}"
            )
        named = (
            list(self.states.values())
            + list(self.active_states)
            + ["granting", "free", "busy"]
        )
        if len(set(named)) != len(named):
            raise FuzzSpecError(f"client/server state names collide: {named}")
        wires = list(self.messages.values())
        if len(set(wires)) != len(wires):
            raise FuzzSpecError(f"message names collide: {wires}")

    # -- derived vocabulary -------------------------------------------------

    @property
    def entry_active(self) -> str:
        """The active state a correct grant transition enters."""
        return self.active_states[0]

    @property
    def network_bound(self) -> int:
        """The finite-interconnect capacity the bound invariant enforces."""
        return 2 * self.n_procs + 2

    def hole_names(self) -> Tuple[str, ...]:
        """The hole names this spec's skeleton exposes, in a stable order."""
        names = [
            f"{self.name}.client.grant.response",
            f"{self.name}.client.grant.next",
        ]
        if self.hole_server:
            names.append(f"{self.name}.server.req.response")
        return tuple(names)

    @property
    def reference_assignment(self) -> Dict[str, str]:
        """The generator-known correct completion (hole name -> action)."""
        response, next_state = self.hole_names()[:2]
        assignment = {
            response: "send_ack" if self.ack_round else "none",
            next_state: f"goto_{self.entry_active}",
        }
        if self.hole_server:
            assignment[self.hole_names()[2]] = "grant_and_record"
        return assignment

    @property
    def bug_assignment(self) -> Dict[str, str]:
        """A known-bad completion: release the lock yet stay active.

        Without an ack round the stray release is consumed by the busy
        server, freeing the lock under an active client (invariant
        violation); with one, the server starves in its granting state
        (deadlock).  Either way every complete exploration must FAIL.
        """
        assignment = dict(self.reference_assignment)
        assignment[self.hole_names()[0]] = "send_rel"
        return assignment

    def candidate_space(self) -> int:
        """Size of the full completion space (product of hole arities)."""
        response_arity = 4 if self.ack_round else 3
        next_arity = 2 + min(len(self.active_states), 2)
        space = response_arity * next_arity
        if self.hole_server:
            space *= 3
        return space

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-able dict (tuples become lists)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "n_procs": self.n_procs,
            "active_states": list(self.active_states),
            "step_edges": [list(edge) for edge in self.step_edges],
            "ack_round": self.ack_round,
            "single_slot": self.single_slot,
            "hole_server": self.hole_server,
            "codec": self.codec,
            "counters": list(self.counters),
            "messages": dict(self.messages),
            "states": dict(self.states),
            "invariants": list(self.invariants),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProtocolSpec":
        """Parse a dict produced by :meth:`to_dict` (validating shape)."""
        if not isinstance(data, Mapping):
            raise FuzzSpecError("spec must be a JSON object")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FuzzSpecError(f"unknown spec field(s) {sorted(unknown)}")
        missing = known - set(data)
        if missing:
            raise FuzzSpecError(f"missing spec field(s) {sorted(missing)}")
        try:
            return cls(
                name=str(data["name"]),
                seed=int(data["seed"]),
                n_procs=int(data["n_procs"]),
                active_states=tuple(str(s) for s in data["active_states"]),
                step_edges=tuple(
                    (int(i), int(j)) for i, j in data["step_edges"]
                ),
                ack_round=bool(data["ack_round"]),
                single_slot=bool(data["single_slot"]),
                hole_server=bool(data["hole_server"]),
                codec=str(data["codec"]),
                counters=tuple(int(m) for m in data["counters"]),
                messages={str(k): str(v) for k, v in data["messages"].items()},
                states={str(k): str(v) for k, v in data["states"].items()},
                invariants=tuple(str(s) for s in data["invariants"]),
            )
        except (TypeError, ValueError) as exc:
            raise FuzzSpecError(f"malformed spec: {exc}") from None

    def to_json(self) -> str:
        """Canonical JSON text — byte-identical across round trips."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ProtocolSpec":
        """Parse :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FuzzSpecError(f"not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def with_(self, **changes: Any) -> "ProtocolSpec":
        """A copy with fields replaced (the shrinker's edit primitive)."""
        return replace(self, **changes)


# -- building -----------------------------------------------------------------


class _St:
    """A named server-state predicate, so rule names stay readable.

    ``ControllerSpec`` keys transitions by their state pattern and the
    builder embeds ``str(pattern)`` in rule names; a plain lambda would
    leak ``<function ...>`` into both.
    """

    __slots__ = ("label", "_lock")

    def __init__(self, label: str, lock: str) -> None:
        self.label = label
        self._lock = lock

    def __call__(self, glob: Record) -> bool:
        return glob.lock == self._lock

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.label

    def __str__(self) -> str:
        return self.label

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _St) and other.label == self.label

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.label))


def _make_schema(spec: ProtocolSpec) -> Schema:
    lock_values = ["free", "busy"]
    if spec.ack_round:
        lock_values.insert(1, "granting")
    fields: Dict[str, Any] = {
        "lock": EnumField(*lock_values),
        "holder": IdField(spec.n_procs, allow_none=True, sentinel=-1),
    }
    for index, modulus in enumerate(spec.counters):
        fields[f"tick{index}"] = RangeField(0, modulus - 1)
    return Schema(**fields)


def _initial_glob(spec: ProtocolSpec) -> Record:
    values: Dict[str, Any] = {"lock": "free", "holder": -1}
    for index in range(len(spec.counters)):
        values[f"tick{index}"] = 0
    return Record(**values)


def _rename_glob(glob: Record, mapping: Tuple[int, ...]) -> Record:
    holder = glob.holder
    return glob.update(holder=holder if holder < 0 else mapping[holder])


def _bump_ticks(glob: Record, counters: Tuple[int, ...]) -> Record:
    if not counters:
        return glob
    changes = {
        f"tick{index}": (getattr(glob, f"tick{index}") + 1) % modulus
        for index, modulus in enumerate(counters)
    }
    return glob.update(**changes)


def _client_holes(spec: ProtocolSpec) -> Tuple[Hole, Hole]:
    req = spec.messages["req"]
    rel = spec.messages["rel"]
    ack = spec.messages["ack"]
    response_actions = [
        Action("none", fn=lambda view, proc: None),
        Action(
            "send_req",
            fn=lambda view, proc, _m=req: view.send(_m, proc, GLOBAL),
        ),
        Action(
            "send_rel",
            fn=lambda view, proc, _m=rel: view.send(_m, proc, GLOBAL),
        ),
    ]
    if spec.ack_round:
        response_actions.insert(
            1,
            Action(
                "send_ack",
                fn=lambda view, proc, _m=ack: view.send(_m, proc, GLOBAL),
            ),
        )
    # Small next-state domain: idle, wait, and up to two active states.
    targets = [spec.states["idle"], spec.states["wait"]]
    targets[0:0] = list(spec.active_states[:2])
    next_actions = [Action(f"goto_{s}", payload=s) for s in targets]
    response_name, next_name = spec.hole_names()[:2]
    return (
        Hole(response_name, response_actions),
        Hole(next_name, next_actions),
    )


def _server_hole(spec: ProtocolSpec) -> Hole:
    grant = spec.messages["grant"]
    granted_lock = "granting" if spec.ack_round else "busy"
    counters = spec.counters

    def grant_and_record(view, src):
        view.send(grant, GLOBAL, src)
        view.glob = _bump_ticks(
            view.glob.update(lock=granted_lock, holder=src), counters
        )

    def grant_forget(view, src):
        # Sends the grant but forgets the holder: the very next state has
        # a non-free lock with holder -1, violating free-consistency.
        view.send(grant, GLOBAL, src)
        view.glob = view.glob.update(lock=granted_lock)

    def record_only(view, src):
        # Records the grant but never sends it: the requester starves and
        # the system deadlocks once every client is waiting.
        view.glob = _bump_ticks(
            view.glob.update(lock=granted_lock, holder=src), counters
        )

    return Hole(
        spec.hole_names()[2],
        [
            Action("grant_and_record", fn=grant_and_record),
            Action("grant_forget", fn=grant_forget),
            Action("record_only", fn=record_only),
        ],
    )


def _add_invariants(builder: ProtocolBuilder, spec: ProtocolSpec) -> None:
    actives = frozenset(spec.active_states)
    bound = spec.network_bound

    def mutual_exclusion(state) -> bool:
        return sum(1 for local in state[0] if local in actives) <= 1

    def holder_consistent(state) -> bool:
        procs, glob, _net = state
        for index, local in enumerate(procs):
            if local in actives and glob.holder != index:
                return False
        return True

    def free_consistent(state) -> bool:
        return (state[1].holder == -1) == (state[1].lock == "free")

    def network_bounded(state, _b=bound) -> bool:
        return len(state[2]) <= _b

    predicates = {
        "mutual-exclusion": mutual_exclusion,
        "holder-consistent": holder_consistent,
        "free-consistent": free_consistent,
        "network-bounded": network_bounded,
    }
    for kind in spec.invariants:
        builder.add_invariant(kind, predicates[kind])
    builder.add_coverage(
        "some-client-active",
        lambda state: any(local in actives for local in state[0]),
    )


def _build(
    spec: ProtocolSpec,
    grant_handler,
    server_req_handler,
    name_suffix: str,
    symmetry: bool,
) -> TransitionSystem:
    idle = spec.states["idle"]
    wait = spec.states["wait"]
    req, grant, rel, ack = (spec.messages[r] for r in MESSAGE_ROLES)

    def client_want(view, proc, ctx, message):
        view.send(req, proc, GLOBAL)
        view.become(proc, wait)

    def client_done(view, proc, ctx, message):
        view.send(rel, proc, GLOBAL)
        view.become(proc, idle)

    client = ControllerSpec("client")
    client.on(idle, "want", client_want, spontaneous=True)
    client.on(wait, grant, grant_handler)
    for active in spec.active_states:
        client.on(active, "done", client_done, spontaneous=True)
    for i, j in spec.step_edges:
        target = spec.active_states[j]

        def step(view, proc, ctx, message, _t=target):
            view.become(proc, _t)

        client.on(spec.active_states[i], f"step_to_{target}", step,
                  spontaneous=True)

    message_guard = None
    if spec.single_slot:
        # German-style single-slot grant port: requests are only consumed
        # while the grant/ack channel is clear.  Vacuous on reference
        # reachable states (a free server has no grant in flight), but it
        # exercises the guard path and constrains buggy completions.
        slot_types = frozenset((grant, ack))

        def message_guard(state, message, _slot=slot_types):
            return not any(m.mtype in _slot for m in state[2])

    def server_ack(view, proc, ctx, message):
        view.glob = view.glob.update(lock="busy")

    def server_rel(view, proc, ctx, message):
        view.glob = view.glob.update(lock="free", holder=-1)

    server = ControllerSpec("server", replicated=False)
    server.on(_St("free", "free"), req, server_req_handler,
              message_guard=message_guard)
    if spec.ack_round:
        server.on(_St("granting", "granting"), ack, server_ack)
    server.on(_St("busy", "busy"), rel, server_rel)

    builder = ProtocolBuilder(
        f"{spec.name}{name_suffix}",
        spec.n_procs,
        initial_local=idle,
        initial_global=_initial_glob(spec),
        symmetry=symmetry,
    )
    builder.add_controller(client)
    builder.add_controller(server)
    builder.set_global_rename(_rename_glob)
    if spec.codec == "schema":
        builder.set_global_schema(_make_schema(spec))
    _add_invariants(builder, spec)
    builder.set_deadlock_policy(DeadlockPolicy.fail())
    system = builder.build()
    if spec.codec == "none":
        # Simulate a system compiled without any packed codec: the kernel
        # derives a whole-state codec canonicalised by the DSL permuter.
        system.packed_spec = None
    return system


def _reference_server_handler(spec: ProtocolSpec):
    grant = spec.messages["grant"]
    granted_lock = "granting" if spec.ack_round else "busy"
    counters = spec.counters

    def server_req(view, proc, ctx, message):
        view.send(grant, GLOBAL, message.src)
        view.glob = _bump_ticks(
            view.glob.update(lock=granted_lock, holder=message.src), counters
        )

    return server_req


def build_skeleton_from_spec(
    spec: ProtocolSpec, symmetry: bool = True
) -> Tuple[TransitionSystem, List[Hole]]:
    """The holed skeleton plus its hole objects (catalog-builder shape)."""
    response, next_state = _client_holes(spec)

    def grant_handler(view, proc, ctx, message):
        ctx.resolve(response).fn(view, proc)
        view.become(proc, ctx.resolve(next_state).payload)

    holes = [response, next_state]
    if spec.hole_server:
        server_hole = _server_hole(spec)
        holes.append(server_hole)

        def server_req(view, proc, ctx, message):
            ctx.resolve(server_hole).fn(view, message.src)

    else:
        server_req = _reference_server_handler(spec)

    system = _build(spec, grant_handler, server_req, "-skel", symmetry)
    return system, holes


def build_reference_system(
    spec: ProtocolSpec, symmetry: bool = True
) -> TransitionSystem:
    """The complete, correct protocol (no holes) — the counts baseline."""
    entry = spec.entry_active
    ack = spec.messages["ack"]
    send_ack = spec.ack_round

    def grant_handler(view, proc, ctx, message):
        if send_ack:
            view.send(ack, proc, GLOBAL)
        view.become(proc, entry)

    return _build(
        spec, grant_handler, _reference_server_handler(spec), "-ref", symmetry
    )


def resolver_for_assignment(holes: List[Hole], assignment: Mapping[str, str]):
    """A strict :class:`~repro.mc.context.FixedResolver` over hole objects."""
    from repro.mc.context import FixedResolver

    mapping = {}
    for hole in holes:
        action_name = assignment.get(hole.name)
        if action_name is None:
            raise FuzzSpecError(f"assignment misses hole {hole.name!r}")
        mapping[hole] = hole.domain[hole.index_of(action_name)]
    return FixedResolver(mapping)


# -- cross-process payloads ---------------------------------------------------


def spec_payload(spec: ProtocolSpec, symmetry: bool = True) -> str:
    """Serialise a spec (plus build flags) for a worker process.

    The distributed backend's workers rebuild systems locally (rule
    bodies are closures and cannot cross a process boundary); a payload
    string rides inside :class:`repro.dist.messages.SystemSpec` so
    generated protocols work under ``--backend processes`` exactly like
    catalog entries.
    """
    return json.dumps(
        {"format": FORMAT_VERSION, "spec": spec.to_dict(), "symmetry": symmetry},
        sort_keys=True,
        separators=(",", ":"),
    )


def build_system_from_payload(payload: str) -> TransitionSystem:
    """Rebuild the holed skeleton a payload describes (worker side)."""
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise FuzzSpecError(f"bad fuzz payload: {exc}") from None
    if data.get("format") != FORMAT_VERSION:
        raise FuzzSpecError(
            f"unsupported fuzz payload format {data.get('format')!r}"
        )
    spec = ProtocolSpec.from_dict(data["spec"])
    system, _holes = build_skeleton_from_spec(
        spec, symmetry=bool(data.get("symmetry", True))
    )
    return system

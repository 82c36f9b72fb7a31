"""The directory-protocol family: one state layout, rule compiler and hole builder.

MSI, MESI and MOESI are all a set of cache controllers talking to one
directory over an unordered interconnect, and they share everything but
their tables.  This module is that shared part; each protocol module
writes its state codes, messages, controller tables and action domains
and hands them to one :class:`DirectoryProtocol`.

State tuple layout (chosen for hashing speed — the model checker touches
millions of these)::

    (caches, dirst, owner, sharers, req, acks, net)

* ``caches``: tuple of per-cache state codes,
* ``dirst``: directory state code,
* ``owner``: owning cache index or -1,
* ``sharers``: frozenset of cache indices,
* ``req``: the pending requestor (directory bookkeeping) or -1,
* ``acks``: outstanding invalidation acknowledgements,
* ``net``: :class:`~repro.mc.multiset.Multiset` of ``(msg_type, cache)``
  messages — the unordered interconnect.  ``cache`` is the requester for
  requests, the destination for responses and invalidations, and the
  sender for acknowledgements; one index disambiguates every message.

Code 0 is the invalid state of both controllers in every protocol, so
:func:`initial_state` is shared too.

A protocol is a :class:`DirectoryProtocol`: its controller tables map
``(state code, event)`` keys to handlers ``(view, cache, ctx) -> None``
that mutate a :class:`View`.  Stable entries are designer-written
handlers; transient entries are *completions* — a cache ``(response,
next)`` pair or a directory ``(response, next, track)`` triple of action
names from the protocol's domains.  :meth:`DirectoryProtocol.system`
compiles the tables into one rule per (cache index, cache entry) and one
per (directory entry, sender), in the protocol's declared order (hole
discovery order and BFS traces follow it).
:meth:`DirectoryProtocol.skeleton` replaces chosen completions with holes
named ``<prefix>cache.<state>+<event>.response`` and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple, Type

from repro.core.action import Action
from repro.core.hole import Hole
from repro.errors import SynthesisError
from repro.mc.multiset import Multiset
from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
from repro.mc.rule import Rule
from repro.mc.symmetry import Permuter, ScalarSet
from repro.mc.system import TransitionSystem

State = Tuple[Tuple[int, ...], int, int, FrozenSet[int], int, int, Multiset]

#: a controller-table key: (state code, event or message type)
Key = Tuple[int, str]

#: handler signature: (view, cache index, execution context) -> None
Handler = Callable[["View", int, object], None]

Table = Dict[Key, Handler]


def initial_state(n_caches: int) -> State:
    """All caches and the directory invalid; empty network."""
    return ((0,) * n_caches, 0, -1, frozenset(), -1, 0, Multiset())


class View:
    """A mutable scratch copy of one state, used inside a rule firing.

    Rule handlers mutate the view and the rule wrapper freezes it back into
    a state tuple.  ``caches`` is a list; everything else plain attributes.
    Each protocol uses its own subclass from :func:`view_class`, which
    fixes the directory states that end a transaction.
    """

    __slots__ = ("caches", "dirst", "owner", "sharers", "req", "acks", "net")

    dir_stable: FrozenSet[int] = frozenset()

    def __init__(self, state: State) -> None:
        caches, dirst, owner, sharers, req, acks, net = state
        self.caches = list(caches)
        self.dirst = dirst
        self.owner = owner
        self.sharers = sharers
        self.req = req
        self.acks = acks
        self.net = net

    def send(self, mtype: str, cache: int) -> None:
        """Put a message addressed to (or tagged with) ``cache`` in flight."""
        self.net = self.net.add((mtype, cache))

    def consume(self, mtype: str, cache: int) -> None:
        """Remove one in-flight message."""
        self.net = self.net.remove((mtype, cache))

    def goto_dir(self, code: int) -> None:
        """Move the directory; entering a stable state clears pending-request
        bookkeeping (req/acks), which keeps the state space canonical."""
        self.dirst = code
        if code in self.dir_stable:
            self.req = -1
            self.acks = 0

    def freeze(self) -> State:
        """Back to the immutable tuple representation."""
        return (
            tuple(self.caches),
            self.dirst,
            self.owner,
            self.sharers,
            self.req,
            self.acks,
            self.net,
        )


def view_class(dir_stable: FrozenSet[int]) -> Type[View]:
    """The :class:`View` of a protocol whose stable directory states are
    ``dir_stable``."""
    return type("View", (View,), {"__slots__": (), "dir_stable": frozenset(dir_stable)})


def permute_state(state: State, mapping: Tuple[int, ...]) -> State:
    """Rename cache indices throughout a state (scalarset symmetry)."""
    caches, dirst, owner, sharers, req, acks, net = state
    new_caches = list(caches)
    for old_index, cache_state in enumerate(caches):
        new_caches[mapping[old_index]] = cache_state
    return (
        tuple(new_caches),
        dirst,
        -1 if owner < 0 else mapping[owner],
        frozenset(mapping[s] for s in sharers),
        -1 if req < 0 else mapping[req],
        acks,
        net.map(lambda msg: (msg[0], mapping[msg[1]])),
    )


def replica_keys(state: State) -> Tuple[Tuple, ...]:
    """One orderable key per cache, for the sorted-replica fast path.

    Each key captures everything the state says about cache ``i`` —
    its controller state, whether it owns the line / shares it / is the
    pending requestor, and the multiset of messages addressed to it — in a
    form invariant under renaming of the *other* caches, which is the
    contract :class:`~repro.mc.symmetry.Permuter` requires.  Negative
    message indices deliberately Python-index the bucket list exactly like
    ``mapping[msg[1]]`` does in :func:`permute_state`, so the two stay
    consistent even for out-of-range candidates.
    """
    caches, dirst, owner, sharers, req, acks, net = state
    messages: Tuple[list, ...] = tuple([] for _ in caches)
    for (mtype, cache), count in net.items():
        messages[cache].append((mtype, count))
    return tuple(
        (
            caches[i],
            i == owner,
            i in sharers,
            i == req,
            tuple(sorted(messages[i])),
        )
        for i in range(len(caches))
    )


def packed_spec(n_caches: int, symmetry: bool = True):
    """A :class:`~repro.mc.packed.PackedSpec` for the family's state layout.

    The per-slot rename closures are the *same expressions* as
    :func:`permute_state` — including the collapse of every negative
    owner/req to ``-1`` and the deliberate Python-indexing of out-of-range
    message indices — so the packed remap is exact against the object
    permuter by construction.
    """
    from repro.mc import packed as pk

    def make_codec() -> "pk.StateCodec":
        def id_rename(value: int, mapping: Tuple[int, ...]) -> int:
            return -1 if value < 0 else mapping[value]

        def sharers_rename(value, mapping):
            return frozenset(mapping[s] for s in value)

        def net_rename(net, mapping):
            return net.map(lambda msg: (msg[0], mapping[msg[1]]))

        layout = [
            pk.Block(pk.AtomSlot(), n_caches),              # caches
            pk.Scalar(pk.AtomSlot()),                       # dirst
            pk.Scalar(pk.AtomSlot(rename=id_rename)),       # owner
            pk.Scalar(pk.AtomSlot(rename=sharers_rename)),  # sharers
            pk.Scalar(pk.AtomSlot(rename=id_rename)),       # req
            pk.Scalar(pk.AtomSlot()),                       # acks
            pk.Scalar(pk.AtomSlot(rename=net_rename)),      # net
        ]

        def extract(state: State) -> Tuple:
            caches, dirst, owner, sharers, req, acks, net = state
            return tuple(caches) + (dirst, owner, sharers, req, acks, net)

        def build(values: Tuple) -> State:
            return (values[:n_caches],) + tuple(values[n_caches:])

        mappings = (
            pk.permutation_mappings(n_caches)
            if symmetry and n_caches > 1
            else pk.identity_mappings(n_caches)
        )
        return pk.StateCodec(layout, extract, build, mappings)

    return pk.PackedSpec(make_codec)


# -- generic properties ------------------------------------------------------------


def no_unexpected_message(
    cache_expects: Mapping[str, FrozenSet[int]],
    dir_expects: Mapping[str, FrozenSet[int]],
) -> Invariant:
    """Every in-flight message is acceptable to its destination's state.

    ``cache_expects`` maps each cache-bound message type to the cache
    states that accept it, ``dir_expects`` each directory-bound one to the
    directory states that accept it; message types in neither (requests,
    which stall at a busy directory) are never unexpected.  This is the
    explicit-state analogue of a SLICC table's "unhandled event" error and
    makes faulty candidates fail with short traces.
    """

    def check(state, _cache=cache_expects, _dir=dir_expects) -> bool:
        caches, dirst, _owner, _sharers, _req, _acks, net = state
        for mtype, cache in net.distinct():
            expected = _cache.get(mtype)
            if expected is not None:
                if caches[cache] not in expected:
                    return False
                continue
            expected = _dir.get(mtype)
            if expected is not None and dirst not in expected:
                return False
        return True

    return Invariant("no-unexpected-message", check)


def no_orphaned_wait(
    waits: Mapping[int, Tuple[str, ...]], dir_stable: FrozenSet[int]
) -> Invariant:
    """Every waiting cache has a live reason to wait.

    ``waits`` maps each transient cache state to the message types (its
    own request, the response, a crossing invalidation) whose presence
    for that cache justifies waiting; a directory mid-transaction on the
    cache's behalf justifies it too.  Global deadlock detection cannot
    flag one cache stuck forever while other caches keep issuing requests
    (the system as a whole stays live); this safety invariant closes that
    hole — the explicit-state analogue of the liveness properties the
    paper cites from McMillan & Schwalbe.
    """

    def check(state, _waits=waits, _stable=dir_stable) -> bool:
        caches, dirst, _owner, _sharers, req, _acks, net = state
        for index, cache_state in enumerate(caches):
            expected = _waits.get(cache_state)
            if expected is None:
                continue
            if req == index and dirst not in _stable:
                continue
            if any((mtype, index) in net for mtype in expected):
                continue
            return False
        return True

    return Invariant("no-orphaned-wait", check)


def network_bounded(bound: int) -> Invariant:
    """At most ``bound`` messages in flight.

    A finite interconnect makes *every* candidate's state space finite:
    without a bound, a faulty candidate that drops data and re-requests
    forever would make the exploration diverge — the same reason Murphi
    models use bounded channels.
    """
    return Invariant("network-bounded", lambda s, _b=bound: len(s[6]) <= _b)


def quiescence(
    cache_stable: FrozenSet[int], dir_stable: FrozenSet[int]
) -> Callable[[State], bool]:
    """The states allowed to have no outgoing transitions.

    A state is quiescent when the network is drained, the directory is
    stable, and every cache is stable: every issued request has been fully
    served.  A terminal state that is *not* quiescent (say, a cache parked
    waiting for data that never comes) is a protocol deadlock.
    """

    def quiescent(state, _caches=cache_stable, _dir=dir_stable) -> bool:
        caches, dirst, _owner, _sharers, _req, _acks, net = state
        if net:
            return False
        if dirst not in _dir:
            return False
        return all(c in _caches for c in caches)

    return quiescent


# -- the compiler ----------------------------------------------------------------------


def action_triple(
    response_domain: List[Action],
    track_domain: List[Action],
    next_domain: List[Action],
) -> Callable[[View, int, str, str, str], None]:
    """``apply(view, cache, response, next, track)`` for directory handlers.

    Applies a (response, track, next-state) triple of action names in the
    canonical order: the response reads pre-update bookkeeping, then the
    track action, then the directory moves.
    """
    responses = {a.name: a.fn for a in response_domain}
    tracks = {a.name: a.fn for a in track_domain}
    nexts = {a.name: a.payload for a in next_domain}

    def apply(view: View, cache: int, response: str, nxt: str, track: str) -> None:
        responses[response](view, cache)
        tracks[track](view, cache)
        view.goto_dir(nexts[nxt])

    return apply


@dataclass(frozen=True)
class DirectoryProtocol:
    """One directory-family protocol, as tables.

    Attributes:
        hole_prefix: prepended to every hole name (``""`` for MSI).
        cache_states / dir_states: state names, indexed by state code.
        view: the protocol's :class:`View` class (:func:`view_class`).
        spontaneous: cache events that consume no message (Load, Store...).
        cache_order / dir_order: rule declaration order of the table keys.
        cache_handlers / dir_handlers: the designer-written stable entries.
        cache_completions: holeable cache entries -> reference
            ``(response, next)`` action names.
        dir_completions: holeable directory entries -> reference
            ``(response, next, track)`` action names.
        ack_counting: directory entries that count invalidation acks down
            and only complete on the last one.
        cache_response_domain ... dir_track_domain: factories of the
            designer's action domains (each hole gets a fresh list).
        invariants: ``invariants(n_caches)``, in report order.
        coverage: ``coverage(n_caches)``, in report order.
        quiescent: the deadlock policy's quiescence predicate.
    """

    hole_prefix: str
    cache_states: Tuple[str, ...]
    dir_states: Tuple[str, ...]
    view: Type[View]
    spontaneous: FrozenSet[str]
    cache_order: Tuple[Key, ...]
    dir_order: Tuple[Key, ...]
    cache_handlers: Mapping[Key, Handler]
    dir_handlers: Mapping[Key, Handler]
    cache_completions: Mapping[Key, Tuple[str, str]]
    dir_completions: Mapping[Key, Tuple[str, str, str]]
    ack_counting: FrozenSet[Key]
    cache_response_domain: Callable[[], List[Action]]
    cache_next_domain: Callable[[], List[Action]]
    dir_response_domain: Callable[[], List[Action]]
    dir_next_domain: Callable[[], List[Action]]
    dir_track_domain: Callable[[], List[Action]]
    invariants: Callable[[int], List[Invariant]]
    coverage: Callable[[int], List[CoverageProperty]]
    quiescent: Callable[[State], bool]

    # -- handlers --

    @cached_property
    def _dir_triple(self) -> Callable[[View, int, str, str, str], None]:
        return action_triple(
            self.dir_response_domain(), self.dir_track_domain(), self.dir_next_domain()
        )

    def cache_completion(self, response_name: str, next_name: str) -> Handler:
        """A transient cache handler with fixed actions."""
        respond = {a.name: a.fn for a in self.cache_response_domain()}[response_name]
        code = {a.name: a.payload for a in self.cache_next_domain()}[next_name]

        def handler(view: View, cache: int, ctx: object) -> None:
            respond(view, cache)
            view.caches[cache] = code

        return handler

    def dir_completion(
        self, key: Key, response_name: str, next_name: str, track_name: str
    ) -> Handler:
        """A transient directory handler with fixed actions."""
        triple = self._dir_triple
        counts_acks = key in self.ack_counting

        def handler(view: View, cache: int, ctx: object) -> None:
            if counts_acks:
                view.acks -= 1
                if view.acks > 0:
                    return
            triple(view, cache, response_name, next_name, track_name)

        return handler

    def reference_cache_table(self) -> Table:
        """The complete (hole-free) cache controller."""
        table = dict(self.cache_handlers)
        for key, names in self.cache_completions.items():
            table[key] = self.cache_completion(*names)
        return table

    def reference_dir_table(self) -> Table:
        """The complete (hole-free) directory controller."""
        table = dict(self.dir_handlers)
        for key, names in self.dir_completions.items():
            table[key] = self.dir_completion(key, *names)
        return table

    # -- rules and systems --

    def _cache_rule(self, c: int, key: Key, handler: Handler) -> Rule:
        state_code, event = key
        if event in self.spontaneous:
            def guard(state, _c=c, _code=state_code):
                return state[0][_c] == _code
        else:
            def guard(state, _c=c, _code=state_code, _ev=event):
                return state[0][_c] == _code and (_ev, _c) in state[6]

        def apply(
            state,
            ctx,
            _c=c,
            _ev=event,
            _receive=event not in self.spontaneous,
            _handler=handler,
            _View=self.view,
        ):
            view = _View(state)
            if _receive:
                view.consume(_ev, _c)
            _handler(view, _c, ctx)
            return [view.freeze()]

        name = f"cache{c}:{self.cache_states[state_code]}+{event}"
        return Rule(name, guard, apply, params={"c": c})

    def _dir_rule(self, c: int, key: Key, handler: Handler) -> Rule:
        state_code, event = key

        def guard(state, _c=c, _code=state_code, _ev=event):
            return state[1] == _code and (_ev, _c) in state[6]

        def apply(state, ctx, _c=c, _ev=event, _handler=handler, _View=self.view):
            view = _View(state)
            view.consume(_ev, _c)
            _handler(view, _c, ctx)
            return [view.freeze()]

        name = f"dir:{self.dir_states[state_code]}+{event}[c={c}]"
        return Rule(name, guard, apply, params={"c": c})

    def system(
        self,
        n_caches: int,
        cache_table: Optional[Table] = None,
        dir_table: Optional[Table] = None,
        *,
        name: str,
        symmetry: bool = True,
        coverage: bool = True,
    ) -> TransitionSystem:
        """Compile the tables (the reference ones unless given) for N caches.

        Rules come per cache index in ``cache_order``, then per directory
        entry in ``dir_order`` with one rule per sender; table keys outside
        the order are ignored.  Symmetry reduction canonicalises over all
        cache-index permutations.
        """
        if n_caches < 1:
            raise ValueError("n_caches must be >= 1")
        if cache_table is None:
            cache_table = self.reference_cache_table()
        if dir_table is None:
            dir_table = self.reference_dir_table()

        rules = []
        for c in range(n_caches):
            for key in self.cache_order:
                if key in cache_table:
                    rules.append(self._cache_rule(c, key, cache_table[key]))
        for key in self.dir_order:
            if key in dir_table:
                for c in range(n_caches):
                    rules.append(self._dir_rule(c, key, dir_table[key]))

        canonicalize = None
        if symmetry and n_caches > 1:
            permuter = Permuter.for_single(
                ScalarSet("cache", n_caches), permute_state, replica_keys=replica_keys
            )
            canonicalize = permuter.canonicalize

        return TransitionSystem(
            name=f"{name}-{n_caches}c",
            initial_states=[initial_state(n_caches)],
            rules=rules,
            invariants=self.invariants(n_caches),
            coverage=self.coverage(n_caches) if coverage else [],
            deadlock=DeadlockPolicy.fail(quiescent=self.quiescent),
            canonicalize=canonicalize,
            packed_spec=packed_spec(n_caches, symmetry=symmetry),
        )

    # -- holes and skeletons --

    def _label(self, names: Tuple[str, ...], key: Key) -> str:
        return f"{names[key[0]]}+{key[1]}"

    def _holed_cache(self, key: Key) -> Tuple[Handler, List[Hole]]:
        rule = f"{self.hole_prefix}cache.{self._label(self.cache_states, key)}"
        response_hole = Hole(f"{rule}.response", self.cache_response_domain())
        next_hole = Hole(f"{rule}.next", self.cache_next_domain())

        def handler(view: View, cache: int, ctx) -> None:
            ctx.resolve(response_hole).fn(view, cache)
            view.caches[cache] = ctx.resolve(next_hole).payload

        return handler, [response_hole, next_hole]

    def _holed_dir(self, key: Key) -> Tuple[Handler, List[Hole]]:
        rule = f"{self.hole_prefix}dir.{self._label(self.dir_states, key)}"
        response_hole = Hole(f"{rule}.response", self.dir_response_domain())
        next_hole = Hole(f"{rule}.next", self.dir_next_domain())
        track_hole = Hole(f"{rule}.track", self.dir_track_domain())
        counts_acks = key in self.ack_counting

        # Holes resolve only on the completing ack, so lazy discovery sees
        # them exactly when the decision is due.
        def handler(view: View, cache: int, ctx) -> None:
            if counts_acks:
                view.acks -= 1
                if view.acks > 0:
                    return
            ctx.resolve(response_hole).fn(view, cache)
            ctx.resolve(track_hole).fn(view, cache)
            view.goto_dir(ctx.resolve(next_hole).payload)

        return handler, [response_hole, next_hole, track_hole]

    def skeleton(
        self,
        cache_rules: Tuple[Key, ...],
        dir_rules: Tuple[Key, ...],
        *,
        n_caches: int,
        name: str,
        symmetry: bool = True,
        coverage: bool = True,
    ) -> Tuple[TransitionSystem, List[Hole]]:
        """The reference protocol with the given completions left as holes.

        Holes come in argument order: a cache rule's (response, next), then
        a directory rule's (response, next, track).
        """
        cache_table = self.reference_cache_table()
        dir_table = self.reference_dir_table()
        holes: List[Hole] = []
        for key in cache_rules:
            if key not in self.cache_completions:
                raise SynthesisError(f"cache rule {key} is not holeable")
            cache_table[key], group = self._holed_cache(key)
            holes.extend(group)
        for key in dir_rules:
            if key not in self.dir_completions:
                raise SynthesisError(f"directory rule {key} is not holeable")
            dir_table[key], group = self._holed_dir(key)
            holes.extend(group)
        system = self.system(
            n_caches,
            cache_table,
            dir_table,
            name=name,
            symmetry=symmetry,
            coverage=coverage,
        )
        return system, holes

    def reference_assignment(
        self, holes: Optional[List[Hole]] = None
    ) -> Dict[str, str]:
        """Hole name -> reference action name: the known-good completion of
        every holeable entry, or of just the given holes."""
        assignment: Dict[str, str] = {}
        for key, (response, nxt) in self.cache_completions.items():
            rule = f"{self.hole_prefix}cache.{self._label(self.cache_states, key)}"
            assignment[f"{rule}.response"] = response
            assignment[f"{rule}.next"] = nxt
        for key, (response, nxt, track) in self.dir_completions.items():
            rule = f"{self.hole_prefix}dir.{self._label(self.dir_states, key)}"
            assignment[f"{rule}.response"] = response
            assignment[f"{rule}.next"] = nxt
            assignment[f"{rule}.track"] = track
        if holes is None:
            return assignment
        return {hole.name: assignment[hole.name] for hole in holes}

    def format_state(self, state: State) -> str:
        """Human-readable one-liner for traces and debugging."""
        caches, dirst, owner, sharers, req, acks, net = state
        cache_text = ",".join(self.cache_states[c] for c in caches)
        msgs = ",".join(f"{m}->{c}" for (m, c) in sorted(net)) or "-"
        return (
            f"caches[{cache_text}] dir={self.dir_states[dirst]} owner={owner} "
            f"sharers={sorted(sharers)} req={req} acks={acks} net[{msgs}]"
        )

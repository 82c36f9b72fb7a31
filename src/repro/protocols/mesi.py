"""A directory-based MESI coherence protocol (scope extension).

The paper's conclusion calls for widening the tool's scope; MESI is the
natural next protocol after MSI.  The Exclusive state lets a cache that was
granted the only copy write *silently* (E -> M without any message) — which
means the directory cannot know whether its owner holds E or M, so it
tracks a combined ``EM`` owner state.  That one optimisation reshapes the
transient structure:

* the directory grants **exclusive data** (``DataE``) on a GetS when no
  other copy exists, and serialises through ``IE_A`` until the grantee
  acknowledges (the same serialisation idea as MSI's ``IM_A``);
* shared grants (``DataS``) need no acknowledgement;
* invalidating "the owner" must work for owners in E *or* M.

State layout is identical to the MSI module::

    (caches, dirst, owner, sharers, req, acks, net)

Cache states: I, S, E, M, IS_D, IM_D, SM_D, IS_D_I.
Directory states: I, S, EM, IE_A, SM_A, ES_A, EM_A.
Messages: GetS, GetM, DataS, DataE, Inv, InvAck, DataAck.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.action import Action
from repro.core.hole import Hole
from repro.errors import SynthesisError
from repro.mc.multiset import Multiset
from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
from repro.mc.rule import Rule
from repro.mc.symmetry import Permuter, ScalarSet
from repro.mc.system import TransitionSystem

# The MESI state tuple has byte-for-byte the same layout as MSI's
# ``(caches, dirst, owner, sharers, req, acks, net)``, so the sorted-replica
# fast-path projection is shared rather than duplicated.
from repro.protocols.msi.defs import packed_spec, replica_keys

# -- states ---------------------------------------------------------------------

C_I, C_S, C_E, C_M, C_IS_D, C_IM_D, C_SM_D, C_IS_D_I = range(8)
CACHE_STATE_NAMES = ("I", "S", "E", "M", "IS_D", "IM_D", "SM_D", "IS_D_I")
CACHE_STABLE = frozenset({C_I, C_S, C_E, C_M})

D_I, D_S, D_EM, D_IE_A, D_SM_A, D_ES_A, D_EM_A = range(7)
DIR_STATE_NAMES = ("I", "S", "EM", "IE_A", "SM_A", "ES_A", "EM_A")
DIR_STABLE = frozenset({D_I, D_S, D_EM})

GETS, GETM = "GetS", "GetM"
DATAS, DATAE = "DataS", "DataE"
INV, INVACK, DATAACK = "Inv", "InvAck", "DataAck"

#: states in which each cache-bound message is acceptable
CACHE_EXPECTS = {
    DATAS: frozenset({C_IS_D, C_IS_D_I}),
    DATAE: frozenset({C_IS_D, C_IM_D, C_SM_D, C_IS_D_I}),
    INV: frozenset(range(8)),  # invalidations are acked from anywhere
}
DIR_EXPECTS = {
    INVACK: frozenset({D_SM_A, D_ES_A, D_EM_A}),
    DATAACK: frozenset({D_IE_A}),
}

LOAD, STORE = "Load", "Store"
_SPONTANEOUS = frozenset({LOAD, STORE})

State = Tuple


def initial_state(n_caches: int) -> State:
    """All caches invalid, directory invalid, empty network."""
    return ((C_I,) * n_caches, D_I, -1, frozenset(), -1, 0, Multiset())


class View:
    """Mutable per-firing scratch copy (same shape as the MSI module's)."""

    __slots__ = ("caches", "dirst", "owner", "sharers", "req", "acks", "net")

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
        """Move the directory; stable states clear transaction state."""
        self.dirst = code
        if code in DIR_STABLE:
            self.req = -1
            self.acks = 0

    def freeze(self) -> State:
        """Back to the immutable tuple representation."""
        return (
            tuple(self.caches), self.dirst, self.owner, self.sharers,
            self.req, self.acks, self.net,
        )


def permute_state(state: State, mapping: Tuple[int, ...]) -> State:
    """Rename cache indices throughout one state (symmetry support)."""
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


# -- cache controller --------------------------------------------------------------

Handler = Callable[[View, int, object], None]

#: holeable transient completions: (response action, next state) by name
REFERENCE_CACHE_COMPLETIONS: Dict[Tuple[int, str], Tuple[str, str]] = {
    (C_IS_D, DATAS): ("none", "goto_S"),
    (C_IS_D, DATAE): ("send_dataack", "goto_E"),   # take the exclusive grant
    (C_IS_D, INV): ("send_invack", "goto_IS_D_I"),
    (C_IS_D_I, DATAS): ("none", "goto_I"),
    (C_IS_D_I, DATAE): ("send_dataack", "goto_I"),  # still must release IE_A
    (C_IM_D, DATAE): ("send_dataack", "goto_M"),
    (C_IM_D, INV): ("send_invack", "goto_IM_D"),
    (C_SM_D, DATAE): ("send_dataack", "goto_M"),
    (C_SM_D, INV): ("send_invack", "goto_IM_D"),
}

CACHE_TABLE_ORDER: Tuple[Tuple[int, str], ...] = (
    (C_I, LOAD),
    (C_I, STORE),
    (C_S, STORE),
    (C_E, STORE),
    (C_S, INV),
    (C_E, INV),
    (C_M, INV),
    (C_I, INV),
    (C_IM_D, DATAE),
    (C_IM_D, INV),
    (C_SM_D, DATAE),
    (C_SM_D, INV),
    (C_IS_D, DATAS),
    (C_IS_D, DATAE),
    (C_IS_D, INV),
    (C_IS_D_I, DATAS),
    (C_IS_D_I, DATAE),
)


def cache_response_domain() -> List[Action]:
    """Candidate responses for holeable cache rules."""
    return [
        Action("none", fn=lambda view, cache: None),
        Action("send_invack", fn=lambda view, cache: view.send(INVACK, cache)),
        Action("send_dataack", fn=lambda view, cache: view.send(DATAACK, cache)),
    ]


def cache_next_domain() -> List[Action]:
    """Candidate next-states for holeable cache rules."""
    return [
        Action(f"goto_{name}", payload=code)
        for code, name in enumerate(CACHE_STATE_NAMES)
    ]


def _completion_handler(response_name: str, next_name: str) -> Handler:
    response = {a.name: a for a in cache_response_domain()}[response_name]
    next_state = {a.name: a for a in cache_next_domain()}[next_name]

    def handler(view: View, cache: int, ctx: object) -> None:
        response.fn(view, cache)
        view.caches[cache] = next_state.payload

    return handler


def _holed_handler(response_hole: Hole, next_hole: Hole) -> Handler:
    def handler(view: View, cache: int, ctx) -> None:
        ctx.resolve(response_hole).fn(view, cache)
        view.caches[cache] = ctx.resolve(next_hole).payload

    return handler


def reference_cache_table() -> Dict[Tuple[int, str], Handler]:
    """The complete cache controller (transients from the reference table)."""
    def load(view, cache, ctx):
        view.send(GETS, cache)
        view.caches[cache] = C_IS_D

    def store_i(view, cache, ctx):
        view.send(GETM, cache)
        view.caches[cache] = C_IM_D

    def store_s(view, cache, ctx):
        view.send(GETM, cache)
        view.caches[cache] = C_SM_D

    def store_e(view, cache, ctx):
        # The MESI hallmark: silent upgrade, no directory traffic.
        view.caches[cache] = C_M

    def inv_ack_to_i(view, cache, ctx):
        view.send(INVACK, cache)
        view.caches[cache] = C_I

    def inv_stale(view, cache, ctx):
        view.send(INVACK, cache)

    table: Dict[Tuple[int, str], Handler] = {
        (C_I, LOAD): load,
        (C_I, STORE): store_i,
        (C_S, STORE): store_s,
        (C_E, STORE): store_e,
        (C_S, INV): inv_ack_to_i,
        (C_E, INV): inv_ack_to_i,
        (C_M, INV): inv_ack_to_i,
        (C_I, INV): inv_stale,
    }
    for key, names in REFERENCE_CACHE_COMPLETIONS.items():
        table[key] = _completion_handler(*names)
    return table


# -- directory controller --------------------------------------------------------------

#: holeable directory completions: (response, next, track) by name
REFERENCE_DIR_COMPLETIONS: Dict[Tuple[int, str], Tuple[str, str, str]] = {
    (D_IE_A, DATAACK): ("none", "goto_EM", "none"),
    (D_SM_A, INVACK): ("send_data_excl", "goto_IE_A", "owner_is_req"),
    (D_ES_A, INVACK): ("send_data_shared", "goto_S", "add_req_sharer"),
    (D_EM_A, INVACK): ("send_data_excl", "goto_IE_A", "owner_is_req"),
}

ACK_COUNTING = frozenset({(D_SM_A, INVACK), (D_ES_A, INVACK), (D_EM_A, INVACK)})

DIR_TABLE_ORDER: Tuple[Tuple[int, str], ...] = (
    (D_I, GETS),
    (D_I, GETM),
    (D_S, GETS),
    (D_S, GETM),
    (D_EM, GETS),
    (D_EM, GETM),
    (D_IE_A, DATAACK),
    (D_SM_A, INVACK),
    (D_ES_A, INVACK),
    (D_EM_A, INVACK),
)


def dir_response_domain() -> List[Action]:
    """Candidate responses for holeable directory rules."""
    def send_data_shared(view: View, cache: int) -> None:
        if view.req >= 0:
            view.send(DATAS, view.req)

    def send_data_excl(view: View, cache: int) -> None:
        if view.req >= 0:
            view.send(DATAE, view.req)

    def send_inv_sharers(view: View, cache: int) -> None:
        targets = view.sharers - ({view.req} if view.req >= 0 else set())
        for target in sorted(targets):
            view.send(INV, target)
        view.acks = len(targets)

    def send_inv_owner(view: View, cache: int) -> None:
        if view.owner >= 0:
            view.send(INV, view.owner)
            view.acks = 1

    return [
        Action("none", fn=lambda view, cache: None),
        Action("send_data_shared", fn=send_data_shared),
        Action("send_data_excl", fn=send_data_excl),
        Action("send_inv_sharers", fn=send_inv_sharers),
        Action("send_inv_owner", fn=send_inv_owner),
    ]


def dir_next_domain() -> List[Action]:
    """Candidate directory next-states."""
    return [
        Action(f"goto_{name}", payload=code)
        for code, name in enumerate(DIR_STATE_NAMES)
    ]


def dir_track_domain() -> List[Action]:
    """Candidate sharer/owner bookkeeping updates."""
    def owner_is_req(view: View, cache: int) -> None:
        if view.req >= 0:
            view.owner = view.req
            view.sharers = frozenset()

    def add_req_sharer(view: View, cache: int) -> None:
        if view.req >= 0:
            view.sharers = view.sharers | {view.req}
            view.owner = -1

    return [
        Action("none", fn=lambda view, cache: None),
        Action("owner_is_req", fn=owner_is_req),
        Action("add_req_sharer", fn=add_req_sharer),
    ]


_DIR_RESPONSES = {a.name: a for a in dir_response_domain()}
_DIR_TRACKS = {a.name: a for a in dir_track_domain()}
_DIR_NEXTS = {a.name: a for a in dir_next_domain()}


def _dir_triple(view: View, cache: int, response: str, nxt: str, track: str) -> None:
    _DIR_RESPONSES[response].fn(view, cache)
    _DIR_TRACKS[track].fn(view, cache)
    view.goto_dir(_DIR_NEXTS[nxt].payload)


def _dir_completion_handler(key, response: str, nxt: str, track: str) -> Handler:
    counts_acks = key in ACK_COUNTING

    def handler(view: View, cache: int, ctx: object) -> None:
        if counts_acks:
            view.acks -= 1
            if view.acks > 0:
                return
        _dir_triple(view, cache, response, nxt, track)

    return handler


def _dir_holed_handler(key, holes: Tuple[Hole, Hole, Hole]) -> Handler:
    response_hole, next_hole, track_hole = holes
    counts_acks = key in ACK_COUNTING

    def handler(view: View, cache: int, ctx) -> None:
        if counts_acks:
            view.acks -= 1
            if view.acks > 0:
                return
        ctx.resolve(response_hole).fn(view, cache)
        ctx.resolve(track_hole).fn(view, cache)
        view.goto_dir(ctx.resolve(next_hole).payload)

    return handler


def reference_dir_table() -> Dict[Tuple[int, str], Handler]:
    """The complete directory controller."""
    def gets_in_i(view, cache, ctx):
        # No other copy exists: grant *exclusive* (the E optimisation) and
        # serialise until the grantee acks.
        view.req = cache
        _dir_triple(view, cache, "send_data_excl", "goto_IE_A", "owner_is_req")

    def getm_in_i(view, cache, ctx):
        view.req = cache
        _dir_triple(view, cache, "send_data_excl", "goto_IE_A", "owner_is_req")

    def gets_in_s(view, cache, ctx):
        view.req = cache
        _dir_triple(view, cache, "send_data_shared", "goto_S", "add_req_sharer")

    def getm_in_s(view, cache, ctx):
        view.req = cache
        targets = view.sharers - {cache}
        if targets:
            _dir_triple(view, cache, "send_inv_sharers", "goto_SM_A", "none")
        else:
            _dir_triple(view, cache, "send_data_excl", "goto_IE_A", "owner_is_req")

    def gets_in_em(view, cache, ctx):
        view.req = cache
        _dir_triple(view, cache, "send_inv_owner", "goto_ES_A", "none")

    def getm_in_em(view, cache, ctx):
        view.req = cache
        _dir_triple(view, cache, "send_inv_owner", "goto_EM_A", "none")

    table: Dict[Tuple[int, str], Handler] = {
        (D_I, GETS): gets_in_i,
        (D_I, GETM): getm_in_i,
        (D_S, GETS): gets_in_s,
        (D_S, GETM): getm_in_s,
        (D_EM, GETS): gets_in_em,
        (D_EM, GETM): getm_in_em,
    }
    for key, names in REFERENCE_DIR_COMPLETIONS.items():
        table[key] = _dir_completion_handler(key, *names)
    return table


# -- properties -----------------------------------------------------------------------

_EXCLUSIVE = frozenset({C_E, C_M})
_READABLE = frozenset({C_S, C_E, C_M})


def _mesi_swmr(state) -> bool:
    caches = state[0]
    exclusive = sum(1 for c in caches if c in _EXCLUSIVE)
    readers = sum(1 for c in caches if c in _READABLE)
    if exclusive > 1:
        return False
    return not (exclusive == 1 and readers > 1)


def _no_unexpected_message(state) -> bool:
    caches, dirst, _owner, _sharers, _req, _acks, net = state
    for mtype, cache in net.distinct():
        expected_cache = CACHE_EXPECTS.get(mtype)
        if expected_cache is not None:
            if caches[cache] not in expected_cache:
                return False
            continue
        expected_dir = DIR_EXPECTS.get(mtype)
        if expected_dir is not None and dirst not in expected_dir:
            return False
    return True


def _dir_bookkeeping(state) -> bool:
    _caches, dirst, owner, sharers, _req, _acks, _net = state
    if dirst == D_EM and owner < 0:
        return False
    if dirst == D_S and not sharers:
        return False
    return True


_WAIT_EXPECTATIONS = {
    C_IS_D: (GETS, DATAS, DATAE, INV),
    C_IS_D_I: (GETS, DATAS, DATAE),
    C_IM_D: (GETM, DATAE, INV),
    C_SM_D: (GETM, DATAE, INV),
}


def _no_orphaned_wait(state) -> bool:
    caches, dirst, _owner, _sharers, req, _acks, net = state
    for index, cache_state in enumerate(caches):
        expected = _WAIT_EXPECTATIONS.get(cache_state)
        if expected is None:
            continue
        if req == index and dirst not in DIR_STABLE:
            continue
        if any((mtype, index) in net for mtype in expected):
            continue
        return False
    return True


def _quiescent(state) -> bool:
    caches, dirst, _owner, _sharers, _req, _acks, net = state
    if net:
        return False
    if dirst not in DIR_STABLE:
        return False
    return all(c in CACHE_STABLE for c in caches)


def mesi_invariants(n_caches: int) -> List[Invariant]:
    """Safety property set: coherence plus message/bookkeeping integrity."""
    bound = 2 * n_caches + 2
    return [
        Invariant("swmr", _mesi_swmr),
        Invariant("no-unexpected-message", _no_unexpected_message),
        Invariant("dir-bookkeeping", _dir_bookkeeping),
        Invariant("no-orphaned-wait", _no_orphaned_wait),
        Invariant("network-bounded", lambda s, _b=bound: len(s[6]) <= _b),
    ]


def mesi_coverage(n_caches: int) -> List[CoverageProperty]:
    """Coverage: every stable state must actually be used."""
    properties = [
        CoverageProperty("some-cache-reaches-E", lambda s: C_E in s[0]),
        CoverageProperty("some-cache-reaches-M", lambda s: C_M in s[0]),
        CoverageProperty("dir-reaches-EM", lambda s: s[1] == D_EM),
    ]
    if n_caches >= 2:
        # A lone cache is always granted exclusively; S needs two readers.
        properties.extend(
            [
                CoverageProperty("some-cache-reaches-S", lambda s: C_S in s[0]),
                CoverageProperty("dir-reaches-S", lambda s: s[1] == D_S),
            ]
        )
    return properties


# -- assembly -------------------------------------------------------------------------


def _cache_rule(c: int, state_code: int, event: str, handler: Handler) -> Rule:
    state_name = CACHE_STATE_NAMES[state_code]
    if event in _SPONTANEOUS:
        def guard(state, _c=c, _code=state_code):
            return state[0][_c] == _code
    else:
        def guard(state, _c=c, _code=state_code, _ev=event):
            return state[0][_c] == _code and (_ev, _c) in state[6]

    def apply(state, ctx, _c=c, _ev=event, _handler=handler):
        view = View(state)
        if _ev not in _SPONTANEOUS:
            view.consume(_ev, _c)
        _handler(view, _c, ctx)
        return [view.freeze()]

    return Rule(f"cache{c}:{state_name}+{event}", guard, apply, params={"c": c})


def _dir_rule(c: int, state_code: int, event: str, handler: Handler) -> Rule:
    state_name = DIR_STATE_NAMES[state_code]

    def guard(state, _c=c, _code=state_code, _ev=event):
        return state[1] == _code and (_ev, _c) in state[6]

    def apply(state, ctx, _c=c, _ev=event, _handler=handler):
        view = View(state)
        view.consume(_ev, _c)
        _handler(view, _c, ctx)
        return [view.freeze()]

    return Rule(f"dir:{state_name}+{event}[c={c}]", guard, apply, params={"c": c})


def build_mesi_system(
    n_caches: int = 2,
    cache_table: Optional[Dict] = None,
    dir_table: Optional[Dict] = None,
    name: str = "mesi",
    symmetry: bool = True,
    coverage: bool = True,
) -> TransitionSystem:
    """The complete MESI protocol (or a skeleton when tables are passed)."""
    if n_caches < 1:
        raise ValueError("n_caches must be >= 1")
    cache_table = cache_table if cache_table is not None else reference_cache_table()
    dir_table = dir_table if dir_table is not None else reference_dir_table()

    rules = []
    for c in range(n_caches):
        for key in CACHE_TABLE_ORDER:
            if key in cache_table:
                rules.append(_cache_rule(c, key[0], key[1], cache_table[key]))
    for key in DIR_TABLE_ORDER:
        if key in dir_table:
            for c in range(n_caches):
                rules.append(_dir_rule(c, key[0], key[1], dir_table[key]))

    canonicalize = None
    if symmetry and n_caches > 1:
        permuter = Permuter.for_single(
            ScalarSet("cache", n_caches), permute_state,
            replica_keys=replica_keys,
        )
        canonicalize = permuter.canonicalize

    return TransitionSystem(
        name=f"{name}-{n_caches}c",
        initial_states=[initial_state(n_caches)],
        rules=rules,
        invariants=mesi_invariants(n_caches),
        coverage=mesi_coverage(n_caches) if coverage else [],
        deadlock=DeadlockPolicy.fail(quiescent=_quiescent),
        canonicalize=canonicalize,
        # MESI shares the MSI 7-tuple layout, so the discovery spec is shared.
        packed_spec=packed_spec(n_caches, symmetry=symmetry),
    )


# -- skeletons -------------------------------------------------------------------------

REFERENCE_ASSIGNMENT_NAMES: Dict[str, str] = {}
for (code, event), (resp, nxt) in REFERENCE_CACHE_COMPLETIONS.items():
    _rule = f"{CACHE_STATE_NAMES[code]}+{event}"
    REFERENCE_ASSIGNMENT_NAMES[f"mesi.cache.{_rule}.response"] = resp
    REFERENCE_ASSIGNMENT_NAMES[f"mesi.cache.{_rule}.next"] = nxt
for (code, event), (resp, nxt, track) in REFERENCE_DIR_COMPLETIONS.items():
    _rule = f"{DIR_STATE_NAMES[code]}+{event}"
    REFERENCE_ASSIGNMENT_NAMES[f"mesi.dir.{_rule}.response"] = resp
    REFERENCE_ASSIGNMENT_NAMES[f"mesi.dir.{_rule}.next"] = nxt
    REFERENCE_ASSIGNMENT_NAMES[f"mesi.dir.{_rule}.track"] = track


def build_mesi_skeleton(
    cache_rules: Tuple[Tuple[int, str], ...] = ((C_IS_D, DATAE),),
    dir_rules: Tuple[Tuple[int, str], ...] = (),
    n_caches: int = 2,
    coverage: bool = True,
) -> Tuple[TransitionSystem, List[Hole]]:
    """A MESI skeleton with the given transient rules blanked out.

    The default holes the exclusive-grant arrival (IS_D+DataE): should the
    cache take E, and must it acknowledge?  Only (send_dataack, goto_E)
    satisfies the coverage property that some cache actually reaches E.
    """
    cache_table = reference_cache_table()
    dir_table = reference_dir_table()
    holes: List[Hole] = []

    for key in cache_rules:
        if key not in REFERENCE_CACHE_COMPLETIONS:
            raise SynthesisError(f"cache rule {key} is not holeable")
        rule = f"{CACHE_STATE_NAMES[key[0]]}+{key[1]}"
        response = Hole(f"mesi.cache.{rule}.response", cache_response_domain())
        next_state = Hole(f"mesi.cache.{rule}.next", cache_next_domain())
        cache_table[key] = _holed_handler(response, next_state)
        holes.extend([response, next_state])

    for key in dir_rules:
        if key not in REFERENCE_DIR_COMPLETIONS:
            raise SynthesisError(f"directory rule {key} is not holeable")
        rule = f"{DIR_STATE_NAMES[key[0]]}+{key[1]}"
        triple = (
            Hole(f"mesi.dir.{rule}.response", dir_response_domain()),
            Hole(f"mesi.dir.{rule}.next", dir_next_domain()),
            Hole(f"mesi.dir.{rule}.track", dir_track_domain()),
        )
        dir_table[key] = _dir_holed_handler(key, triple)
        holes.extend(triple)

    system = build_mesi_system(
        n_caches=n_caches,
        cache_table=cache_table,
        dir_table=dir_table,
        name="mesi-skeleton",
        coverage=coverage,
    )
    return system, holes


def reference_assignment_for(holes: List[Hole]) -> Dict[str, str]:
    """Restrict the full reference assignment to the given holes."""
    return {hole.name: REFERENCE_ASSIGNMENT_NAMES[hole.name] for hole in holes}

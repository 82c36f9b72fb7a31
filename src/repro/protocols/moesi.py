"""A directory-based MOESI coherence protocol (scope extension).

MOESI adds the **Owned** state to MESI: a cache whose dirty line is read by
another cache does not write back and invalidate — it *keeps* the dirty data
in state ``O`` and supplies it to readers itself.  That one optimisation
changes the directory's shape:

* a ``GetS`` hitting an ``EM`` or ``O`` owner is **forwarded**
  (``FwdGetS``) instead of answered from memory; the owner sends the data
  straight to the requester and tells the directory how it reacted —
  ``AckO`` ("I kept ownership", the M -> O hallmark transition) or ``AckS``
  ("I was clean, I downgraded to S");
* the directory therefore has a stable **O** state (a dirty owner *plus*
  sharers) in addition to MESI's ``EM``, and a ``GetM`` arriving in ``O``
  must invalidate the sharers *and* the owner before granting.

State layout is byte-for-byte the MSI/MESI tuple::

    (caches, dirst, owner, sharers, req, acks, net)

Cache states: I, S, E, O, M, IS_D, IM_D, SM_D, OM_A, IS_D_I.
Directory states: I, S, EM, O, IE_A, SM_A, EM_A, EO_A, OM_AD.
Messages: GetS, GetM, DataS, DataE, Inv, InvAck, DataAck, FwdGetS, AckO,
AckS.

Because the model carries no concrete data values, data-value integrity is
expressed as the **owner-holds-data** invariant: whenever the directory's
stable state says a cache is responsible for supplying data, that cache is
in a state in which it actually has the data (see
:func:`moesi_invariants`).  A designated seeded bug
(``build_moesi_system(..., bug="no-owner-inv")``) grants exclusive access
without invalidating the owner and is caught by the coherence invariant.
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

# Same 7-tuple layout as MSI/MESI, so the sorted-replica fast path is shared.
from repro.protocols.msi.defs import packed_spec, replica_keys

# -- states ---------------------------------------------------------------------

(
    C_I,
    C_S,
    C_E,
    C_O,
    C_M,
    C_IS_D,
    C_IM_D,
    C_SM_D,
    C_OM_A,
    C_IS_D_I,
) = range(10)
CACHE_STATE_NAMES = ("I", "S", "E", "O", "M", "IS_D", "IM_D", "SM_D", "OM_A", "IS_D_I")
CACHE_STABLE = frozenset({C_I, C_S, C_E, C_O, C_M})
#: cache states that hold a current copy of the line
CACHE_OWNERLIKE = frozenset({C_E, C_O, C_M, C_OM_A})

D_I, D_S, D_EM, D_O, D_IE_A, D_SM_A, D_EM_A, D_EO_A, D_OM_AD = range(9)
DIR_STATE_NAMES = ("I", "S", "EM", "O", "IE_A", "SM_A", "EM_A", "EO_A", "OM_AD")
DIR_STABLE = frozenset({D_I, D_S, D_EM, D_O})

GETS, GETM = "GetS", "GetM"
DATAS, DATAE = "DataS", "DataE"
INV, INVACK, DATAACK = "Inv", "InvAck", "DataAck"
FWDGETS, ACKO, ACKS = "FwdGetS", "AckO", "AckS"

#: states in which each cache-bound message is acceptable
CACHE_EXPECTS = {
    DATAS: frozenset({C_IS_D, C_IS_D_I}),
    DATAE: frozenset({C_IS_D, C_IM_D, C_SM_D, C_OM_A, C_IS_D_I}),
    INV: frozenset(range(10)),  # invalidations are acked from anywhere
    FWDGETS: CACHE_OWNERLIKE,  # forwards only ever reach a data holder
}
DIR_EXPECTS = {
    INVACK: frozenset({D_SM_A, D_EM_A, D_OM_AD}),
    DATAACK: frozenset({D_IE_A}),
    ACKO: frozenset({D_EO_A}),
    ACKS: frozenset({D_EO_A}),
}

LOAD, STORE = "Load", "Store"
_SPONTANEOUS = frozenset({LOAD, STORE})

State = Tuple

#: seeded-bug names accepted by :func:`build_moesi_system`
BUGS = ("no-owner-inv",)


def initial_state(n_caches: int) -> State:
    """All caches invalid, directory invalid, empty network."""
    return ((C_I,) * n_caches, D_I, -1, frozenset(), -1, 0, Multiset())


class View:
    """Mutable per-firing scratch copy (same shape as the MESI module's)."""

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
        """Move the directory; entering a stable state clears transaction state."""
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
    # The MOESI hallmark: a dirty owner serves the reader and keeps the
    # line in Owned instead of writing back.
    (C_M, FWDGETS): ("fwd_data_keep", "goto_O"),
    (C_E, FWDGETS): ("fwd_data_release", "goto_S"),
    (C_O, FWDGETS): ("fwd_data_keep", "goto_O"),
    (C_OM_A, FWDGETS): ("fwd_data_keep", "goto_OM_A"),
    (C_OM_A, DATAE): ("send_dataack", "goto_M"),
    (C_OM_A, INV): ("send_invack", "goto_IM_D"),
    (C_IS_D, DATAS): ("none", "goto_S"),
    (C_IS_D, DATAE): ("send_dataack", "goto_E"),
    (C_IS_D, INV): ("send_invack", "goto_IS_D_I"),
    (C_IS_D_I, DATAS): ("none", "goto_I"),
    (C_IS_D_I, DATAE): ("send_dataack", "goto_I"),
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
    (C_O, STORE),
    (C_S, INV),
    (C_E, INV),
    (C_O, INV),
    (C_M, INV),
    (C_I, INV),
    (C_M, FWDGETS),
    (C_E, FWDGETS),
    (C_O, FWDGETS),
    (C_OM_A, FWDGETS),
    (C_OM_A, DATAE),
    (C_OM_A, INV),
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
    """Candidate responses for holeable cache rules.

    ``fwd_data_keep``/``fwd_data_release`` implement the owner side of a
    forwarded read: data goes straight to the directory's recorded
    requester, and the directory is told whether ownership was retained.
    """

    def fwd_data_keep(view: View, cache: int) -> None:
        if view.req >= 0:
            view.send(DATAS, view.req)
        view.send(ACKO, cache)

    def fwd_data_release(view: View, cache: int) -> None:
        if view.req >= 0:
            view.send(DATAS, view.req)
        view.send(ACKS, cache)

    return [
        Action("none", fn=lambda view, cache: None),
        Action("send_invack", fn=lambda view, cache: view.send(INVACK, cache)),
        Action("send_dataack", fn=lambda view, cache: view.send(DATAACK, cache)),
        Action("fwd_data_keep", fn=fwd_data_keep),
        Action("fwd_data_release", fn=fwd_data_release),
    ]


def cache_next_domain() -> List[Action]:
    """Candidate next-states for holeable cache rules (all ten states)."""
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
        # Inherited MESI hallmark: silent upgrade, no directory traffic.
        view.caches[cache] = C_M

    def store_o(view, cache, ctx):
        # An owner cannot upgrade silently — sharers must be invalidated.
        view.send(GETM, cache)
        view.caches[cache] = C_OM_A

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
        (C_O, STORE): store_o,
        (C_S, INV): inv_ack_to_i,
        (C_E, INV): inv_ack_to_i,
        (C_O, INV): inv_ack_to_i,
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
    (D_EM_A, INVACK): ("send_data_excl", "goto_IE_A", "owner_is_req"),
    (D_OM_AD, INVACK): ("send_data_excl", "goto_IE_A", "owner_is_req"),
    (D_EO_A, ACKO): ("none", "goto_O", "add_req_sharer"),
    (D_EO_A, ACKS): ("none", "goto_S", "release_owner_shared"),
}

ACK_COUNTING = frozenset({(D_SM_A, INVACK), (D_EM_A, INVACK), (D_OM_AD, INVACK)})

DIR_TABLE_ORDER: Tuple[Tuple[int, str], ...] = (
    (D_I, GETS),
    (D_I, GETM),
    (D_S, GETS),
    (D_S, GETM),
    (D_EM, GETS),
    (D_EM, GETM),
    (D_O, GETS),
    (D_O, GETM),
    (D_IE_A, DATAACK),
    (D_SM_A, INVACK),
    (D_EM_A, INVACK),
    (D_OM_AD, INVACK),
    (D_EO_A, ACKO),
    (D_EO_A, ACKS),
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

    def send_fwd_gets(view: View, cache: int) -> None:
        if view.owner >= 0:
            view.send(FWDGETS, view.owner)

    return [
        Action("none", fn=lambda view, cache: None),
        Action("send_data_shared", fn=send_data_shared),
        Action("send_data_excl", fn=send_data_excl),
        Action("send_inv_sharers", fn=send_inv_sharers),
        Action("send_inv_owner", fn=send_inv_owner),
        Action("send_fwd_gets", fn=send_fwd_gets),
    ]


def dir_next_domain() -> List[Action]:
    """Candidate directory next-states (all nine states)."""
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

    def release_owner_shared(view: View, cache: int) -> None:
        extra = {view.req} if view.req >= 0 else set()
        if view.owner >= 0:
            extra = extra | {view.owner}
        view.sharers = view.sharers | extra
        view.owner = -1

    return [
        Action("none", fn=lambda view, cache: None),
        Action("owner_is_req", fn=owner_is_req),
        Action("add_req_sharer", fn=add_req_sharer),
        Action("release_owner_shared", fn=release_owner_shared),
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


def reference_dir_table(bug: Optional[str] = None) -> Dict[Tuple[int, str], Handler]:
    """The complete directory controller.

    ``bug="no-owner-inv"`` seeds the classic write-serialisation bug: a
    ``GetM`` arriving while the line is Owned grants exclusive access after
    collecting sharer acks but never invalidates the *owner*, so requester
    and owner end up writable/readable together (caught by ``swmr``).
    """

    def gets_in_i(view, cache, ctx):
        # No other copy exists: grant exclusive (the E optimisation) and
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
        # MOESI divergence from MESI: the owner is *forwarded to*, not
        # invalidated — it answers the reader itself.
        view.req = cache
        _dir_triple(view, cache, "send_fwd_gets", "goto_EO_A", "none")

    def getm_in_em(view, cache, ctx):
        view.req = cache
        _dir_triple(view, cache, "send_inv_owner", "goto_EM_A", "none")

    def gets_in_o(view, cache, ctx):
        view.req = cache
        _dir_triple(view, cache, "send_fwd_gets", "goto_EO_A", "none")

    def getm_in_o(view, cache, ctx):
        view.req = cache
        targets = view.sharers - {cache}
        for target in sorted(targets):
            view.send(INV, target)
        acks = len(targets)
        if bug != "no-owner-inv" and view.owner != cache:
            view.send(INV, view.owner)
            acks += 1
        view.acks = acks
        if acks:
            view.goto_dir(D_OM_AD)
        else:
            # Nothing left to invalidate (only reachable with the seeded
            # bug, which skips the owner): grant immediately.
            _dir_triple(view, cache, "send_data_excl", "goto_IE_A", "owner_is_req")

    table: Dict[Tuple[int, str], Handler] = {
        (D_I, GETS): gets_in_i,
        (D_I, GETM): getm_in_i,
        (D_S, GETS): gets_in_s,
        (D_S, GETM): getm_in_s,
        (D_EM, GETS): gets_in_em,
        (D_EM, GETM): getm_in_em,
        (D_O, GETS): gets_in_o,
        (D_O, GETM): getm_in_o,
    }
    for key, names in REFERENCE_DIR_COMPLETIONS.items():
        table[key] = _dir_completion_handler(key, *names)
    return table


# -- properties -----------------------------------------------------------------------

_EXCLUSIVE = frozenset({C_E, C_M})
_READABLE = frozenset({C_S, C_E, C_O, C_M})
_OWNERSHIP = frozenset({C_E, C_O, C_M})


def _moesi_swmr(state) -> bool:
    caches = state[0]
    exclusive = sum(1 for c in caches if c in _EXCLUSIVE)
    owners = sum(1 for c in caches if c in _OWNERSHIP)
    readers = sum(1 for c in caches if c in _READABLE)
    if owners > 1:
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
    if dirst == D_EM and (owner < 0 or sharers):
        return False
    if dirst == D_O and (owner < 0 or not sharers or owner in sharers):
        return False
    if dirst == D_S and (not sharers or owner >= 0):
        return False
    return True


def _owner_holds_data(state) -> bool:
    """The data-integrity abstraction: the directory's designated supplier
    really is in a data-holding state, and recorded sharers really share.

    With no concrete values in the model, "the reader got the right data"
    reduces to "whoever the directory would have supply data actually has
    it" — a violated completion (e.g. an owner that acks ownership but
    drops the line) breaks this immediately.
    """
    caches, dirst, owner, sharers, _req, _acks, _net = state
    if dirst == D_EM and caches[owner] not in (C_E, C_M):
        return False
    if dirst == D_O and caches[owner] not in (C_O, C_OM_A):
        return False
    if dirst in (D_S, D_O):
        # A recorded sharer is either sharing already, upgrading, or still
        # waiting for its (in-flight) data response.
        for sharer in sharers:
            if caches[sharer] not in (C_S, C_SM_D, C_IS_D, C_IS_D_I):
                return False
    return True


_WAIT_EXPECTATIONS = {
    C_IS_D: (GETS, DATAS, DATAE, INV),
    C_IS_D_I: (GETS, DATAS, DATAE),
    C_IM_D: (GETM, DATAE, INV),
    C_SM_D: (GETM, DATAE, INV),
    C_OM_A: (GETM, DATAE, INV),
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


def moesi_invariants(n_caches: int) -> List[Invariant]:
    """Safety property set: coherence, message/bookkeeping/data integrity."""
    bound = 2 * n_caches + 3
    return [
        Invariant("swmr", _moesi_swmr),
        Invariant("no-unexpected-message", _no_unexpected_message),
        Invariant("dir-bookkeeping", _dir_bookkeeping),
        Invariant("owner-holds-data", _owner_holds_data),
        Invariant("no-orphaned-wait", _no_orphaned_wait),
        Invariant("network-bounded", lambda s, _b=bound: len(s[6]) <= _b),
    ]


def moesi_coverage(n_caches: int) -> List[CoverageProperty]:
    """Liveness-ish coverage: every stable state must actually be used."""
    properties = [
        CoverageProperty("some-cache-reaches-E", lambda s: C_E in s[0]),
        CoverageProperty("some-cache-reaches-M", lambda s: C_M in s[0]),
        CoverageProperty("dir-reaches-EM", lambda s: s[1] == D_EM),
    ]
    if n_caches >= 2:
        # O and S both need a second participant: O is entered when a
        # *different* cache reads a dirty line, S when two caches share.
        properties.extend(
            [
                CoverageProperty("some-cache-reaches-O", lambda s: C_O in s[0]),
                CoverageProperty("some-cache-reaches-S", lambda s: C_S in s[0]),
                CoverageProperty("dir-reaches-O", lambda s: s[1] == D_O),
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


def build_moesi_system(
    n_caches: int = 2,
    cache_table: Optional[Dict] = None,
    dir_table: Optional[Dict] = None,
    name: str = "moesi",
    symmetry: bool = True,
    coverage: bool = True,
    bug: Optional[str] = None,
) -> TransitionSystem:
    """The complete MOESI protocol (or a skeleton when tables are passed)."""
    if n_caches < 1:
        raise ValueError("n_caches must be >= 1")
    if bug is not None and bug not in BUGS:
        raise ValueError(f"unknown seeded bug {bug!r}; available: {', '.join(BUGS)}")
    cache_table = cache_table if cache_table is not None else reference_cache_table()
    dir_table = dir_table if dir_table is not None else reference_dir_table(bug=bug)

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
        invariants=moesi_invariants(n_caches),
        coverage=moesi_coverage(n_caches) if coverage else [],
        deadlock=DeadlockPolicy.fail(quiescent=_quiescent),
        canonicalize=canonicalize,
        # MOESI shares the MSI 7-tuple layout, so the discovery spec is shared.
        packed_spec=packed_spec(n_caches, symmetry=symmetry),
    )


# -- skeletons -------------------------------------------------------------------------

REFERENCE_ASSIGNMENT_NAMES: Dict[str, str] = {}
for (code, event), (resp, nxt) in REFERENCE_CACHE_COMPLETIONS.items():
    _rule = f"{CACHE_STATE_NAMES[code]}+{event}"
    REFERENCE_ASSIGNMENT_NAMES[f"moesi.cache.{_rule}.response"] = resp
    REFERENCE_ASSIGNMENT_NAMES[f"moesi.cache.{_rule}.next"] = nxt
for (code, event), (resp, nxt, track) in REFERENCE_DIR_COMPLETIONS.items():
    _rule = f"{DIR_STATE_NAMES[code]}+{event}"
    REFERENCE_ASSIGNMENT_NAMES[f"moesi.dir.{_rule}.response"] = resp
    REFERENCE_ASSIGNMENT_NAMES[f"moesi.dir.{_rule}.next"] = nxt
    REFERENCE_ASSIGNMENT_NAMES[f"moesi.dir.{_rule}.track"] = track


def build_moesi_skeleton(
    cache_rules: Tuple[Tuple[int, str], ...] = ((C_M, FWDGETS),),
    dir_rules: Tuple[Tuple[int, str], ...] = (),
    n_caches: int = 2,
    coverage: bool = True,
) -> Tuple[TransitionSystem, List[Hole]]:
    """A MOESI skeleton with the given transient rules blanked out.

    The default holes the hallmark transition — a dirty owner receiving a
    forwarded read (M+FwdGetS): must the owner keep the line, and what does
    it tell the directory?  With coverage on, only the reference completion
    (``fwd_data_keep``, ``goto_O``) both serves the reader and actually
    reaches the Owned state.
    """
    cache_table = reference_cache_table()
    dir_table = reference_dir_table()
    holes: List[Hole] = []

    for key in cache_rules:
        if key not in REFERENCE_CACHE_COMPLETIONS:
            raise SynthesisError(f"cache rule {key} is not holeable")
        rule = f"{CACHE_STATE_NAMES[key[0]]}+{key[1]}"
        response = Hole(f"moesi.cache.{rule}.response", cache_response_domain())
        next_state = Hole(f"moesi.cache.{rule}.next", cache_next_domain())
        cache_table[key] = _holed_handler(response, next_state)
        holes.extend([response, next_state])

    for key in dir_rules:
        if key not in REFERENCE_DIR_COMPLETIONS:
            raise SynthesisError(f"directory rule {key} is not holeable")
        rule = f"{DIR_STATE_NAMES[key[0]]}+{key[1]}"
        triple = (
            Hole(f"moesi.dir.{rule}.response", dir_response_domain()),
            Hole(f"moesi.dir.{rule}.next", dir_next_domain()),
            Hole(f"moesi.dir.{rule}.track", dir_track_domain()),
        )
        dir_table[key] = _dir_holed_handler(key, triple)
        holes.extend(triple)

    system = build_moesi_system(
        n_caches=n_caches,
        cache_table=cache_table,
        dir_table=dir_table,
        name="moesi-skeleton",
        coverage=coverage,
    )
    return system, holes


def reference_assignment_for(holes: List[Hole]) -> Dict[str, str]:
    """Restrict the full reference assignment to the given holes."""
    return {hole.name: REFERENCE_ASSIGNMENT_NAMES[hole.name] for hole in holes}

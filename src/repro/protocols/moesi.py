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

The state layout, rule compiler and hole builder are the directory
family's (:mod:`repro.protocols.dirfamily`); this module is MOESI's tables.

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

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.action import Action
from repro.core.hole import Hole
from repro.mc.properties import CoverageProperty, Invariant
from repro.mc.system import TransitionSystem
from repro.protocols import dirfamily
from repro.protocols.dirfamily import Handler, View

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

#: what a cache waiting in each transient state is entitled to wait for
WAIT_EXPECTATIONS = {
    C_IS_D: (GETS, DATAS, DATAE, INV),
    C_IS_D_I: (GETS, DATAS, DATAE),
    C_IM_D: (GETM, DATAE, INV),
    C_SM_D: (GETM, DATAE, INV),
    C_OM_A: (GETM, DATAE, INV),
}

LOAD, STORE = "Load", "Store"

#: seeded-bug names accepted by :func:`build_moesi_system`
BUGS = ("no-owner-inv",)

# -- cache controller --------------------------------------------------------------

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


def _load(view: View, cache: int, ctx: object) -> None:
    view.send(GETS, cache)
    view.caches[cache] = C_IS_D


def _store_i(view: View, cache: int, ctx: object) -> None:
    view.send(GETM, cache)
    view.caches[cache] = C_IM_D


def _store_s(view: View, cache: int, ctx: object) -> None:
    view.send(GETM, cache)
    view.caches[cache] = C_SM_D


def _store_e(view: View, cache: int, ctx: object) -> None:
    # Inherited MESI hallmark: silent upgrade, no directory traffic.
    view.caches[cache] = C_M


def _store_o(view: View, cache: int, ctx: object) -> None:
    # An owner cannot upgrade silently — sharers must be invalidated.
    view.send(GETM, cache)
    view.caches[cache] = C_OM_A


def _inv_ack_to_i(view: View, cache: int, ctx: object) -> None:
    view.send(INVACK, cache)
    view.caches[cache] = C_I


def _inv_stale(view: View, cache: int, ctx: object) -> None:
    view.send(INVACK, cache)


#: the designer-written stable entries
CACHE_HANDLERS: Dict[Tuple[int, str], Handler] = {
    (C_I, LOAD): _load,
    (C_I, STORE): _store_i,
    (C_S, STORE): _store_s,
    (C_E, STORE): _store_e,
    (C_O, STORE): _store_o,
    (C_S, INV): _inv_ack_to_i,
    (C_E, INV): _inv_ack_to_i,
    (C_O, INV): _inv_ack_to_i,
    (C_M, INV): _inv_ack_to_i,
    (C_I, INV): _inv_stale,
}

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


_dir_triple = dirfamily.action_triple(
    dir_response_domain(), dir_track_domain(), dir_next_domain()
)


def _gets_in_i(view: View, cache: int, ctx: object) -> None:
    # No other copy exists: grant exclusive (the E optimisation) and
    # serialise until the grantee acks.
    view.req = cache
    _dir_triple(view, cache, "send_data_excl", "goto_IE_A", "owner_is_req")


def _getm_in_i(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _dir_triple(view, cache, "send_data_excl", "goto_IE_A", "owner_is_req")


def _gets_in_s(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _dir_triple(view, cache, "send_data_shared", "goto_S", "add_req_sharer")


def _getm_in_s(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    targets = view.sharers - {cache}
    if targets:
        _dir_triple(view, cache, "send_inv_sharers", "goto_SM_A", "none")
    else:
        _dir_triple(view, cache, "send_data_excl", "goto_IE_A", "owner_is_req")


def _gets_forwarded(view: View, cache: int, ctx: object) -> None:
    # MOESI divergence from MESI: the owner (in EM or O) is *forwarded to*,
    # not invalidated — it answers the reader itself.
    view.req = cache
    _dir_triple(view, cache, "send_fwd_gets", "goto_EO_A", "none")


def _getm_in_em(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _dir_triple(view, cache, "send_inv_owner", "goto_EM_A", "none")


def _getm_in_o(invalidate_owner: bool) -> Handler:
    """A ``GetM`` while the line is Owned: invalidate sharers and owner.

    ``invalidate_owner=False`` seeds the classic write-serialisation bug:
    exclusive access is granted after collecting sharer acks but the
    *owner* is never invalidated, so requester and owner end up
    writable/readable together (caught by ``swmr``).
    """

    def handler(view: View, cache: int, ctx: object) -> None:
        view.req = cache
        targets = view.sharers - {cache}
        for target in sorted(targets):
            view.send(INV, target)
        acks = len(targets)
        if invalidate_owner and view.owner != cache:
            view.send(INV, view.owner)
            acks += 1
        view.acks = acks
        if acks:
            view.goto_dir(D_OM_AD)
        else:
            # Nothing left to invalidate (only reachable with the seeded
            # bug, which skips the owner): grant immediately.
            _dir_triple(view, cache, "send_data_excl", "goto_IE_A", "owner_is_req")

    return handler


#: the designer-written stable entries
DIR_HANDLERS: Dict[Tuple[int, str], Handler] = {
    (D_I, GETS): _gets_in_i,
    (D_I, GETM): _getm_in_i,
    (D_S, GETS): _gets_in_s,
    (D_S, GETM): _getm_in_s,
    (D_EM, GETS): _gets_forwarded,
    (D_EM, GETM): _getm_in_em,
    (D_O, GETS): _gets_forwarded,
    (D_O, GETM): _getm_in_o(invalidate_owner=True),
}

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


def moesi_invariants(n_caches: int) -> List[Invariant]:
    """Safety property set: coherence, message/bookkeeping/data integrity."""
    return [
        Invariant("swmr", _moesi_swmr),
        dirfamily.no_unexpected_message(CACHE_EXPECTS, DIR_EXPECTS),
        Invariant("dir-bookkeeping", _dir_bookkeeping),
        Invariant("owner-holds-data", _owner_holds_data),
        dirfamily.no_orphaned_wait(WAIT_EXPECTATIONS, DIR_STABLE),
        dirfamily.network_bounded(2 * n_caches + 3),
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

MOESI = dirfamily.DirectoryProtocol(
    hole_prefix="moesi.",
    cache_states=CACHE_STATE_NAMES,
    dir_states=DIR_STATE_NAMES,
    view=dirfamily.view_class(DIR_STABLE),
    spontaneous=frozenset({LOAD, STORE}),
    cache_order=CACHE_TABLE_ORDER,
    dir_order=DIR_TABLE_ORDER,
    cache_handlers=CACHE_HANDLERS,
    dir_handlers=DIR_HANDLERS,
    cache_completions=REFERENCE_CACHE_COMPLETIONS,
    dir_completions=REFERENCE_DIR_COMPLETIONS,
    ack_counting=ACK_COUNTING,
    cache_response_domain=cache_response_domain,
    cache_next_domain=cache_next_domain,
    dir_response_domain=dir_response_domain,
    dir_next_domain=dir_next_domain,
    dir_track_domain=dir_track_domain,
    invariants=moesi_invariants,
    coverage=moesi_coverage,
    quiescent=dirfamily.quiescence(CACHE_STABLE, DIR_STABLE),
)

#: MOESI with the ``no-owner-inv`` seeded bug
MOESI_NO_OWNER_INV = dataclasses.replace(
    MOESI,
    dir_handlers={**DIR_HANDLERS, (D_O, GETM): _getm_in_o(invalidate_owner=False)},
)


def build_moesi_system(
    n_caches: int = 2,
    cache_table: Optional[dirfamily.Table] = None,
    dir_table: Optional[dirfamily.Table] = None,
    name: str = "moesi",
    symmetry: bool = True,
    coverage: bool = True,
    bug: Optional[str] = None,
) -> TransitionSystem:
    """The complete MOESI protocol (or a skeleton when tables are passed)."""
    if bug is not None and bug not in BUGS:
        raise ValueError(f"unknown seeded bug {bug!r}; available: {', '.join(BUGS)}")
    protocol = MOESI if bug is None else MOESI_NO_OWNER_INV
    return protocol.system(
        n_caches,
        cache_table,
        dir_table,
        name=name,
        symmetry=symmetry,
        coverage=coverage,
    )


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
    return MOESI.skeleton(
        cache_rules,
        dir_rules,
        n_caches=n_caches,
        name="moesi-skeleton",
        coverage=coverage,
    )


def reference_assignment_for(holes: List[Hole]) -> Dict[str, str]:
    """Hole name -> reference action name, for the given holes."""
    return MOESI.reference_assignment(holes)

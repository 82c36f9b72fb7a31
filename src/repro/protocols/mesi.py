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

The state layout, rule compiler and hole builder are the directory
family's (:mod:`repro.protocols.dirfamily`); this module is MESI's tables.

Cache states: I, S, E, M, IS_D, IM_D, SM_D, IS_D_I.
Directory states: I, S, EM, IE_A, SM_A, ES_A, EM_A.
Messages: GetS, GetM, DataS, DataE, Inv, InvAck, DataAck.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.action import Action
from repro.core.hole import Hole
from repro.mc.properties import CoverageProperty, Invariant
from repro.mc.system import TransitionSystem
from repro.protocols import dirfamily
from repro.protocols.dirfamily import Handler, View

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

#: what a cache waiting in each transient state is entitled to wait for
WAIT_EXPECTATIONS = {
    C_IS_D: (GETS, DATAS, DATAE, INV),
    C_IS_D_I: (GETS, DATAS, DATAE),
    C_IM_D: (GETM, DATAE, INV),
    C_SM_D: (GETM, DATAE, INV),
}

LOAD, STORE = "Load", "Store"

# -- cache controller --------------------------------------------------------------

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
    # The MESI hallmark: silent upgrade, no directory traffic.
    view.caches[cache] = C_M


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
    (C_S, INV): _inv_ack_to_i,
    (C_E, INV): _inv_ack_to_i,
    (C_M, INV): _inv_ack_to_i,
    (C_I, INV): _inv_stale,
}

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


_dir_triple = dirfamily.action_triple(
    dir_response_domain(), dir_track_domain(), dir_next_domain()
)


def _gets_in_i(view: View, cache: int, ctx: object) -> None:
    # No other copy exists: grant *exclusive* (the E optimisation) and
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


def _gets_in_em(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _dir_triple(view, cache, "send_inv_owner", "goto_ES_A", "none")


def _getm_in_em(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _dir_triple(view, cache, "send_inv_owner", "goto_EM_A", "none")


#: the designer-written stable entries
DIR_HANDLERS: Dict[Tuple[int, str], Handler] = {
    (D_I, GETS): _gets_in_i,
    (D_I, GETM): _getm_in_i,
    (D_S, GETS): _gets_in_s,
    (D_S, GETM): _getm_in_s,
    (D_EM, GETS): _gets_in_em,
    (D_EM, GETM): _getm_in_em,
}

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


def _dir_bookkeeping(state) -> bool:
    _caches, dirst, owner, sharers, _req, _acks, _net = state
    if dirst == D_EM and owner < 0:
        return False
    if dirst == D_S and not sharers:
        return False
    return True


def mesi_invariants(n_caches: int) -> List[Invariant]:
    """Safety property set: coherence plus message/bookkeeping integrity."""
    return [
        Invariant("swmr", _mesi_swmr),
        dirfamily.no_unexpected_message(CACHE_EXPECTS, DIR_EXPECTS),
        Invariant("dir-bookkeeping", _dir_bookkeeping),
        dirfamily.no_orphaned_wait(WAIT_EXPECTATIONS, DIR_STABLE),
        dirfamily.network_bounded(2 * n_caches + 2),
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

MESI = dirfamily.DirectoryProtocol(
    hole_prefix="mesi.",
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
    invariants=mesi_invariants,
    coverage=mesi_coverage,
    quiescent=dirfamily.quiescence(CACHE_STABLE, DIR_STABLE),
)


def build_mesi_system(
    n_caches: int = 2,
    cache_table: Optional[dirfamily.Table] = None,
    dir_table: Optional[dirfamily.Table] = None,
    name: str = "mesi",
    symmetry: bool = True,
    coverage: bool = True,
) -> TransitionSystem:
    """The complete MESI protocol (or a skeleton when tables are passed)."""
    return MESI.system(
        n_caches,
        cache_table,
        dir_table,
        name=name,
        symmetry=symmetry,
        coverage=coverage,
    )


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
    return MESI.skeleton(
        cache_rules,
        dir_rules,
        n_caches=n_caches,
        name="mesi-skeleton",
        coverage=coverage,
    )


def reference_assignment_for(holes: List[Hole]) -> Dict[str, str]:
    """Hole name -> reference action name, for the given holes."""
    return MESI.reference_assignment(holes)

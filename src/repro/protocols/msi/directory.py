"""The MSI directory controller.

Stable-state request handling is designer-provided (including the data-path
conditionals); the four transient completions are the synthesis targets.
The directory stalls GetS/GetM while in a transient state simply by having
no rule consume them there — on an unordered network the requests wait in
the message bag, exactly the serialisation the paper describes for its
Invalid-to-Modified (here ``IM_A``) transient.

Ack counting: a transient entered expecting N invalidation acks decrements
``acks`` per InvAck and applies its completion actions when the count hits
zero; the completion is what skeletons replace with holes (holes are only
resolved on the completing ack, so lazy discovery sees them exactly when
the interesting decision is due).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.protocols.dirfamily import Handler, View, action_triple
from repro.protocols.msi import defs
from repro.protocols.msi.actions import (
    dir_next_domain,
    dir_response_domain,
    dir_track_domain,
)

#: the (state, event) keys of directory rules eligible for holes, with the
#: reference (response, next_state, track) action names.
REFERENCE_DIR_COMPLETIONS: Dict[Tuple[int, str], Tuple[str, str, str]] = {
    (defs.D_SM_A, defs.INVACK): ("send_data", "goto_IM_A", "owner_is_req"),
    (defs.D_MM_A, defs.INVACK): ("send_data", "goto_IM_A", "owner_is_req"),
    (defs.D_MS_A, defs.INVACK): ("send_data", "goto_S", "add_req_sharer"),
    (defs.D_IM_A, defs.DATAACK): ("none", "goto_M", "none"),
}

#: rules that count invalidation acks before completing
ACK_COUNTING: frozenset = frozenset(
    {(defs.D_SM_A, defs.INVACK), (defs.D_MM_A, defs.INVACK), (defs.D_MS_A, defs.INVACK)}
)

DIR_TABLE_ORDER: Tuple[Tuple[int, str], ...] = (
    (defs.D_I, defs.GETS),
    (defs.D_I, defs.GETM),
    (defs.D_S, defs.GETS),
    (defs.D_S, defs.GETM),
    (defs.D_M, defs.GETS),
    (defs.D_M, defs.GETM),
    (defs.D_IM_A, defs.DATAACK),
    (defs.D_MM_A, defs.INVACK),
    (defs.D_SM_A, defs.INVACK),
    (defs.D_MS_A, defs.INVACK),
)

#: eviction extension: writebacks are accepted in the stable states (and
#: stall, like requests, while the directory is in a transient).
EVICTION_DIR_TABLE_ORDER: Tuple[Tuple[int, str], ...] = (
    (defs.D_I, defs.PUTM),
    (defs.D_S, defs.PUTM),
    (defs.D_M, defs.PUTM),
)

#: apply(view, cache, response, next, track) by action name
_apply_triple = action_triple(
    dir_response_domain(), dir_track_domain(), dir_next_domain()
)


def _gets_in_i(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _apply_triple(view, cache, "send_data", "goto_S", "add_req_sharer")


def _getm_in_i(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _apply_triple(view, cache, "send_data", "goto_IM_A", "owner_is_req")


def _gets_in_s(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _apply_triple(view, cache, "send_data", "goto_S", "add_req_sharer")


def _getm_in_s(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    targets = view.sharers - {cache}
    if targets:
        _apply_triple(view, cache, "send_inv_sharers", "goto_SM_A", "none")
    else:
        # The requestor is the only sharer (or sharers raced away): grant
        # directly, but still serialise through IM_A until it acks the data.
        _apply_triple(view, cache, "send_data", "goto_IM_A", "owner_is_req")


def _gets_in_m(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _apply_triple(view, cache, "send_inv_owner", "goto_MS_A", "none")


def _getm_in_m(view: View, cache: int, ctx: object) -> None:
    view.req = cache
    _apply_triple(view, cache, "send_inv_owner", "goto_MM_A", "none")


def _putm(view: View, cache: int, ctx: object) -> None:
    """Accept a writeback.

    From the current owner (only possible in M) the line returns to the
    directory: ack and go Invalid.  From anybody else the writeback is
    stale — the evictor already lost ownership to a crossing invalidation —
    and is acked without a state change (the evictor waits in II_A).
    """
    view.send(defs.PUTACK, cache)
    if view.dirst == defs.D_M and view.owner == cache:
        view.owner = -1
        view.goto_dir(defs.D_I)


#: the designer-written stable entries
DIR_HANDLERS: Dict[Tuple[int, str], Handler] = {
    (defs.D_I, defs.GETS): _gets_in_i,
    (defs.D_I, defs.GETM): _getm_in_i,
    (defs.D_S, defs.GETS): _gets_in_s,
    (defs.D_S, defs.GETM): _getm_in_s,
    (defs.D_M, defs.GETS): _gets_in_m,
    (defs.D_M, defs.GETM): _getm_in_m,
}

#: the stable entries of the eviction extension
EVICTION_DIR_HANDLERS: Dict[Tuple[int, str], Handler] = {
    key: _putm for key in EVICTION_DIR_TABLE_ORDER
}

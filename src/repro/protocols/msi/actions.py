"""The designer's action library for MSI hole synthesis.

The paper sizes the per-hole domains as: "response" (3 for cache controller,
5 for directory controller), "next state" (7 for cache, 7 for directory) and
"track" (3 for directory).  A directory transition rule is a sequence of
three holes (response, next-state, track: 5*7*3 = 105 combinations); a cache
rule is two holes (response, next-state: 3*7 = 21).  These domain sizes make
the Table I candidate spaces come out exactly: MSI-small = 105^2 * 21 =
231,525 and MSI-large = 105^2 * 21^3 = 102,102,525.

Action application order within a rule: response (reads pre-update
bookkeeping), then track, then next-state.  Response and track actions are
defensive no-ops when their subject is absent (no owner, no requestor): the
synthesiser will try them in contexts where they are meaningless, and a
no-op simply produces a (probably wrong) candidate instead of crashing.
"""

from __future__ import annotations

from typing import List

from repro.core.action import Action
from repro.protocols.msi import defs
from repro.protocols.msi.defs import View

# -- cache response actions (3) ------------------------------------------------


def _cache_none(view: View, cache: int) -> None:
    """Do not send anything."""


def _cache_send_invack(view: View, cache: int) -> None:
    """Acknowledge an invalidation to the directory."""
    view.send(defs.INVACK, cache)


def _cache_send_dataack(view: View, cache: int) -> None:
    """Acknowledge receipt of data to the directory (completes dir IM_A)."""
    view.send(defs.DATAACK, cache)


def _cache_send_putm(view: View, cache: int) -> None:
    """Issue a writeback of the modified line (eviction extension)."""
    view.send(defs.PUTM, cache)


def cache_response_domain(extended: bool = False) -> List[Action]:
    """The base domain has the paper's 3 actions; ``extended=True`` adds
    the writeback for eviction-variant skeletons."""
    domain = [
        Action("none", fn=_cache_none),
        Action("send_invack", fn=_cache_send_invack),
        Action("send_dataack", fn=_cache_send_dataack),
    ]
    if extended:
        domain.append(Action("send_putm", fn=_cache_send_putm))
    return domain


# -- cache next-state actions (7) -----------------------------------------------


def cache_next_domain(extended: bool = False) -> List[Action]:
    """One ``goto`` per cache state; the payload is the state code.

    The default domain covers the 7 eviction-free states (preserving the
    paper's 3 x 7 cache-rule arithmetic); ``extended=True`` adds the
    eviction transients MI_A and II_A for eviction-variant skeletons.
    """
    limit = len(defs.CACHE_STATE_NAMES) if extended else defs.BASE_CACHE_STATES
    return [
        Action(f"goto_{name}", payload=code)
        for code, name in enumerate(defs.CACHE_STATE_NAMES[:limit])
    ]


# -- directory response actions (5) ----------------------------------------------


def _dir_none(view: View, cache: int) -> None:
    """Do not send anything."""


def _dir_send_data(view: View, cache: int) -> None:
    """Send data to the pending requestor."""
    if view.req >= 0:
        view.send(defs.DATA, view.req)


def _dir_send_inv_sharers(view: View, cache: int) -> None:
    """Invalidate every sharer except the requestor; expect that many acks."""
    targets = view.sharers - ({view.req} if view.req >= 0 else set())
    for target in sorted(targets):
        view.send(defs.INV, target)
    view.acks = len(targets)


def _dir_send_inv_owner(view: View, cache: int) -> None:
    """Invalidate the current owner; expect one ack."""
    if view.owner >= 0:
        view.send(defs.INV, view.owner)
        view.acks = 1


def _dir_send_data_sharers(view: View, cache: int) -> None:
    """Broadcast data to all sharers (a plausible but wrong decoy)."""
    for target in sorted(view.sharers):
        view.send(defs.DATA, target)


def dir_response_domain() -> List[Action]:
    return [
        Action("none", fn=_dir_none),
        Action("send_data", fn=_dir_send_data),
        Action("send_inv_sharers", fn=_dir_send_inv_sharers),
        Action("send_inv_owner", fn=_dir_send_inv_owner),
        Action("send_data_sharers", fn=_dir_send_data_sharers),
    ]


# -- directory track actions (3) ---------------------------------------------------


def _track_none(view: View, cache: int) -> None:
    """Keep ownership bookkeeping unchanged."""


def _track_owner_is_req(view: View, cache: int) -> None:
    """Transfer ownership to the requestor; nobody shares any more."""
    if view.req >= 0:
        view.owner = view.req
        view.sharers = frozenset()


def _track_add_req_sharer(view: View, cache: int) -> None:
    """Add the requestor to the sharers; the line is no longer owned."""
    if view.req >= 0:
        view.sharers = view.sharers | {view.req}
        view.owner = -1


def dir_track_domain() -> List[Action]:
    return [
        Action("none", fn=_track_none),
        Action("owner_is_req", fn=_track_owner_is_req),
        Action("add_req_sharer", fn=_track_add_req_sharer),
    ]


# -- directory next-state actions (7) -------------------------------------------------


def dir_next_domain() -> List[Action]:
    return [
        Action(f"goto_{name}", payload=code)
        for code, name in enumerate(defs.DIR_STATE_NAMES)
    ]

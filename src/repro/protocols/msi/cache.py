"""The MSI cache controller.

Two kinds of table entries:

* *Stable* entries (spontaneous Load/Store events and Inv received in the
  stable states S/M) — always designer-provided.  The paper's case study
  assumes "the designer can complete the protocol's stable states and the
  transition rules leading from stable states to transient states".
* *Transient* entries — the synthesis targets.  Each is a (response,
  next-state) action pair; the reference completion below is the known-good
  protocol, and skeletons replace chosen entries with hole resolutions.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.protocols.dirfamily import Handler, View
from repro.protocols.msi import defs

LOAD = "Load"
STORE = "Store"
EVICT = "Evict"

#: cache events that consume no message
SPONTANEOUS = frozenset({LOAD, STORE, EVICT})

#: the (state, event) keys of cache transition rules eligible for holes,
#: with the reference (response, next_state) action names.
REFERENCE_CACHE_COMPLETIONS: Dict[Tuple[int, str], Tuple[str, str]] = {
    (defs.C_IS_D, defs.DATA): ("none", "goto_S"),
    (defs.C_IS_D, defs.INV): ("send_invack", "goto_IS_D_I"),
    (defs.C_IS_D_I, defs.DATA): ("none", "goto_I"),
    (defs.C_IM_D, defs.DATA): ("send_dataack", "goto_M"),
    # A stale invalidation while fetching-for-store: ack and keep waiting.
    # Unreachable in the reference protocol, but candidate completions that
    # drop data early make it reachable (the directory may still list the
    # cache as a sharer).
    (defs.C_IM_D, defs.INV): ("send_invack", "goto_IM_D"),
    (defs.C_SM_D, defs.DATA): ("send_dataack", "goto_M"),
    (defs.C_SM_D, defs.INV): ("send_invack", "goto_IM_D"),
    # Same stale-invalidation situation while waiting to drop stale data.
    (defs.C_IS_D_I, defs.INV): ("send_invack", "goto_IS_D_I"),
}

#: additional holeable transients of the eviction extension: the writeback
#: handshake and its race with a crossing invalidation.
EVICTION_CACHE_COMPLETIONS: Dict[Tuple[int, str], Tuple[str, str]] = {
    (defs.C_MI_A, defs.PUTACK): ("none", "goto_I"),
    (defs.C_MI_A, defs.INV): ("send_invack", "goto_II_A"),
    (defs.C_II_A, defs.PUTACK): ("none", "goto_I"),
}

#: deterministic rule ordering (spontaneous events first, then receives);
#: hole discovery order follows this.
CACHE_TABLE_ORDER: Tuple[Tuple[int, str], ...] = (
    (defs.C_I, LOAD),
    (defs.C_I, STORE),
    (defs.C_S, STORE),
    (defs.C_S, defs.INV),
    (defs.C_M, defs.INV),
    (defs.C_I, defs.INV),
    (defs.C_IM_D, defs.DATA),
    (defs.C_IM_D, defs.INV),
    (defs.C_SM_D, defs.DATA),
    (defs.C_SM_D, defs.INV),
    (defs.C_IS_D, defs.DATA),
    (defs.C_IS_D, defs.INV),
    (defs.C_IS_D_I, defs.DATA),
    (defs.C_IS_D_I, defs.INV),
)

#: rule ordering of the eviction extension (appended after the base rules)
EVICTION_TABLE_ORDER: Tuple[Tuple[int, str], ...] = (
    (defs.C_M, EVICT),
    (defs.C_S, EVICT),
    (defs.C_MI_A, defs.PUTACK),
    (defs.C_MI_A, defs.INV),
    (defs.C_II_A, defs.PUTACK),
)


def _load_from_i(view: View, cache: int, ctx: object) -> None:
    view.send(defs.GETS, cache)
    view.caches[cache] = defs.C_IS_D


def _store_from_i(view: View, cache: int, ctx: object) -> None:
    view.send(defs.GETM, cache)
    view.caches[cache] = defs.C_IM_D


def _store_from_s(view: View, cache: int, ctx: object) -> None:
    view.send(defs.GETM, cache)
    view.caches[cache] = defs.C_SM_D


def _inv_in_s(view: View, cache: int, ctx: object) -> None:
    view.send(defs.INVACK, cache)
    view.caches[cache] = defs.C_I


def _inv_in_i(view: View, cache: int, ctx: object) -> None:
    """Acknowledge a stale invalidation.

    Unreachable in the reference protocol (the directory only invalidates
    actual sharers/owners), but candidate completions that drop data while
    the directory still lists the cache as a sharer make this reachable —
    the standard protocol response is to ack and stay invalid.
    """
    view.send(defs.INVACK, cache)


def _inv_in_m(view: View, cache: int, ctx: object) -> None:
    view.send(defs.INVACK, cache)
    view.caches[cache] = defs.C_I


def _evict_modified(view: View, cache: int, ctx: object) -> None:
    """Evict a modified line: issue the writeback, await the ack."""
    view.send(defs.PUTM, cache)
    view.caches[cache] = defs.C_MI_A


def _evict_shared(view: View, cache: int, ctx: object) -> None:
    """Silently drop a shared line; the directory's sharer entry goes stale
    and a later invalidation is acknowledged from I."""
    view.caches[cache] = defs.C_I


#: the designer-written stable entries
CACHE_HANDLERS: Dict[Tuple[int, str], Handler] = {
    (defs.C_I, LOAD): _load_from_i,
    (defs.C_I, STORE): _store_from_i,
    (defs.C_S, STORE): _store_from_s,
    (defs.C_S, defs.INV): _inv_in_s,
    (defs.C_M, defs.INV): _inv_in_m,
    (defs.C_I, defs.INV): _inv_in_i,
}

#: the stable entries of the eviction extension
EVICTION_CACHE_HANDLERS: Dict[Tuple[int, str], Handler] = {
    (defs.C_M, EVICT): _evict_modified,
    (defs.C_S, EVICT): _evict_shared,
}

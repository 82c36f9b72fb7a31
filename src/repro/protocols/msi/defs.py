"""State codes, messages and wait tables of the MSI case study.

The state layout, :class:`~repro.protocols.dirfamily.View` and the
symmetry helpers are the directory family's
(:mod:`repro.protocols.dirfamily`); this module holds what is MSI's own.

Protocol summary (no evictions, matching Figure 3's stable states):

* Cache: ``I --Load--> IS_D --Data--> S``, ``I --Store--> IM_D --Data-->
  M`` (acking receipt to the directory), ``S --Store--> SM_D``; ``Inv``
  received in S/M is acknowledged to the directory; ``Inv`` racing ahead of
  ``Data`` in IS_D parks the cache in the extra transient ``IS_D_I``
  (ack now, drop the stale data later); ``Inv`` in SM_D demotes the upgrade
  to a plain ``IM_D`` fetch.
* Directory: stable I/S/M; ``IM_A`` stalls all requests until the new owner
  acknowledges receipt of Data (the transient the paper's Section III
  describes); ``SM_A``/``MM_A``/``MS_A`` collect invalidation acks for
  GetM-from-S, GetM-from-M and GetS-from-M respectively.

Substitution note (docs/architecture.md, "Departures from the paper",
item 4): the paper's figure shows Inv-Acks flowing to
the *requestor*; we collect them at the directory, which keeps the cache
controller at 7 states and puts the ack-counting bookkeeping where the
paper's own worked transient (``IM_A``) already lives.
"""

from __future__ import annotations

from typing import Tuple

from repro.protocols import dirfamily

# -- cache controller states -------------------------------------------------

# The first seven states are the eviction-free protocol of the paper's
# case study (its Figure 3 omits evictions); MI_A and II_A extend it with
# M-eviction transients (writeback outstanding / writeback raced with an
# invalidation).  Keeping them *after* the base states preserves the base
# protocol's 7-state next-state action domain (the Table I arithmetic).
C_I, C_S, C_M, C_IS_D, C_IM_D, C_SM_D, C_IS_D_I, C_MI_A, C_II_A = range(9)

CACHE_STATE_NAMES: Tuple[str, ...] = (
    "I", "S", "M", "IS_D", "IM_D", "SM_D", "IS_D_I", "MI_A", "II_A",
)

#: number of cache states in the eviction-free base protocol
BASE_CACHE_STATES = 7

#: cache states in which the line is readable / writable (for SWMR)
CACHE_READABLE = frozenset({C_S, C_M})
CACHE_WRITABLE = frozenset({C_M})
CACHE_STABLE = frozenset({C_I, C_S, C_M})

# -- directory controller states ----------------------------------------------

D_I, D_S, D_M, D_IM_A, D_SM_A, D_MS_A, D_MM_A = range(7)

DIR_STATE_NAMES: Tuple[str, ...] = ("I", "S", "M", "IM_A", "SM_A", "MS_A", "MM_A")

DIR_STABLE = frozenset({D_I, D_S, D_M})

# -- message types -------------------------------------------------------------

GETS = "GetS"
GETM = "GetM"
DATA = "Data"
INV = "Inv"
INVACK = "InvAck"
DATAACK = "DataAck"
# eviction extension
PUTM = "PutM"
PUTACK = "PutAck"

#: which cache states may receive each cache-bound message (used by the
#: "no unexpected message" safety property)
CACHE_EXPECTS = {
    DATA: frozenset({C_IS_D, C_IM_D, C_SM_D, C_IS_D_I}),
    # An invalidation is acceptable (and acknowledged) in *every* cache
    # state: stale invalidations are possible under candidate completions
    # that drop data early, and the robust-protocol convention is to ack
    # them wherever they land.  Data, by contrast, is only ever expected
    # while a fetch is outstanding — that is the real error detector.
    INV: frozenset(
        {C_I, C_S, C_M, C_IS_D, C_IM_D, C_SM_D, C_IS_D_I, C_MI_A, C_II_A}
    ),
    # A writeback acknowledgement is only expected while one is outstanding.
    PUTACK: frozenset({C_MI_A, C_II_A}),
}

#: which directory states may receive each directory-bound message;
#: GetS/GetM are stallable everywhere and so never "unexpected".
DIR_EXPECTS = {
    INVACK: frozenset({D_SM_A, D_MS_A, D_MM_A}),
    DATAACK: frozenset({D_IM_A}),
}

#: what a cache waiting in each transient state is entitled to wait for:
#: either its own request/writeback is still queued, or the response (or a
#: crossing invalidation) is in flight, or the directory is busy serving it
#: (the ``no-orphaned-wait`` invariant).
WAIT_EXPECTATIONS = {
    C_IS_D: (GETS, DATA, INV),
    # IS_D_I usually waits for in-flight data to drop, but an invalidation
    # can also land while the GetS is still queued (e.g. after a silent
    # S-eviction made the directory's sharer entry stale), so the queued
    # request is an acceptable reason to wait too.
    C_IS_D_I: (GETS, DATA),
    C_IM_D: (GETM, DATA, INV),
    C_SM_D: (GETM, DATA, INV),
    C_MI_A: (PUTM, PUTACK, INV),
    C_II_A: (PUTM, PUTACK),
}

View = dirfamily.view_class(DIR_STABLE)

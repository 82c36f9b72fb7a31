"""Shared definitions for the MSI case study.

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
  GetS/GetM, the destination for Data/Inv, and the sender for
  InvAck/DataAck; a single index disambiguates every message we need.

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

from typing import FrozenSet, Tuple

from repro.mc.multiset import Multiset

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

State = Tuple[Tuple[int, ...], int, int, FrozenSet[int], int, int, Multiset]


def initial_state(n_caches: int) -> State:
    """All caches and the directory invalid; empty network."""
    return (
        (C_I,) * n_caches,
        D_I,
        -1,
        frozenset(),
        -1,
        0,
        Multiset(),
    )


class View:
    """A mutable scratch copy of one state, used inside a rule firing.

    Rule handlers mutate the view and the rule wrapper freezes it back into
    a state tuple.  ``caches`` is a list; everything else plain attributes.
    """

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
        self.net = self.net.add((mtype, cache))

    def consume(self, mtype: str, cache: int) -> None:
        self.net = self.net.remove((mtype, cache))

    def freeze(self) -> State:
        return (
            tuple(self.caches),
            self.dirst,
            self.owner,
            self.sharers,
            self.req,
            self.acks,
            self.net,
        )


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
    """A :class:`~repro.mc.packed.PackedSpec` for the MSI state layout.

    MESI and MOESI share the exact 7-tuple layout (their extra controller
    states are just more interned atoms), so all three hand-written
    protocols use this one discovery spec.  The per-slot rename closures
    are the *same expressions* as :func:`permute_state` — including the
    collapse of every negative owner/req to ``-1`` and the deliberate
    Python-indexing of out-of-range message indices — so the packed remap
    is exact against the object permuter by construction.
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


def format_state(state: State) -> str:
    """Human-readable one-liner for traces and debugging."""
    caches, dirst, owner, sharers, req, acks, net = state
    cache_text = ",".join(CACHE_STATE_NAMES[c] for c in caches)
    msgs = ",".join(f"{m}->{c}" for (m, c) in sorted(net)) or "-"
    return (
        f"caches[{cache_text}] dir={DIR_STATE_NAMES[dirst]} owner={owner} "
        f"sharers={sorted(sharers)} req={req} acks={acks} net[{msgs}]"
    )

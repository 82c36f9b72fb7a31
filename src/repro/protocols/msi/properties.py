"""Correctness specification of the MSI case study.

* ``swmr`` — the Single-Writer-Multiple-Reader invariant (the key safety
  property named in the paper): never a writer together with another
  reader or writer.
* ``no-unexpected-message`` — every in-flight message must be acceptable to
  its destination's current state (or stallable, like GetS/GetM at a busy
  directory); built by :func:`repro.protocols.dirfamily.no_unexpected_message`
  from :data:`~repro.protocols.msi.defs.CACHE_EXPECTS` and ``DIR_EXPECTS``.
* ``dir-bookkeeping`` — a directory claiming M must know an owner; a
  directory claiming S must have sharers.
* ``no-orphaned-wait`` — every waiting cache has a live reason to wait
  (:data:`~repro.protocols.msi.defs.WAIT_EXPECTATIONS`).
* ``network-bounded`` — at most :func:`network_bound` messages in flight.
* Stable-state coverage — "all stable states must be visited at least
  once": the property the paper added after discovering that without it the
  synthesiser produces correct-but-useless protocols (e.g. caches that
  immediately drop fetched data).
"""

from __future__ import annotations

from typing import List

from repro.mc.properties import CoverageProperty, Invariant
from repro.protocols import dirfamily
from repro.protocols.msi import defs


def _swmr(state) -> bool:
    caches = state[0]
    writers = sum(1 for c in caches if c in defs.CACHE_WRITABLE)
    readers = sum(1 for c in caches if c in defs.CACHE_READABLE)
    if writers > 1:
        return False
    # A writer is also counted as a reader; SWMR allows exactly it.
    return not (writers == 1 and readers > 1)


def network_bound(n_caches: int) -> int:
    """Finite interconnect capacity.

    The reference protocol never has more than ``n_caches + 1`` messages in
    flight; ``2n + 2`` leaves room for valid-but-different completions while
    still making *every* candidate's state space finite.
    """
    return 2 * n_caches + 2


def _dir_bookkeeping(state) -> bool:
    _caches, dirst, owner, sharers, _req, _acks, _net = state
    if dirst == defs.D_M and owner < 0:
        return False
    if dirst == defs.D_S and not sharers:
        return False
    return True


def msi_invariants(n_caches: int = 0) -> List[Invariant]:
    """The safety properties; ``network-bounded`` needs ``n_caches > 0``."""
    invariants = [
        Invariant("swmr", _swmr),
        dirfamily.no_unexpected_message(defs.CACHE_EXPECTS, defs.DIR_EXPECTS),
        Invariant("dir-bookkeeping", _dir_bookkeeping),
        dirfamily.no_orphaned_wait(defs.WAIT_EXPECTATIONS, defs.DIR_STABLE),
    ]
    if n_caches > 0:
        invariants.append(dirfamily.network_bounded(network_bound(n_caches)))
    return invariants


#: the states allowed to have no outgoing transitions: network drained,
#: directory and every cache stable (e.g. one cache holds M, the others I)
msi_quiescent = dirfamily.quiescence(defs.CACHE_STABLE, defs.DIR_STABLE)


def msi_coverage(include: bool = True) -> List[CoverageProperty]:
    """The stable-state coverage properties (omit to reproduce the paper's
    observation that solution counts explode without them)."""
    if not include:
        return []
    return [
        CoverageProperty("some-cache-reaches-S", lambda s: defs.C_S in s[0]),
        CoverageProperty("some-cache-reaches-M", lambda s: defs.C_M in s[0]),
        CoverageProperty("dir-reaches-S", lambda s: s[1] == defs.D_S),
        CoverageProperty("dir-reaches-M", lambda s: s[1] == defs.D_M),
    ]

"""The MSI protocol as a directory-family table, and its system builder.

:data:`MSI` is the eviction-free protocol of the paper's case study;
:data:`MSI_EVICTIONS` adds the M-eviction/writeback extension: two more
cache states, writeback rules appended after the base rules, and the
extended cache hole domains.  Both compile through
:class:`~repro.protocols.dirfamily.DirectoryProtocol`.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Dict, Optional

from repro.mc.system import TransitionSystem
from repro.protocols.dirfamily import DirectoryProtocol, Table
from repro.protocols.msi import defs
from repro.protocols.msi.actions import (
    cache_next_domain,
    cache_response_domain,
    dir_next_domain,
    dir_response_domain,
    dir_track_domain,
)
from repro.protocols.msi.cache import (
    CACHE_HANDLERS,
    CACHE_TABLE_ORDER,
    EVICTION_CACHE_COMPLETIONS,
    EVICTION_CACHE_HANDLERS,
    EVICTION_TABLE_ORDER,
    REFERENCE_CACHE_COMPLETIONS,
    SPONTANEOUS,
)
from repro.protocols.msi.directory import (
    ACK_COUNTING,
    DIR_HANDLERS,
    DIR_TABLE_ORDER,
    EVICTION_DIR_HANDLERS,
    EVICTION_DIR_TABLE_ORDER,
    REFERENCE_DIR_COMPLETIONS,
)
from repro.protocols.msi.properties import msi_coverage, msi_invariants, msi_quiescent

MSI = DirectoryProtocol(
    hole_prefix="",
    cache_states=defs.CACHE_STATE_NAMES,
    dir_states=defs.DIR_STATE_NAMES,
    view=defs.View,
    spontaneous=SPONTANEOUS,
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
    invariants=msi_invariants,
    coverage=lambda n_caches: msi_coverage(),
    quiescent=msi_quiescent,
)

MSI_EVICTIONS = dataclasses.replace(
    MSI,
    cache_order=CACHE_TABLE_ORDER + EVICTION_TABLE_ORDER,
    dir_order=DIR_TABLE_ORDER + EVICTION_DIR_TABLE_ORDER,
    cache_handlers={**CACHE_HANDLERS, **EVICTION_CACHE_HANDLERS},
    dir_handlers={**DIR_HANDLERS, **EVICTION_DIR_HANDLERS},
    cache_completions={**REFERENCE_CACHE_COMPLETIONS, **EVICTION_CACHE_COMPLETIONS},
    cache_response_domain=partial(cache_response_domain, extended=True),
    cache_next_domain=partial(cache_next_domain, extended=True),
)


def build_msi_system(
    n_caches: int = 2,
    cache_table: Optional[Table] = None,
    dir_table: Optional[Table] = None,
    name: str = "msi",
    symmetry: bool = True,
    coverage: bool = True,
    evictions: bool = False,
) -> TransitionSystem:
    """Build the MSI transition system.

    With the default (reference) tables the system is the complete protocol;
    skeletons pass tables in which chosen transient entries resolve holes.
    ``evictions=True`` enables the M-eviction/writeback extension (the
    paper's Figure 3 omits evictions; see docs/architecture.md,
    "Departures from the paper", item 5).
    """
    protocol = MSI_EVICTIONS if evictions else MSI
    return protocol.system(
        n_caches,
        cache_table,
        dir_table,
        name=name,
        symmetry=symmetry,
        coverage=coverage,
    )


def reference_solution_assignment() -> Dict[str, str]:
    """Hole name -> action name of the reference completion for every
    holeable rule (restricted to a skeleton's holes, this is the known-good
    solution the synthesiser must rediscover)."""
    return MSI_EVICTIONS.reference_assignment()

"""Directory-based MSI cache coherence (the paper's case study, Fig 3).

The protocol keeps one copy of the state machine per cache line (we model a
single line, as is standard); each cache controller sends GetS/GetM requests
to a central directory over an *unordered* interconnect, which is what
forces the transient states this case study synthesises.

The state layout, rule compiler, hole builder and generic invariants are
the directory family's (:mod:`repro.protocols.dirfamily`); this package
holds MSI's tables.  Module map:

* :mod:`repro.protocols.msi.defs` — state codes, message types, the
  expect and wait tables, and MSI's ``View`` class.
* :mod:`repro.protocols.msi.actions` — the designer's action library
  (response / next-state / track), sized exactly as in the paper
  (5 x 7 x 3 per directory rule, 3 x 7 per cache rule).
* :mod:`repro.protocols.msi.cache` / :mod:`~repro.protocols.msi.directory`
  — the controller tables: rule order, designer-written stable handlers,
  and the reference completions of the holeable transients.
* :mod:`repro.protocols.msi.properties` — SWMR, directory bookkeeping,
  the network bound and stable-state coverage.
* :mod:`repro.protocols.msi.system` — the tables as
  :class:`~repro.protocols.dirfamily.DirectoryProtocol` objects (``MSI``
  and ``MSI_EVICTIONS``) and ``build_msi_system`` for N caches.
* :mod:`repro.protocols.msi.skeleton` — skeletons with holes:
  ``msi_tiny`` (2 holes), ``msi_small`` (8 holes = 2 directory + 1 cache
  rules), ``msi_large`` (12 holes = 2 directory + 3 cache rules).
"""

from repro.protocols.msi.skeleton import (
    SkeletonSpec,
    msi_large,
    msi_read_tiny,
    msi_skeleton,
    msi_small,
    msi_tiny,
)
from repro.protocols.msi.system import build_msi_system, reference_solution_assignment

__all__ = [
    "SkeletonSpec",
    "build_msi_system",
    "msi_large",
    "msi_read_tiny",
    "msi_skeleton",
    "msi_small",
    "msi_tiny",
    "reference_solution_assignment",
]

"""Named catalog of protocols and synthesis skeletons.

The catalog is the single registry every consumer resolves protocol names
through:

* the CLI (``python -m repro verify/synth/list``), and
* the distributed backend (:mod:`repro.dist`), whose worker processes
  cannot receive a ``TransitionSystem`` by pickle (rule bodies are
  closures) and instead *rebuild* it from a
  :class:`~repro.dist.messages.SystemSpec` naming a catalog entry.

New protocols and skeletons go in the module-level tables below; there is
no runtime registration.

Each entry carries the metadata a human needs to pick a workload —
hole count, supported replica range, a one-line summary — which
``python -m repro list`` prints and ``docs/protocols.md`` expands on.

Builders must be deterministic: rebuilding the same entry with the same
replica count must yield a system with identical rule order, hole names,
and hole action domains, because hole positions are correlated across
processes by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.hole import Hole
from repro.mc.system import TransitionSystem
from repro.protocols.german import build_german_skeleton, build_german_system
from repro.protocols.mesi import build_mesi_skeleton, build_mesi_system
from repro.protocols.moesi import build_moesi_skeleton, build_moesi_system
from repro.protocols.msi import msi_large, msi_read_tiny, msi_small, msi_tiny
from repro.protocols.msi.skeleton import msi_evict
from repro.protocols.msi.system import build_msi_system
from repro.protocols.mutex import build_mutex_skeleton, build_mutex_system
from repro.protocols.toy import build_figure2_skeleton_with_holes
from repro.protocols.vi import build_vi_skeleton, build_vi_system

#: a skeleton builder returning the system plus its hole objects
HoledBuilder = Callable[[int], Tuple[TransitionSystem, List[Hole]]]


@dataclass(frozen=True)
class SkeletonEntry:
    """One synthesisable skeleton in the catalog.

    Attributes:
        name: the stable CLI/catalog name.
        build: ``build(replicas) -> (system, holes)``; deterministic.
        holes: number of holes the skeleton exposes (for ``list`` and the
            docs gallery; the candidate space is the product of the hole
            arities and is reported per run).
        replicas: ``(minimum, suggested maximum)`` replica counts.  Below
            the minimum some holes are unreachable (their triggering race
            needs more participants); above the suggested maximum state
            spaces grow beyond interactive use.
        summary: one line for ``python -m repro list``.
    """

    name: str
    build: HoledBuilder
    holes: int
    replicas: Tuple[int, int]
    summary: str


def _from_msi(factory) -> HoledBuilder:
    def build(replicas: int):
        skeleton = factory(replicas)
        return skeleton.system, skeleton.holes

    return build


SKELETON_CATALOG: Dict[str, SkeletonEntry] = {
    entry.name: entry
    for entry in (
        SkeletonEntry(
            "figure2",
            lambda n: build_figure2_skeleton_with_holes(),
            holes=4,
            replicas=(1, 1),
            summary="the paper's Figure 2 toy chain (replica count ignored)",
        ),
        SkeletonEntry(
            "mutex",
            lambda n: build_mutex_skeleton(n),
            holes=2,
            replicas=(1, 4),
            summary="central-server mutual exclusion; client grant rule holed",
        ),
        SkeletonEntry(
            "vi",
            lambda n: build_vi_skeleton(n),
            holes=4,
            replicas=(1, 3),
            summary="VI migratory coherence; client data + dir ack rules holed",
        ),
        SkeletonEntry(
            "msi-tiny",
            _from_msi(msi_tiny),
            holes=2,
            replicas=(1, 3),
            summary="MSI write-path data arrival (IM_D+Data); space 21",
        ),
        SkeletonEntry(
            "msi-read-tiny",
            _from_msi(msi_read_tiny),
            holes=2,
            replicas=(1, 3),
            summary="MSI read-path data arrival; motivates stable-state coverage",
        ),
        SkeletonEntry(
            "msi-small",
            _from_msi(msi_small),
            holes=8,
            replicas=(2, 3),
            summary="Table I problem: 2 dir + 1 cache rules; space 231,525",
        ),
        SkeletonEntry(
            "msi-large",
            _from_msi(msi_large),
            holes=12,
            replicas=(2, 3),
            summary="Table I problem: 2 dir + 3 cache rules; space 102,102,525",
        ),
        SkeletonEntry(
            "msi-evict",
            _from_msi(msi_evict),
            holes=6,
            replicas=(2, 3),
            summary="MSI writeback-race transients (eviction extension)",
        ),
        SkeletonEntry(
            "mesi",
            lambda n: build_mesi_skeleton(n_caches=n),
            holes=2,
            replicas=(1, 3),
            summary="MESI exclusive-grant arrival (IS_D+DataE) holed",
        ),
        SkeletonEntry(
            "moesi-small",
            lambda n: build_moesi_skeleton(n_caches=n),
            holes=2,
            replicas=(2, 3),
            summary="MOESI hallmark: dirty owner's forwarded read (M+FwdGetS)",
        ),
        SkeletonEntry(
            "german-small",
            lambda n: build_german_skeleton(n),
            holes=2,
            replicas=(2, 3),
            summary="German directory protocol: the SE_W+Inv upgrade race",
        ),
    )
}

#: skeleton name -> builder(replicas) returning a TransitionSystem
#: (the original catalog surface; kept because every backend uses it)
SKELETON_BUILDERS: Dict[str, Callable[[int], TransitionSystem]] = {
    name: (lambda n, _entry=entry: _entry.build(n)[0])
    for name, entry in SKELETON_CATALOG.items()
}


def skeleton_names() -> Tuple[str, ...]:
    """Sorted names of all registered skeletons."""
    return tuple(sorted(SKELETON_CATALOG))


def build_skeleton(name: str, replicas: int = 2) -> TransitionSystem:
    """Build a fresh skeleton system for a catalog entry.

    Raises ``KeyError`` with the available names for unknown entries.
    """
    return build_skeleton_with_holes(name, replicas)[0]


def build_skeleton_with_holes(
    name: str, replicas: int = 2
) -> Tuple[TransitionSystem, List[Hole]]:
    """Build a skeleton plus the hole objects embedded in it.

    The holes are the exact objects the returned system's rule bodies
    resolve, so they can seed a
    :class:`~repro.mc.context.FixedResolver` (e.g. for random candidate
    sampling).  Raises ``KeyError`` with the available names for unknown
    entries.
    """
    try:
        entry = SKELETON_CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown skeleton {name!r}; available: {', '.join(skeleton_names())}"
        ) from None
    return entry.build(replicas)


# -- complete protocols (the ``verify`` side of the catalog) --------------------------


@dataclass(frozen=True)
class ProtocolEntry:
    """One complete (hole-free) protocol in the catalog.

    ``build(replicas, evictions=..., symmetry=...)`` returns a fresh
    system; builders ignore keywords they have no use for (only MSI has
    an eviction extension).
    """

    name: str
    build: Callable[..., TransitionSystem]
    replicas: Tuple[int, int]
    summary: str


PROTOCOL_CATALOG: Dict[str, ProtocolEntry] = {
    entry.name: entry
    for entry in (
        ProtocolEntry(
            "mutex",
            lambda n, evictions=False, symmetry=True: build_mutex_system(
                n, symmetry=symmetry
            ),
            replicas=(1, 5),
            summary="central-server mutual exclusion",
        ),
        ProtocolEntry(
            "vi",
            lambda n, evictions=False, symmetry=True: build_vi_system(
                n, symmetry=symmetry
            ),
            replicas=(1, 4),
            summary="VI migratory coherence (single validity token)",
        ),
        ProtocolEntry(
            "msi",
            lambda n, evictions=False, symmetry=True: build_msi_system(
                n, evictions=evictions, symmetry=symmetry
            ),
            replicas=(1, 4),
            summary="directory MSI (the paper's case study; --evictions extends it)",
        ),
        ProtocolEntry(
            "mesi",
            lambda n, evictions=False, symmetry=True: build_mesi_system(
                n, symmetry=symmetry
            ),
            replicas=(1, 4),
            summary="directory MESI (silent E->M upgrade)",
        ),
        ProtocolEntry(
            "moesi",
            lambda n, evictions=False, symmetry=True: build_moesi_system(
                n, symmetry=symmetry
            ),
            replicas=(1, 3),
            summary="directory MOESI (dirty sharing via the Owned state)",
        ),
        ProtocolEntry(
            "german",
            lambda n, evictions=False, symmetry=True: build_german_system(
                n, symmetry=symmetry
            ),
            replicas=(1, 3),
            summary="German directory protocol with data values (Murphi classic)",
        ),
    )
}

#: protocol name -> builder(replicas, evictions=..., symmetry=...)
PROTOCOL_BUILDERS: Dict[str, Callable[..., TransitionSystem]] = {
    name: entry.build for name, entry in PROTOCOL_CATALOG.items()
}


def protocol_names() -> Tuple[str, ...]:
    """Sorted names of all registered complete protocols."""
    return tuple(sorted(PROTOCOL_CATALOG))


def build_protocol(name: str, replicas: int = 2, **kwargs) -> TransitionSystem:
    """Build a fresh complete protocol for a catalog entry.

    Raises ``KeyError`` with the available names for unknown entries.
    """
    try:
        entry = PROTOCOL_CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; available: {', '.join(protocol_names())}"
        ) from None
    return entry.build(replicas, **kwargs)

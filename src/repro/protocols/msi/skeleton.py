"""MSI skeletons: the protocol with chosen transient rules left as holes.

The paper's two problem sizes:

* **MSI-small** — 8 holes = 2 directory + 1 cache transition rules
  (naive candidate space 105 * 105 * 21 = 231,525);
* **MSI-large** — 12 holes = 2 directory + 3 cache transition rules
  (naive space 105^2 * 21^3 = 102,102,525).

We additionally define **MSI-tiny** (1 cache rule = 2 holes, space 21) for
fast tests, and :func:`msi_skeleton` accepts any subset of the holeable
rules for custom experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.hole import Hole
from repro.mc.system import TransitionSystem
from repro.protocols.msi import defs
from repro.protocols.msi.system import MSI, MSI_EVICTIONS


@dataclass
class SkeletonSpec:
    """A skeleton description: which transient rules are blanked out."""

    name: str
    cache_rules: Tuple[Tuple[int, str], ...] = ()
    dir_rules: Tuple[Tuple[int, str], ...] = ()
    n_caches: int = 2
    symmetry: bool = True
    coverage: bool = True
    evictions: bool = False

    @property
    def hole_count(self) -> int:
        return 2 * len(self.cache_rules) + 3 * len(self.dir_rules)


@dataclass
class Skeleton:
    """A built skeleton: the system plus its hole objects."""

    spec: SkeletonSpec
    system: TransitionSystem
    holes: List[Hole] = field(default_factory=list)

    @property
    def hole_count(self) -> int:
        return len(self.holes)

    def reference_assignment(self) -> Dict[str, str]:
        """Hole name -> reference action name (the known-good completion)."""
        return MSI_EVICTIONS.reference_assignment(self.holes)


def msi_skeleton(spec: SkeletonSpec) -> Skeleton:
    """Build the skeleton system for a spec."""
    protocol = MSI_EVICTIONS if spec.evictions else MSI
    system, holes = protocol.skeleton(
        spec.cache_rules,
        spec.dir_rules,
        n_caches=spec.n_caches,
        name=spec.name,
        symmetry=spec.symmetry,
        coverage=spec.coverage,
    )
    return Skeleton(spec=spec, system=system, holes=holes)


def msi_tiny(n_caches: int = 2, coverage: bool = True) -> Skeleton:
    """1 cache rule = 2 holes (candidate space 21): IM_D+Data."""
    return msi_skeleton(
        SkeletonSpec(
            name="msi-tiny",
            cache_rules=((defs.C_IM_D, defs.DATA),),
            n_caches=n_caches,
            coverage=coverage,
        )
    )


def msi_read_tiny(n_caches: int = 2, coverage: bool = True) -> Skeleton:
    """1 cache rule = 2 holes on the *read* path: IS_D+Data.

    This skeleton reproduces the paper's motivation for the stable-state
    coverage property: without it, the completion (none, goto_I) — "receive
    the response but immediately transition straight back to Invalid" —
    verifies as a correct protocol that "effectively renders the cache
    useless" (Section III).  With coverage, only completions that actually
    reach S survive.
    """
    return msi_skeleton(
        SkeletonSpec(
            name="msi-read-tiny",
            cache_rules=((defs.C_IS_D, defs.DATA),),
            n_caches=n_caches,
            coverage=coverage,
        )
    )


def msi_evict(n_caches: int = 2, coverage: bool = True) -> Skeleton:
    """Eviction extension: synthesise the writeback-race transients.

    Holes the three eviction transients (MI_A+PutAck, MI_A+Inv,
    II_A+PutAck) of the eviction-enabled protocol — the crossing of a
    writeback with an invalidation is a textbook "non-trivial corner case"
    of the kind the paper argues synthesis is most valuable for.  The hole
    domains are the extended ones (4 responses x 9 next states).
    """
    return msi_skeleton(
        SkeletonSpec(
            name="msi-evict",
            cache_rules=(
                (defs.C_MI_A, defs.PUTACK),
                (defs.C_MI_A, defs.INV),
                (defs.C_II_A, defs.PUTACK),
            ),
            n_caches=n_caches,
            coverage=coverage,
            evictions=True,
        )
    )


def msi_small(n_caches: int = 2, coverage: bool = True) -> Skeleton:
    """8 holes = 2 directory + 1 cache rules (space 231,525), as in Table I.

    The holed rules are the write-path transients the paper's Section III
    narrates: the directory's serialisation transient (IM_A waiting for the
    data acknowledgement), the ownership-transfer transient (MM_A), and the
    cache's data-arrival rule for its outstanding store (IM_D).
    """
    return msi_skeleton(
        SkeletonSpec(
            name="msi-small",
            cache_rules=((defs.C_IM_D, defs.DATA),),
            dir_rules=(
                (defs.D_IM_A, defs.DATAACK),
                (defs.D_MM_A, defs.INVACK),
            ),
            n_caches=n_caches,
            coverage=coverage,
        )
    )


def msi_large(n_caches: int = 2, coverage: bool = True) -> Skeleton:
    """12 holes = 2 directory + 3 cache rules (space 102,102,525), Table I.

    Adds the shared-upgrade races to MSI-small: the cache's SM_D data
    arrival and the SM_D invalidation race (losing the upgrade race demotes
    the request to a plain fetch).
    """
    return msi_skeleton(
        SkeletonSpec(
            name="msi-large",
            cache_rules=(
                (defs.C_IM_D, defs.DATA),
                (defs.C_SM_D, defs.DATA),
                (defs.C_SM_D, defs.INV),
            ),
            dir_rules=(
                (defs.D_IM_A, defs.DATAACK),
                (defs.D_MM_A, defs.INVACK),
            ),
            n_caches=n_caches,
            coverage=coverage,
        )
    )

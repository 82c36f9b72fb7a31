#!/usr/bin/env python
"""Model-check the directory MSI protocol (the paper's Figure 3).

Verifies the complete reference protocol for a configurable number of
caches, reports state counts with and without symmetry reduction, and then
demonstrates counterexample traces by injecting a classic transient-state
bug: the cache acknowledges data receipt but "forgets" to move to M.

Run:  python examples/msi_verify.py [n_caches]
"""

import sys

from repro.mc.kernel import ExplorationKernel
from repro.protocols.msi import defs
from repro.protocols.msi.system import MSI, build_msi_system
from repro.util.timing import Stopwatch


def verify_reference(n_caches: int) -> None:
    print(f"== reference protocol, {n_caches} cache(s) ==")
    for symmetry in (True, False):
        system = build_msi_system(n_caches, symmetry=symmetry)
        with Stopwatch() as watch:
            result = ExplorationKernel(system).run()
        label = "with symmetry   " if symmetry else "without symmetry"
        print(
            f"  {label}: {result.verdict.value:7s} "
            f"{result.stats.states_visited:6d} states "
            f"{result.stats.transitions_fired:7d} transitions "
            f"({watch.elapsed:.2f}s)"
        )


def demonstrate_bug(n_caches: int) -> None:
    print(f"\n== injected bug: IM_D+Data acks but stays in IM_D ==")
    table = MSI.reference_cache_table()
    table[(defs.C_IM_D, defs.DATA)] = MSI.cache_completion("send_dataack", "goto_IM_D")
    system = build_msi_system(n_caches, cache_table=table, name="msi-buggy")
    result = ExplorationKernel(system).run()
    print(f"  verdict: {result.summary()}")
    if result.trace is not None:
        print("  minimal counterexample:")
        for line in result.trace.format(MSI.format_state).splitlines():
            print("   ", line)


def main() -> None:
    n_caches = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    verify_reference(n_caches)
    demonstrate_bug(n_caches)


if __name__ == "__main__":
    main()

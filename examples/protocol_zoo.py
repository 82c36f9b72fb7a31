#!/usr/bin/env python
"""Tour the protocol zoo: every catalog workload, verified and synthesised.

Walks the complete-protocol catalog (``verify``) and the fast skeletons
(``synth``) including the MOESI and German workloads, then demonstrates
each protocol's designated seeded bug being caught — the sanity check
that the property sets actually bite.

Run:  python examples/protocol_zoo.py
"""

from repro.core import SynthesisEngine
from repro.mc.kernel import ExplorationKernel
from repro.protocols.catalog import (
    PROTOCOL_CATALOG,
    SKELETON_CATALOG,
    build_protocol,
    build_skeleton,
)
from repro.protocols.german import build_german_system
from repro.protocols.moesi import build_moesi_system

#: skeletons cheap enough for an interactive tour
FAST_SKELETONS = (
    "figure2", "mutex", "vi", "msi-tiny", "mesi", "moesi-small", "german-small",
)


def main() -> None:
    print("== verify: every complete protocol at 2 replicas ==")
    for name in sorted(PROTOCOL_CATALOG):
        result = ExplorationKernel(build_protocol(name, 2)).run()
        assert result.is_success, f"{name}: {result.summary()}"
        print(f"  {name:8s} {result.summary()}")

    print("\n== synth: every fast skeleton at its minimum replica count ==")
    for name in FAST_SKELETONS:
        entry = SKELETON_CATALOG[name]
        report = SynthesisEngine(build_skeleton(name, entry.replicas[0])).run()
        assert report.solutions, f"{name} found no solutions"
        print(
            f"  {name:14s} {report.hole_count} holes, "
            f"{report.evaluated:4d} evaluated, "
            f"{len(report.solutions)} solution(s)"
        )

    print("\n== seeded bugs: the property sets bite ==")
    for label, system in (
        ("moesi no-owner-inv", build_moesi_system(2, bug="no-owner-inv")),
        ("german stale-shared-grant",
         build_german_system(2, bug="stale-shared-grant")),
    ):
        result = ExplorationKernel(system).run()
        assert result.is_failure, f"{label} was not caught"
        print(f"  {label}: caught ({result.message})")

    print("\nthe zoo is healthy")


if __name__ == "__main__":
    main()

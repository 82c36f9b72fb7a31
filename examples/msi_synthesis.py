#!/usr/bin/env python
"""Synthesise transient-state actions of the directory MSI protocol.

The paper's case study: given the protocol's stable states and the rules
leading into transient states, synthesise the transient completions.
Sizes:

* ``tiny``  — 1 cache rule, 2 holes (seconds);
* ``small`` — 2 directory + 1 cache rules, 8 holes; the paper's MSI-small,
  candidate space 231,525 (about a second with 2 caches);
* ``large`` — 2 directory + 3 cache rules, 12 holes; the paper's
  MSI-large, candidate space 102,102,525 (about 10 s with 2 caches).

Run:  python examples/msi_synthesis.py [tiny|small|large] [n_caches]
"""

import sys

from repro.analysis.grouping import describe_groups
from repro.core import SynthesisConfig, SynthesisEngine
from repro.protocols.msi import msi_large, msi_small, msi_tiny

SIZES = {"tiny": msi_tiny, "small": msi_small, "large": msi_large}


def main() -> None:
    size = sys.argv[1] if len(sys.argv) > 1 else "tiny"
    n_caches = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    if size not in SIZES:
        raise SystemExit(f"unknown size {size!r}; pick one of {sorted(SIZES)}")

    skeleton = SIZES[size](n_caches=n_caches)
    print(f"skeleton: {skeleton.system.name}, {skeleton.hole_count} holes")
    space = 1
    for hole in skeleton.holes:
        space *= hole.arity
    print(f"candidate space: {space:,}")
    print("synthesising...")

    report = SynthesisEngine(
        skeleton.system, SynthesisConfig(compute_fingerprints=True)
    ).run()

    print()
    print(report.summary())
    print()
    print(describe_groups(report))

    reference = skeleton.reference_assignment()
    found = [dict(s.assignment) for s in report.solutions]
    print()
    if reference in found:
        print("the textbook completion is among the synthesised solutions:")
        for hole_name, action in sorted(reference.items()):
            print(f"  {hole_name} = {action}")
    else:
        print("WARNING: the textbook completion was not rediscovered")


if __name__ == "__main__":
    main()

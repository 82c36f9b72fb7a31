#!/usr/bin/env python
"""Regenerate Table I of the paper.

Rows and gating:

* MSI-tiny rows always run (not in the paper; a fast sanity row).
* MSI-small rows run by default: pruning x {1 thread, 4 processes}
  measured, the naive baseline measured in full with ``--naive-full`` or
  estimated from a random sample of candidate checks otherwise.  The
  processes row (``repro.dist``) stands in for the paper's 4-thread row:
  it is the one that can show the wall-clock speedup on a multi-core host.
* MSI-large rows with ``--large``: the pruned sequential run takes about
  10 s on a 2-vCPU host (413 solutions, 30,193 candidates evaluated).

Run:  python examples/table1.py [--large] [--naive-full] [--caches N]
"""

import argparse

from repro.analysis.stats import estimate_naive_seconds, sample_candidate_cost
from repro.analysis.tables import format_table, render_table1_row
from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.protocols.msi import msi_large, msi_small, msi_tiny


def measure(system, pruning=True):
    return SynthesisEngine(system, SynthesisConfig(pruning=pruning)).run()


def rows_for(name, factory, catalog_name, caches, naive_full, rows):
    skeleton = factory(caches)
    print(f"[{name}] pruning, 1 thread ...", flush=True)
    pruned = measure(skeleton.system)
    rows.append(render_table1_row(f"{name} 1 thread, pruning", pruned))

    print(f"[{name}] pruning, 4 processes ...", flush=True)
    distributed = DistributedSynthesisEngine(
        SystemSpec(catalog_name, caches), workers=4
    ).run()
    if distributed.system_name != pruned.system_name:
        raise SystemExit(
            f"catalog name {catalog_name!r} built {distributed.system_name!r} "
            f"but the factory built {pruned.system_name!r} — rows would "
            f"compare different systems"
        )
    rows.append(render_table1_row(f"{name} 4 processes, pruning", distributed))

    if naive_full:
        print(f"[{name}] naive (full) ...", flush=True)
        naive = measure(factory(caches).system, pruning=False)
        rows.append(render_table1_row(f"{name} 1 thread, no pruning", naive))
    else:
        print(f"[{name}] naive (estimating from a sample) ...", flush=True)
        sample = sample_candidate_cost(factory(caches), samples=25)
        naive_candidates = pruned.naive_candidate_space
        estimate = estimate_naive_seconds(
            naive_candidates, 1, sample["mean_seconds"]
        )
        row = render_table1_row(
            f"{name} 1 thread, no pruning",
            pruned,
            evaluated_override=naive_candidates,
            seconds_override=estimate,
            estimated=True,
        )
        row["Candidates"] = naive_candidates
        row["Pruning Patterns"] = None
        rows.append(row)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--large", action="store_true",
        help="also run the MSI-large rows (about 10 s sequential with pruning)",
    )
    parser.add_argument(
        "--naive-full", action="store_true",
        help="measure naive baselines in full instead of estimating",
    )
    parser.add_argument("--caches", type=int, default=2)
    args = parser.parse_args()

    rows = []
    print("[MSI-tiny] ...", flush=True)
    tiny_naive = measure(msi_tiny(args.caches).system, pruning=False)
    rows.append(render_table1_row("MSI-tiny 1 thread, no pruning", tiny_naive))
    tiny = measure(msi_tiny(args.caches).system)
    rows.append(render_table1_row("MSI-tiny 1 thread, pruning", tiny))

    rows_for("MSI-small", msi_small, "msi-small", args.caches,
             args.naive_full, rows)
    if args.large:
        rows_for("MSI-large", msi_large, "msi-large", args.caches,
                 args.naive_full, rows)

    print()
    print(format_table(rows))
    print("\n(naive rows marked 'estimated' extrapolate mean sampled candidate-check"
          "\n cost to the full candidate space; see docs/architecture.md,"
          "\n \"Departures from the paper\", item 2)")


if __name__ == "__main__":
    main()

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``verify <protocol>`` — model check a complete protocol and print the
  verdict, state counts, and (on failure) the counterexample trace.
* ``synth <skeleton>`` — run hole synthesis on a skeleton and print the
  report and behavioural solution groups.  Defaults to the paper's
  pruning procedure with conflict-generalised patterns and prefix-reuse
  search; ``--naive`` runs the paper's naive baseline.
* ``fuzz`` — generate seeded random holed protocols and differential-test
  every codec/symmetry/backend/store configuration against every other, shrinking
  divergences to corpus reproducers; see :mod:`repro.fuzz`.
* ``list`` — list available protocols and skeletons with their hole
  counts and supported replica ranges.

Examples::

    python -m repro verify msi --caches 3 --evictions
    python -m repro verify german --procs 2
    python -m repro synth msi-small --backend processes --workers 4
    python -m repro synth msi-small --store runs/msi-store
    python -m repro synth german-small --naive
    python -m repro fuzz --seed 0 --count 50

The full flag reference lives in ``docs/cli.md``; Table I is regenerated
by ``examples/table1.py``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.grouping import describe_groups
from repro.api import BACKENDS
from repro.errors import CliError, ModelError
from repro.core import SynthesisConfig, SynthesisEngine
from repro.mc.kernel import ExplorationKernel, ExplorationLimits
from repro.obs import Telemetry, load_events, render_stats
from repro.protocols.catalog import (
    PROTOCOL_BUILDERS,
    PROTOCOL_CATALOG,
    SKELETON_BUILDERS,
    SKELETON_CATALOG,
    build_skeleton_with_holes,
)
from repro.protocols.mesi import MESI
from repro.protocols.moesi import MOESI
from repro.protocols.msi.system import MSI

#: complete protocols: name -> builder(n, **kwargs) — the catalog registry
PROTOCOLS: Dict[str, Callable] = PROTOCOL_BUILDERS

#: skeletons: name -> builder(n) returning a TransitionSystem
SKELETONS: Dict[str, Callable] = SKELETON_BUILDERS

#: counterexample state printers of the directory-protocol family; the
#: other protocols' states print as ``repr``
STATE_FORMATTERS: Dict[str, Callable] = {
    "msi": MSI.format_state,
    "mesi": MESI.format_state,
    "moesi": MOESI.format_state,
}


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flag group (verify / synth)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a structured JSONL trace of the run to FILE "
             "(summarise it with 'repro stats FILE')",
    )
    group.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the run's aggregated metrics registry as JSON to FILE",
    )
    progress = group.add_mutually_exclusive_group()
    progress.add_argument(
        "--progress", action="store_true",
        help="emit a throttled live progress line on stderr "
             "(default: on when stderr is a TTY)",
    )
    progress.add_argument(
        "--no-progress", action="store_true",
        help="suppress the live progress line",
    )
    group.add_argument(
        "--verbose", action="store_true",
        help="enable debug logging (repro.util.logging)",
    )


def _progress_requested(args: argparse.Namespace) -> bool:
    if args.no_progress:
        return False
    return bool(args.progress) or sys.stderr.isatty()


def _build_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """The CLI-owned telemetry bundle, or None when every switch is off.

    ``--verbose`` routes through :meth:`Telemetry.create`, which is the
    logging switchboard; when no telemetry is active it is applied here so
    the flag still works alone.
    """
    progress = _progress_requested(args)
    if args.trace is None and args.metrics_out is None and not progress:
        if args.verbose:
            from repro.util.logging import enable_verbose_logging

            enable_verbose_logging()
        return None
    return Telemetry.create(
        trace_path=args.trace,
        progress=progress,
        stream=sys.stderr,
        verbose=args.verbose,
    )


def _finish_telemetry(tele: Optional[Telemetry],
                      args: argparse.Namespace) -> None:
    """Write ``--metrics-out`` and close the CLI-owned bundle."""
    if tele is None:
        return
    if args.metrics_out is not None:
        tele.write_metrics(args.metrics_out)
    tele.close()


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VerC3 reproduction: explicit state synthesis of concurrent systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="model check a complete protocol")
    verify.add_argument("protocol", choices=sorted(PROTOCOLS))
    verify.add_argument("--caches", "--procs", dest="replicas", type=int, default=2)
    verify.add_argument("--evictions", action="store_true")
    verify.add_argument("--no-symmetry", action="store_true")
    verify.add_argument("--max-states", type=int, default=None)
    _add_telemetry_flags(verify)

    synth = sub.add_parser("synth", help="synthesise holes in a skeleton")
    synth.add_argument("skeleton", choices=sorted(SKELETONS))
    synth.add_argument("--caches", "--procs", dest="replicas", type=int, default=2)
    synth.add_argument(
        "--backend", choices=BACKENDS, default="sequential",
        help="evaluation backend; 'processes' shards candidates across "
             "worker processes for multi-core wall-clock speedups "
             "(see repro.dist)",
    )
    synth.add_argument("--workers", type=int, default=4,
                       help="worker processes for the processes backend")
    synth.add_argument("--naive", action="store_true", help="disable pruning")
    synth.add_argument(
        "--store", metavar="DIR", default=None,
        help="durable cross-run verdict store directory: verdicts are "
             "recorded on first evaluation and replayed on later runs "
             "with the same protocol and verdict-affecting flags, so a "
             "warm re-run model checks almost nothing (see "
             "docs/distributed.md)",
    )
    synth.add_argument("--solution-limit", type=int, default=None)
    synth.add_argument("--max-evaluations", type=int, default=None)
    synth.add_argument("--groups", action="store_true",
                       help="fingerprint solutions and print behavioural groups")
    _add_telemetry_flags(synth)

    fuzz = sub.add_parser(
        "fuzz",
        help="generate random protocols and differential-test the lattice",
        description="Generate seeded random holed protocols and sweep each "
                    "through the codec/symmetry/backend/store lattice, "
                    "asserting every promise the modes make against each "
                    "other.  Divergent specs are shrunk to minimal "
                    "reproducers and written as corpus files.",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first generator seed (default: 0)")
    fuzz.add_argument("--count", type=int, default=20,
                      help="number of consecutive seeds to sweep "
                           "(default: 20)")
    fuzz.add_argument(
        "--lattice", choices=("ablation", "tier1"),
        default="ablation",
        help="configuration lattice to sweep: 'ablation' (default) pins "
             "the codec, symmetry, both backends and the verdict store "
             "against a shared reference, "
             "'tier1' is the fast sequential-only set the checked-in "
             "corpus replays",
    )
    shrink_group = fuzz.add_mutually_exclusive_group()
    shrink_group.add_argument(
        "--shrink", action="store_true",
        help="shrink divergent specs to minimal reproducers (the default)",
    )
    shrink_group.add_argument(
        "--no-shrink", action="store_true",
        help="keep divergent specs as generated (faster triage loop)",
    )
    fuzz.add_argument(
        "--corpus-dir", metavar="DIR", default="fuzz-runs/reproducers",
        help="where divergence reproducer files land "
             "(default: fuzz-runs/reproducers)",
    )
    fuzz.add_argument(
        "--journal", metavar="FILE", default=None,
        help="write one deterministic JSON row per spec to FILE "
             "(default: no journal file; rows depend only on the seeds "
             "and lattice, never on timing)",
    )
    fuzz.add_argument("--workers", type=int, default=2,
                      help="worker-process count for the processes-backend "
                           "lattice configurations (default: 2)")
    fuzz.add_argument("--max-evaluations", type=int, default=None,
                      help="safety cap on candidates per synthesis run")

    stats = sub.add_parser(
        "stats",
        help="summarise a trace JSONL file (per-span totals, attribution)",
        description="Aggregate a --trace JSONL file: per-span and "
                    "per-phase counts, total/mean durations, and the "
                    "fraction of the run attributed to named work.",
    )
    stats.add_argument("trace", metavar="TRACE.jsonl",
                       help="a trace file written by --trace")

    sub.add_parser(
        "list",
        help="list protocols and skeletons (hole counts, replica ranges)",
    )
    return parser


def cmd_verify(args: argparse.Namespace) -> int:
    """``verify``: model check one complete protocol."""
    if args.replicas < 1:
        raise CliError(f"--caches/--procs must be >= 1, got {args.replicas}")
    try:
        limits = ExplorationLimits(max_states=args.max_states)
    except ModelError as exc:
        raise CliError(f"--max-states: {exc}") from None
    system = PROTOCOLS[args.protocol](
        args.replicas, evictions=args.evictions, symmetry=not args.no_symmetry
    )
    tele = _build_telemetry(args)
    kernel = ExplorationKernel(system, limits=limits, telemetry=tele)
    if tele is not None:
        with tele.span(
            "verify", protocol=args.protocol, replicas=args.replicas,
        ) as span:
            result = kernel.run()
            span.set(
                verdict=result.verdict.value,
                states=result.stats.states_visited,
            )
        metrics = tele.metrics
        metrics.counter(
            "mc_states_visited", "states interned across candidate runs"
        ).inc(result.stats.states_visited)
        metrics.counter(
            "mc_transitions_fired", "rule firings across candidate runs"
        ).inc(result.stats.transitions_fired)
        metrics.gauge(
            "mc_peak_states", "largest single-run visited-state count"
        ).track_max(result.stats.states_visited)
        if tele.progress is not None:
            tele.progress.tick(
                states=result.stats.states_visited,
                verdict=result.verdict.value,
            )
        _finish_telemetry(tele, args)
    else:
        result = kernel.run()
    print(f"{system.name}: {result.summary()}")
    if result.trace is not None:
        formatter = STATE_FORMATTERS.get(args.protocol, repr)
        print("counterexample:")
        print(result.trace.format(formatter))
    return 0 if result.is_success else 1


def cmd_synth(args: argparse.Namespace) -> int:
    """``synth``: run hole synthesis on one skeleton."""
    if args.replicas < 1:
        raise CliError(f"--caches/--procs must be >= 1, got {args.replicas}")
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    tele = _build_telemetry(args)
    config = SynthesisConfig(
        pruning=not args.naive,
        solution_limit=args.solution_limit,
        max_evaluations=args.max_evaluations,
        compute_fingerprints=args.groups,
        store_path=args.store,
        # The config mirrors the CLI telemetry so worker *processes* (which
        # only see the config) open their own per-worker sinks.
        telemetry=tele is not None,
        trace_path=args.trace,
        progress=_progress_requested(args),
    )
    root = (
        tele.span("synth", skeleton=args.skeleton, replicas=args.replicas,
                  backend=args.backend)
        if tele is not None
        else None
    )
    try:
        if root is not None:
            root.__enter__()
        if args.backend == "processes":
            from repro.dist import DistributedSynthesisEngine, SystemSpec

            report = DistributedSynthesisEngine(
                SystemSpec(args.skeleton, args.replicas), config,
                workers=args.workers, telemetry=tele,
            ).run()
        else:
            system = SKELETONS[args.skeleton](args.replicas)
            report = SynthesisEngine(system, config, telemetry=tele).run()
        if root is not None:
            root.set(
                evaluated=report.evaluated, solutions=len(report.solutions)
            )
    finally:
        if root is not None:
            root.__exit__(None, None, None)
        _finish_telemetry(tele, args)
    print(report.summary())
    if args.groups:
        print()
        print(describe_groups(report))
    return 0 if report.solutions else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``fuzz``: differential-test generated protocols over the lattice."""
    # Imported here: the fuzz package is the one CLI dependency most
    # invocations never touch.
    from repro.fuzz import DifferentialRunner, run_campaign

    if args.count < 1:
        raise CliError(f"--count must be >= 1, got {args.count}")
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    runner = DifferentialRunner(
        args.lattice,
        max_evaluations=args.max_evaluations,
        workers=args.workers,
    )
    seeds = range(args.seed, args.seed + args.count)
    result = run_campaign(
        seeds,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        journal_path=args.journal,
        runner=runner,
        progress=lambda line: print(line, file=sys.stderr),
    )
    total = len(result.checks)
    divergent = result.divergent
    print(
        f"fuzz: {total} spec(s), lattice '{args.lattice}' "
        f"({len(runner.lattice.verify)} verify + "
        f"{len(runner.lattice.synth)} synth configs), "
        f"{len(divergent)} divergent"
    )
    for _original, shrunk, path in result.reproducers:
        where = f" -> {path}" if path is not None else ""
        print(f"  reproducer: {shrunk.name}{where}")
    if result.journal_path is not None:
        print(f"journal: {result.journal_path}")
    return 0 if result.ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: aggregate and render one trace JSONL file."""
    try:
        events = load_events(args.trace)
    except OSError as exc:
        raise CliError(f"cannot read trace: {exc}") from None
    except ValueError as exc:
        raise CliError(f"{args.trace}: {exc}") from None
    if not events:
        raise CliError(f"{args.trace}: empty trace")
    print(render_stats(events, source=args.trace))
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    """``list``: the catalog with hole counts and replica ranges."""
    print("protocols (verify):")
    width = max(len(name) for name in PROTOCOL_CATALOG)
    for name in sorted(PROTOCOL_CATALOG):
        entry = PROTOCOL_CATALOG[name]
        low, high = entry.replicas
        print(f"  {name:<{width}}  replicas {low}..{high}  {entry.summary}")
    print("skeletons (synth):")
    width = max(len(name) for name in SKELETON_CATALOG)
    for name in sorted(SKELETON_CATALOG):
        entry = SKELETON_CATALOG[name]
        low, high = entry.replicas
        # The candidate space is the product of the declared holes'
        # arities (holes discovered mid-synthesis beyond the declaration
        # set are rare and grow it at the pass boundary).
        _system, declared = build_skeleton_with_holes(name, low)
        space = 1
        for hole in declared:
            space *= hole.arity
        print(
            f"  {name:<{width}}  {entry.holes:2d} holes  "
            f"space {space:>9,}  replicas {low}..{high}  {entry.summary}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "synth": cmd_synth,
        "fuzz": cmd_fuzz,
        "stats": cmd_stats,
        "list": cmd_list,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

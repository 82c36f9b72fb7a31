"""One repeat of one benchmark workload, in a fresh interpreter.

``bench.py`` starts this script once per repeat, so every repeat pays
interpreter start, ``import repro``, codec compilation and slab growth the
way a command-line user does.  It reads the workload's generated inputs
from ``--inputs`` (JSON), sets the workload up, runs its timed section
once, checks the outputs against the paper's and the generator's ground
truth, and prints one JSON line with its timestamps and outcome.

Timestamps are ``time.monotonic()`` values.  On Linux that clock is shared
by every process, so the driver times set-up from the moment it spawned
this interpreter, and worker spans line up with the coordinator's.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

#: Table I counts and the solution-set digest each synthesis workload
#: must reproduce, per skeleton (msi-tiny serves the smoke run).
EXPECTED = {
    "msi-small": {
        "solutions": 126,
        "candidate_space": 1_179_648,
        "digest": "9137fb147d675d3a",
    },
    "msi-tiny": {
        "solutions": 3,
        "candidate_space": 32,
        "digest": "042025b17ca96cc7",
    },
}

#: verify-zoo: protocol, replicas, and the state count its run must visit.
ZOO = (
    ("german", 3, 900),
    ("mesi", 4, 1509),
    ("moesi", 3, 613),
    ("msi", 4, 1467),
    ("mutex", 5, 26),
    ("vi", 4, 26),
)


class _Untraced:
    """Stands in for the tracer when the repeat is not traced."""

    @staticmethod
    def span(_name):
        return nullcontext()


def solution_digest(solutions) -> str:
    """Order-free digest of a solution set: assignments plus fingerprints."""
    rows = sorted(
        json.dumps([[list(pair) for pair in s.assignment], s.fingerprint])
        for s in solutions
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def _synth_outcome(reports, store=None) -> dict:
    from repro.store.store import JOURNAL_NAME

    journal = os.path.join(store, JOURNAL_NAME) if store else None
    return {
        "work": sum(r.evaluated for r in reports),
        "evaluated": sum(r.evaluated for r in reports),
        "model_checks": sum(r.model_checks for r in reports),
        "candidate_space": sum(r.candidate_space for r in reports),
        "solutions": sum(len(r.solutions) for r in reports),
        "digest": solution_digest(
            [s for r in reports for s in r.solutions]
        ),
        "failure_patterns": sum(r.failure_patterns for r in reports),
        "pruned": sum(r.pruned_failure for r in reports),
        "prefix_hits": sum(r.prefix_cache_hits for r in reports),
        "prefix_builds": sum(r.prefix_cache_builds for r in reports),
        "prefix_states_reused": sum(r.prefix_states_reused for r in reports),
        "store_hits": sum(r.store_hits for r in reports),
        "journal_bytes": (
            os.path.getsize(journal) if journal and os.path.exists(journal)
            else 0
        ),
    }


# -- workloads: setup(inputs, store, tracer) returns the timed section ---------


def setup_sequential(inputs, store, tracer):
    from repro.core.engine import SynthesisConfig, SynthesisEngine
    from repro.protocols.catalog import SKELETON_BUILDERS

    system = SKELETON_BUILDERS[inputs["skeleton"]](2)
    engine = SynthesisEngine(system, SynthesisConfig(store_path=store))
    return lambda: _synth_outcome([engine.run()], store)


def setup_processes(inputs, store, tracer):
    from repro.core.engine import SynthesisConfig
    from repro.dist import DistributedSynthesisEngine, SystemSpec

    engine = DistributedSynthesisEngine(
        SystemSpec(inputs["skeleton"], 2), SynthesisConfig(),
        workers=2, start_method="fork",
    )
    return lambda: _synth_outcome([engine.run()])


def setup_zoo(inputs, store, tracer):
    from repro import api
    from repro.protocols.catalog import PROTOCOL_BUILDERS

    def timed():
        states = []
        verdicts = []
        for _ in range(inputs["passes"]):
            for name, replicas, _expected in ZOO:
                with tracer.span("setup.build"):
                    system = PROTOCOL_BUILDERS[name](
                        replicas, evictions=False, symmetry=True
                    )
                result = api.verify(system)
                states.append(result.stats.states_visited)
                verdicts.append(result.is_success)
        return {"work": sum(states), "states": states, "verdicts": verdicts}

    return timed


def setup_fuzz(inputs, store, tracer):
    from repro.core.engine import SynthesisConfig, SynthesisEngine
    from repro.fuzz import build_skeleton_from_spec, generate_spec

    specs = [generate_spec(seed) for seed in inputs["fuzz_seeds"]]
    engines = [
        SynthesisEngine(build_skeleton_from_spec(spec)[0], SynthesisConfig())
        for spec in specs
    ]

    def timed():
        reports = [engine.run() for engine in engines]
        outcome = _synth_outcome(reports)
        # Ground truth from the generator, not from the synthesiser: the
        # reference completion must lie in some solution's family (holes
        # a solution leaves unassigned are don't-cares).
        outcome["missing_reference"] = [
            spec.name
            for spec, report in zip(specs, reports)
            if not any(
                all(spec.reference_assignment.get(hole) == action
                    for hole, action in solution.assignment)
                for solution in report.solutions
            )
        ]
        return outcome

    return timed


SETUPS = {
    "synth-cold": setup_sequential,
    "store-record": setup_sequential,
    "store-replay": setup_sequential,
    "synth-processes": setup_processes,
    "verify-zoo": setup_zoo,
    "synth-fuzz": setup_fuzz,
}


def check(workload: str, inputs: dict, outcome: dict) -> list:
    """Problems with a repeat's outputs (empty when they are correct)."""
    problems = []
    if workload == "verify-zoo":
        expected = [states for _n, _r, states in ZOO] * inputs["passes"]
        if not all(outcome["verdicts"]):
            problems.append("a verify-zoo protocol failed verification")
        if outcome["states"] != expected:
            problems.append(
                f"verify-zoo state counts {outcome['states']} != {expected}"
            )
        return problems
    if workload == "synth-fuzz":
        if outcome["missing_reference"]:
            problems.append(
                "reference completion missing from the solutions of "
                + ", ".join(outcome["missing_reference"])
            )
        return problems
    expected = EXPECTED[inputs["skeleton"]]
    for key in ("solutions", "candidate_space", "digest"):
        if outcome[key] != expected[key]:
            problems.append(f"{key} {outcome[key]!r} != {expected[key]!r}")
    if workload == "store-replay" and outcome["model_checks"] != 0:
        problems.append(
            f"store-replay model checked {outcome['model_checks']} candidates"
        )
    if workload == "store-record" and outcome["store_hits"] != 0:
        problems.append(f"store-record hit a fresh store {outcome['store_hits']}x")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--inputs", required=True, help="JSON inputs")
    parser.add_argument("--store", help="verdict store directory")
    parser.add_argument("--trace-dir", help="record spans into this directory")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once set up (a set-up time sample)")
    args = parser.parse_args(argv)
    inputs = json.loads(args.inputs)

    import_start = time.monotonic()
    import repro  # noqa: F401  (the import a command-line user pays)

    import_end = time.monotonic()
    tracer = _Untraced()
    if args.trace_dir:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer, args.trace_dir)
    with tracer.span("setup.build"):
        timed = SETUPS[args.workload](inputs, args.store, tracer)
    ready = time.monotonic()
    result = {
        "started": STARTED,
        "ready": ready,
        "import_s": import_end - import_start,
        "build_s": ready - import_end,
    }
    if not args.setup_only:
        with tracer.span("run"):
            begin = time.monotonic()
            outcome = timed()
            end = time.monotonic()
        result["wall_s"] = end - begin
        result["outcome"] = outcome
        result["problems"] = check(args.workload, inputs, outcome)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace_dir:
        tracer.dump(args.trace_dir, role="main")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

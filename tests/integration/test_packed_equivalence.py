"""Equivalence matrix for the packed-state kernel.

Packed mode must be *exact*, not just verdict-preserving: the codec's
table-driven remaps evaluate the same expressions as the object layer's
permutations, so on every catalog protocol and skeleton, exploring with
packed on and off must produce

* identical verify verdicts AND identical state/transition/attempt
  counts (including the seeded-bug builds, the eviction extension, and
  symmetry off), under both frontier strategies, with any
  counterexample trace *replayable* — packed traces are decoded back to
  real states, so each step must be a real firing of the named rule;
* identical synthesis solution sets and per-candidate verdicts, under
  every other acceleration toggle (prefix reuse off, naive mode, DFS)
  and on the process backend;
* bit-identical solution fingerprints (packed explorers decode and
  re-canonicalise their visited sets before fingerprinting).
"""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.core.candidate import WILDCARD
from repro.core.engine import SynthesisObserver
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.mc.context import ExecutionContext
from repro.mc.kernel import make_explorer
from repro.protocols.catalog import PROTOCOL_BUILDERS, build_skeleton
from repro.protocols.german import build_german_system
from repro.protocols.moesi import build_moesi_system

VERIFY_SYSTEMS = [
    ("mutex", lambda: PROTOCOL_BUILDERS["mutex"](2)),
    ("vi", lambda: PROTOCOL_BUILDERS["vi"](2)),
    ("msi@2", lambda: PROTOCOL_BUILDERS["msi"](2)),
    ("msi@3", lambda: PROTOCOL_BUILDERS["msi"](3)),
    ("msi-evict", lambda: PROTOCOL_BUILDERS["msi"](2, evictions=True)),
    ("mesi", lambda: PROTOCOL_BUILDERS["mesi"](2)),
    ("moesi", lambda: PROTOCOL_BUILDERS["moesi"](2)),
    ("german", lambda: PROTOCOL_BUILDERS["german"](2)),
    ("moesi-bug", lambda: build_moesi_system(2, bug="no-owner-inv")),
    ("german-bug", lambda: build_german_system(2, bug="stale-shared-grant")),
    ("msi-nosym", lambda: PROTOCOL_BUILDERS["msi"](2, symmetry=False)),
    ("german-nosym", lambda: PROTOCOL_BUILDERS["german"](2, symmetry=False)),
]

SKELETONS = [
    "figure2",
    "mutex",
    "vi",
    "msi-tiny",
    "msi-read-tiny",
    "msi-small",
    "mesi",
    "moesi-small",
    "german-small",
]


def replay_trace(system, trace):
    """Assert a trace is a real execution of ``system`` ending in a
    property violation (or a deadlock state)."""
    rules = {rule.name: rule for rule in system.rules}
    ctx = ExecutionContext()
    current = None
    for step in trace.steps:
        if step.rule_name is None:
            assert any(step.state == s for s in system.initial_states())
        else:
            rule = rules[step.rule_name]
            assert rule.guard(current), step.rule_name
            successors = rule.fire(current, ctx)
            assert any(step.state == s for s in successors), step.rule_name
        current = step.state
    violated = any(not inv.holds(current) for inv in system.invariants)
    deadlocked = not any(rule.guard(current) for rule in system.rules)
    assert violated or deadlocked


class NamedVerdictRecorder(SynthesisObserver):
    """Candidate (by hole names) -> verdict, robust to digit reordering."""

    def __init__(self):
        self.verdicts = {}

    def on_run(self, run_index, vector, result, holes):
        key = frozenset(
            (
                holes[position].name,
                "*" if entry is WILDCARD else holes[position].domain[entry].name,
            )
            for position, entry in enumerate(vector.entries)
        )
        self.verdicts[key] = result.verdict.value


def assignment_view(report):
    # Sorted item lists, not frozensets: sets order by inclusion, which is
    # partial, so sorting them depends on the order solutions were found.
    return sorted(sorted(solution.assignment) for solution in report.solutions)


def executed_view(report):
    return sorted((sorted(s.assignment), s.executed_holes) for s in report.solutions)


@pytest.mark.parametrize("label,builder", VERIFY_SYSTEMS,
                         ids=[label for label, _ in VERIFY_SYSTEMS])
def test_verify_runs_are_identical(label, builder):
    for strategy in ("bfs", "dfs"):
        baseline = make_explorer(strategy, builder(), packed=False).run()
        packed_system = builder()
        assert packed_system.packed_spec is not None
        packed = make_explorer(strategy, packed_system, packed=True).run()
        assert packed.verdict == baseline.verdict, strategy
        assert packed.failure_kind == baseline.failure_kind, strategy
        stats, base = packed.stats, baseline.stats
        assert stats.states_visited == base.states_visited, strategy
        assert stats.transitions_fired == base.transitions_fired, strategy
        assert stats.rules_attempted == base.rules_attempted, strategy
        assert packed.wildcard_encountered == baseline.wildcard_encountered
        if packed.trace is not None:
            # Packed traces are decoded back to object states, so they
            # must replay as real firings on a fresh (object) system.
            replay_trace(builder(), packed.trace)


def test_packed_fingerprints_match_object_mode():
    """Cross-mode fingerprints agree: packed visited sets are decoded
    and re-canonicalised before hashing."""
    object_run = make_explorer(
        "bfs", PROTOCOL_BUILDERS["msi"](2), packed=False
    )
    object_run.run()
    packed_run = make_explorer("bfs", PROTOCOL_BUILDERS["msi"](2), packed=True)
    packed_run.run()
    assert packed_run.packed_runtime is not None
    assert object_run.fingerprint_visited() == packed_run.fingerprint_visited()


@pytest.mark.parametrize("name", SKELETONS)
def test_synthesis_solution_sets_match(name):
    on_observer = NamedVerdictRecorder()
    off_observer = NamedVerdictRecorder()
    on = SynthesisEngine(
        build_skeleton(name),
        SynthesisConfig(packed=True, compute_fingerprints=True),
        on_observer,
    ).run()
    off = SynthesisEngine(
        build_skeleton(name),
        SynthesisConfig(packed=False, compute_fingerprints=True),
        off_observer,
    ).run()
    assert assignment_view(on) == assignment_view(off)
    assert executed_view(on) == executed_view(off)
    assert {hole.name for hole in on.holes} == {hole.name for hole in off.holes}
    assert on.packed and not off.packed
    fingerprints = {
        mode: {
            frozenset(s.assignment): s.fingerprint for s in report.solutions
        }
        for mode, report in (("on", on), ("off", off))
    }
    assert fingerprints["on"] == fingerprints["off"]
    shared = set(on_observer.verdicts) & set(off_observer.verdicts)
    assert shared, "modes share no dispatched candidates"
    for key in shared:
        assert on_observer.verdicts[key] == off_observer.verdicts[key], key


@pytest.mark.parametrize("name", ["msi-tiny", "german-small"])
def test_synthesis_backends_match_when_packed(name):
    """Packed mode composes with the process backend (and the PassStart
    tripwire lets matching configs through)."""
    sequential = SynthesisEngine(
        build_skeleton(name), SynthesisConfig(packed=True)
    ).run()
    distributed = DistributedSynthesisEngine(
        SystemSpec(name), SynthesisConfig(packed=True),
        workers=2, min_batch_size=2,
    ).run()
    assert assignment_view(sequential) == assignment_view(distributed)


@pytest.mark.parametrize("flags", [
    dict(generalise_conflicts=False),
    dict(prefix_reuse=False),
    dict(pruning=False),
    dict(naive_match=True),
    dict(explorer="dfs"),
])
def test_synthesis_flag_combinations_match(flags):
    """Packed on/off agree under every other acceleration toggle too."""
    on = SynthesisEngine(
        build_skeleton("msi-tiny"), SynthesisConfig(packed=True, **flags)
    ).run()
    off = SynthesisEngine(
        build_skeleton("msi-tiny"), SynthesisConfig(packed=False, **flags)
    ).run()
    assert assignment_view(on) == assignment_view(off)

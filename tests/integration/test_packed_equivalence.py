"""Equivalence suite for the packed-state kernel.

Every exploration runs on packed encodings, so the kernel is checked
against two baselines that share none of its machinery:

* the plain breadth-first search of :mod:`tests.bfs_oracle` over object
  states — ``rule.guard``/``rule.fire``, ``system.canonicalize``, the
  invariants and the deadlock policy, with no codec and no memo.  On
  every catalog protocol (seeded bugs, the eviction extension and
  symmetry off included), the kernel must report the same verdict,
  failure kind, state/transition/attempt counts, depth and trace, and
  any counterexample trace must *replay* as real firings.  Its visited
  set also fixes the solution fingerprint: the kernel's
  ``fingerprint_visited`` must equal ``fingerprint_state_set`` over the
  reference's canonical states;
* for synthesis, the same skeleton with its codec removed, which
  explores on the whole-state codec derived from ``canonicalize``: the
  solution sets, per-candidate verdicts, fingerprints and ``evaluated``
  counts must match under every acceleration toggle and on the process
  backend.
"""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.core.candidate import WILDCARD
from repro.core.engine import SynthesisObserver
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.mc.context import ExecutionContext
from repro.mc.hashing import fingerprint_state_set
from repro.mc.kernel import ExplorationKernel
from repro.protocols.catalog import PROTOCOL_BUILDERS, build_skeleton
from repro.protocols.german import build_german_system
from repro.protocols.moesi import build_moesi_system

from tests.bfs_oracle import assert_matches_reference, reference_bfs

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


def without_codec(system):
    """The system with its codec removed: it explores on the whole-state
    codec derived from its ``canonicalize``."""
    system.packed_spec = None
    return system


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
def test_verify_runs_match_the_reference(label, builder):
    reference = reference_bfs(builder())
    system = builder()
    assert system.packed_spec is not None
    result = ExplorationKernel(system).run()
    assert_matches_reference(result, reference)
    if result.trace is not None:
        # Traces are decoded back to object states, so they must replay
        # as real firings on a fresh system.
        replay_trace(builder(), result.trace)


@pytest.mark.parametrize("label", ["msi@2", "mesi", "german", "msi-nosym"])
def test_fingerprints_match_the_reference(label):
    """The kernel's fingerprint memo hashes exactly the reference's
    canonical visited set, with the codec and without it."""
    builder = dict(VERIFY_SYSTEMS)[label]
    expected = fingerprint_state_set(reference_bfs(builder()).visited)
    for system in (builder(), without_codec(builder())):
        explorer = ExplorationKernel(system)
        explorer.run()
        assert explorer.fingerprint_visited() == expected


@pytest.mark.parametrize("name", SKELETONS)
def test_synthesis_matches_the_codecless_run(name):
    on_observer = NamedVerdictRecorder()
    off_observer = NamedVerdictRecorder()
    on = SynthesisEngine(
        build_skeleton(name),
        SynthesisConfig(compute_fingerprints=True),
        on_observer,
    ).run()
    off = SynthesisEngine(
        without_codec(build_skeleton(name)),
        SynthesisConfig(compute_fingerprints=True),
        off_observer,
    ).run()
    assert assignment_view(on) == assignment_view(off)
    assert executed_view(on) == executed_view(off)
    assert {hole.name for hole in on.holes} == {hole.name for hole in off.holes}
    assert on.evaluated == off.evaluated
    fingerprints = {
        mode: {
            frozenset(s.assignment): s.fingerprint for s in report.solutions
        }
        for mode, report in (("on", on), ("off", off))
    }
    assert fingerprints["on"] == fingerprints["off"]
    shared = set(on_observer.verdicts) & set(off_observer.verdicts)
    assert shared, "runs share no dispatched candidates"
    for key in shared:
        assert on_observer.verdicts[key] == off_observer.verdicts[key], key


@pytest.mark.parametrize("name", ["msi-tiny", "german-small"])
def test_synthesis_backends_match(name):
    """The packed kernel composes with the process backend."""
    sequential = SynthesisEngine(build_skeleton(name), SynthesisConfig()).run()
    distributed = DistributedSynthesisEngine(
        SystemSpec(name), SynthesisConfig(), workers=2, min_batch_size=2,
    ).run()
    assert assignment_view(sequential) == assignment_view(distributed)


@pytest.mark.parametrize("flags", [
    dict(generalise_conflicts=False),
    dict(prefix_reuse=False),
    dict(pruning=False),
])
def test_synthesis_flag_combinations_match(flags):
    """Codec on/off agree under every other acceleration toggle too."""
    on = SynthesisEngine(
        build_skeleton("msi-tiny"), SynthesisConfig(**flags)
    ).run()
    off = SynthesisEngine(
        without_codec(build_skeleton("msi-tiny")), SynthesisConfig(**flags)
    ).run()
    assert assignment_view(on) == assignment_view(off)
    assert on.evaluated == off.evaluated

"""The kernel's one search order, checked run by run against a plain BFS.

:class:`~repro.mc.kernel.ExplorationKernel` explores breadth-first with
the rules tried in declaration order.  :func:`tests.bfs_oracle.reference_bfs`
does the same over object states with none of the kernel's machinery,
so a kernel run must show exactly what the oracle saw: verdict, failure
kind, counts, deepest depth, executed holes and the counterexample
trace, state by state (hence also a shortest one).

* small hand-built systems with known traps (invariant, deadlock,
  coverage, a shortcut to the violation);
* random complete candidates of every catalog skeleton, several per
  test on one shared system, so later runs take the warm firing-memo
  path under a resolver that numbers holes differently;
* the first solutions synthesis reports per skeleton: each explores the
  oracle's whole reachable set, and its ``states_visited`` and
  fingerprint are the oracle's.
"""

import random

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.mc.context import FixedResolver
from repro.mc.hashing import fingerprint_state_set
from repro.mc.kernel import ExplorationKernel
from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
from repro.mc.rule import Rule
from repro.mc.system import TransitionSystem
from repro.protocols.catalog import build_skeleton_with_holes

from tests.bfs_oracle import assert_matches_reference, reference_bfs
from tests.integration.test_packed_equivalence import SKELETONS

#: random candidates checked per test, all on one system
CANDIDATES_PER_SEED = 3
SEEDS = range(7)
#: solutions per skeleton checked against the oracle
SOLUTIONS_CHECKED = 3


def counter_system(limit=5, invariants=(), coverage=(), deadlock=None):
    """0 -> 1 -> ... -> limit, with a self-loop at the end."""
    return TransitionSystem(
        name="counter",
        initial_states=[0],
        rules=[
            Rule("inc", guard=lambda s: s < limit, apply=lambda s, ctx: [s + 1]),
            Rule("stay", guard=lambda s: s == limit, apply=lambda s, ctx: [s]),
        ],
        invariants=invariants,
        coverage=coverage,
        deadlock=deadlock or DeadlockPolicy.fail(),
    )


def shortcut_system():
    """A long chain and a one-step jump both reach the bad state 10; the
    jump is declared after the chain rule."""
    return TransitionSystem(
        name="shortcut",
        initial_states=[0],
        rules=[
            Rule("inc", guard=lambda s: 0 <= s < 10, apply=lambda s, ctx: [s + 1]),
            Rule("jump", guard=lambda s: s == 0, apply=lambda s, ctx: [10]),
            Rule("stay", guard=lambda s: s == 10, apply=lambda s, ctx: [s]),
        ],
        invariants=[Invariant("not-ten", lambda s: s != 10)],
    )


def diamond_system():
    """Two rules fan out from every state of a 4x4 grid; the bad corner
    is reachable along many equally short paths, so only the search
    order decides which one the trace takes."""
    return TransitionSystem(
        name="diamond",
        initial_states=[(0, 0)],
        rules=[
            Rule("right", guard=lambda s: s[0] < 3,
                 apply=lambda s, ctx: [(s[0] + 1, s[1])]),
            Rule("down", guard=lambda s: s[1] < 3,
                 apply=lambda s, ctx: [(s[0], s[1] + 1)]),
        ],
        invariants=[Invariant("not-corner", lambda s: s != (3, 3))],
    )


SMALL_SYSTEMS = {
    "counter": lambda: counter_system(),
    "counter-invariant": lambda: counter_system(
        invariants=[Invariant("lt3", lambda s: s < 3)]),
    "counter-coverage": lambda: counter_system(
        coverage=[CoverageProperty("c9", lambda s: s == 9)]),
    "dead-end": lambda: TransitionSystem(
        name="dead",
        initial_states=[0],
        rules=[Rule("inc", guard=lambda s: s < 2, apply=lambda s, ctx: [s + 1])],
    ),
    "bad-initial": lambda: TransitionSystem(
        name="bad-init",
        initial_states=[1, 99],
        rules=[Rule("noop", guard=lambda s: True, apply=lambda s, ctx: [s])],
        invariants=[Invariant("not-99", lambda s: s != 99)],
    ),
    "shortcut": shortcut_system,
    "diamond": diamond_system,
}


@pytest.mark.parametrize("label", sorted(SMALL_SYSTEMS))
def test_small_systems_match_the_reference(label):
    build = SMALL_SYSTEMS[label]
    reference = reference_bfs(build())
    assert_matches_reference(ExplorationKernel(build()).run(), reference)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SKELETONS)
def test_random_candidates_match_the_reference(name, seed):
    system, holes = build_skeleton_with_holes(name)
    rng = random.Random(seed)
    for _ in range(CANDIDATES_PER_SEED):
        assignment = {hole: rng.choice(hole.domain) for hole in holes}
        reference = reference_bfs(system, FixedResolver(assignment))
        result = ExplorationKernel(system, resolver=FixedResolver(assignment)).run()
        assert_matches_reference(result, reference)


@pytest.mark.parametrize("name", SKELETONS)
def test_solutions_match_the_reference(name):
    report = SynthesisEngine(
        build_skeleton_with_holes(name)[0],
        SynthesisConfig(compute_fingerprints=True),
    ).run()
    assert report.solutions
    chosen = sorted(report.solutions, key=lambda s: sorted(s.assignment))
    for solution in chosen[:SOLUTIONS_CHECKED]:
        system, holes = build_skeleton_with_holes(name)
        named = dict(solution.assignment)
        assignment = {
            hole: hole.domain[hole.index_of(named[hole.name])]
            for hole in holes
            if hole.name in named
        }
        reference = reference_bfs(system, FixedResolver(assignment, strict=False))
        assert reference.kind is None
        explorer = ExplorationKernel(
            system, resolver=FixedResolver(assignment, strict=False)
        )
        assert_matches_reference(explorer.run(), reference)
        expected = fingerprint_state_set(reference.visited)
        assert explorer.fingerprint_visited() == expected
        assert solution.states_visited == reference.states
        assert solution.fingerprint == expected

"""Property test: the synthesis engines are sound and complete.

Random synthesis problems are generated as layered decision DAGs (a
generalisation of the paper's Figure 2 toy): each node carries a hole whose
actions jump to a later node, an error state, or the accepting state.
Ground truth is computed by brute force — every full assignment is model
checked with a fixed resolver — and compared against what the engines
report:

* **pruned engine**: each solution constrains the holes discovered up to
  its success; its don't-care *expansions* must partition the ground-truth
  set exactly (soundness: every expansion verifies; completeness: nothing
  verified is missed; disjointness: success memoisation prevents overlap).
* **naive engine**: solutions padded with default actions must equal the
  ground truth set exactly, and the number of evaluations must equal the
  full product (the telescoping dedup argument).
"""

import itertools
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SynthesisConfig, SynthesisEngine
from repro.core.action import Action
from repro.core.hole import Hole
from repro.mc.context import FixedResolver
from repro.mc.kernel import ExplorationKernel
from repro.mc.properties import DeadlockPolicy, Invariant
from repro.mc.rule import Rule
from repro.mc.result import Verdict
from repro.mc.system import TransitionSystem

from tests.flat_oracle import use_flat_matching

ERR = -1
OK = -2


def build_random_problem(arities: List[int], targets: List[List[int]]):
    """A layered decision DAG: node i's hole picks targets[i][action].

    Targets are node indices greater than i, or ERR/OK.
    """
    holes = [
        Hole(f"hole{i}", [Action(f"a{j}") for j in range(arity)])
        for i, arity in enumerate(arities)
    ]

    def make_rule(i: int) -> Rule:
        hole = holes[i]

        def apply(state, ctx, _i=i, _hole=hole):
            action = ctx.resolve(_hole)
            return [targets[_i][_hole.index_of(action.name)]]

        return Rule(f"step{i}", guard=lambda s, _i=i: s == _i, apply=apply)

    system = TransitionSystem(
        name="random-dag",
        initial_states=[0],
        rules=[make_rule(i) for i in range(len(arities))],
        invariants=[Invariant("no-err", lambda s: s != ERR)],
        deadlock=DeadlockPolicy.fail(quiescent=lambda s: s == OK),
    )
    return system, holes


def ground_truth(system_factory, holes) -> set:
    """All fully-assigned candidates that verify, by brute force."""
    verified = set()
    for combo in itertools.product(*(range(h.arity) for h in holes)):
        # Key by hole *name*: each factory() call creates fresh hole
        # objects, and FixedResolver resolves by name as a fallback.
        assignment = {
            hole.name: hole.domain[digit] for hole, digit in zip(holes, combo)
        }
        result = ExplorationKernel(
            system_factory(), resolver=FixedResolver(assignment)
        ).run()
        if result.verdict is Verdict.SUCCESS:
            verified.add(combo)
    return verified


def expand_solution(assignment: Dict[str, str], holes) -> set:
    """All full assignments agreeing with a (possibly partial) solution."""
    choices = []
    for hole in holes:
        if hole.name in assignment:
            choices.append([hole.index_of(assignment[hole.name])])
        else:
            choices.append(list(range(hole.arity)))
    return set(itertools.product(*choices))


@st.composite
def dag_problems(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    arities = [draw(st.integers(min_value=2, max_value=3)) for _ in range(n_nodes)]
    targets: List[List[int]] = []
    for i in range(n_nodes):
        node_targets = []
        for _ in range(arities[i]):
            candidates = [ERR, OK] + list(range(i + 1, n_nodes))
            node_targets.append(draw(st.sampled_from(candidates)))
        targets.append(node_targets)
    return arities, targets


@settings(max_examples=40, deadline=None)
@given(dag_problems())
def test_pruned_engine_matches_brute_force(problem):
    arities, targets = problem

    def factory():
        return build_random_problem(arities, targets)

    system, holes = factory()
    truth = ground_truth(lambda: factory()[0], holes)

    report = SynthesisEngine(system).run()
    hole_order = {hole.name: hole for hole in holes}
    assert set(hole_order) == {h.name for h in holes}

    covered: set = set()
    for solution in report.solutions:
        expansion = expand_solution(solution.assignment_dict(), holes)
        # soundness: every expansion member verifies
        assert expansion <= truth, "pruned engine reported a non-solution"
        # disjointness: success memoisation prevents double counting
        assert not (covered & expansion), "solutions overlap"
        covered |= expansion
    # completeness
    assert covered == truth


@settings(max_examples=40, deadline=None)
@given(dag_problems())
def test_naive_engine_matches_brute_force(problem):
    arities, targets = problem

    def factory():
        return build_random_problem(arities, targets)

    system, holes = factory()
    truth = ground_truth(lambda: factory()[0], holes)

    report = SynthesisEngine(system, SynthesisConfig(pruning=False)).run()

    # Naive-mode solution semantics: assigned holes are fixed; executed-but-
    # unassigned holes took the default action (index 0); holes never
    # executed by the verifying run are genuine don't-cares.
    covered: set = set()
    for solution in report.solutions:
        assignment = dict(solution.assignment_dict())
        executed = set(solution.executed_holes)
        choices = []
        for hole in holes:
            if hole.name in assignment:
                choices.append([hole.index_of(assignment[hole.name])])
            elif hole.name in executed:
                choices.append([0])  # the default action
            else:
                choices.append(list(range(hole.arity)))
        expansion = set(itertools.product(*choices))
        assert expansion <= truth, "naive engine reported a non-solution"
        # NOTE: no disjointness here — the naive algorithm re-evaluates
        # extensions of an earlier success whose extra holes are
        # unreachable, reporting them again; eliminating that redundancy is
        # exactly what the pruned engine's success memoisation is for.
        covered |= expansion
    assert covered == truth

    # the telescoping dedup: evaluations == the full product over the holes
    # the naive runs actually discovered
    discovered = report.holes
    product = 1
    for hole in discovered:
        product *= hole.arity
    assert report.evaluated == product


@settings(max_examples=25, deadline=None)
@given(dag_problems())
def test_flat_matching_agrees_with_subtree(problem):
    arities, targets = problem

    def factory():
        return build_random_problem(arities, targets)[0]

    subtree = SynthesisEngine(factory()).run()
    with pytest.MonkeyPatch.context() as patch:
        use_flat_matching(patch)
        flat = SynthesisEngine(factory()).run()
    assert {s.digits for s in flat.solutions} == {s.digits for s in subtree.solutions}
    assert flat.evaluated == subtree.evaluated
    assert flat.failure_patterns == subtree.failure_patterns

"""Equivalence matrix for the two frontier strategies (BFS and DFS).

The strategy only decides the order in which states are expanded. On
every catalog protocol and skeleton, exploring breadth-first and
depth-first must produce

* identical verify verdicts, failure kinds and wildcard flags (including
  the seeded-bug builds, the eviction extension and symmetry-off builds),
  with every counterexample trace *replayable* and the BFS trace never
  longer than the DFS one;
* identical ``states_visited`` whenever the whole reachable set is
  explored (a successful run);
* identical synthesis solution sets and executed holes (compared by
  hole-name -> action-name assignment: the strategy changes rule firing
  order, hence hole discovery order and digit positions, but never which
  completions are correct), under every other acceleration toggle and on
  the process backend;
* per-candidate verdict agreement wherever both strategies dispatched the
  same (named) candidate to the model checker.

The pruning-pattern economy legitimately differs — patterns are
generalised from traces, and DFS traces are longer — so evaluated counts
are not compared.
"""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.mc.context import FixedResolver
from repro.mc.kernel import make_explorer
from repro.mc.result import Verdict
from repro.protocols.catalog import build_skeleton

from tests.integration.test_packed_equivalence import (
    SKELETONS,
    VERIFY_SYSTEMS,
    NamedVerdictRecorder,
    assignment_view,
    executed_view,
    replay_trace,
)


@pytest.mark.parametrize("label,builder", VERIFY_SYSTEMS,
                         ids=[label for label, _ in VERIFY_SYSTEMS])
def test_verify_verdicts_match(label, builder):
    bfs = make_explorer("bfs", builder()).run()
    dfs = make_explorer("dfs", builder()).run()
    assert dfs.verdict == bfs.verdict
    assert dfs.failure_kind == bfs.failure_kind
    assert dfs.wildcard_encountered == bfs.wildcard_encountered
    if bfs.verdict is Verdict.SUCCESS:
        assert dfs.stats.states_visited == bfs.stats.states_visited
    assert (bfs.trace is None) == (dfs.trace is None)
    if bfs.trace is not None:
        replay_trace(builder(), bfs.trace)
        replay_trace(builder(), dfs.trace)
        assert len(bfs.trace.steps) <= len(dfs.trace.steps)


def test_reference_candidate_check_matches():
    """A skeleton's reference completion verifies identically under both
    strategies, over the same reachable set."""
    from repro.protocols.msi.skeleton import msi_small

    def run(strategy):
        skeleton = msi_small(2)
        resolver = FixedResolver({
            hole: hole.domain[
                hole.index_of(skeleton.reference_assignment()[hole.name])
            ]
            for hole in skeleton.holes
        })
        return make_explorer(strategy, skeleton.system, resolver=resolver).run()

    bfs, dfs = run("bfs"), run("dfs")
    assert bfs.verdict is Verdict.SUCCESS
    assert dfs.verdict is Verdict.SUCCESS
    assert dfs.stats.states_visited == bfs.stats.states_visited


@pytest.mark.parametrize("name", SKELETONS)
def test_synthesis_solution_sets_match(name):
    bfs_observer = NamedVerdictRecorder()
    dfs_observer = NamedVerdictRecorder()
    bfs = SynthesisEngine(
        build_skeleton(name), SynthesisConfig(explorer="bfs"), bfs_observer
    ).run()
    dfs = SynthesisEngine(
        build_skeleton(name), SynthesisConfig(explorer="dfs"), dfs_observer
    ).run()
    assert bfs.solutions
    assert assignment_view(dfs) == assignment_view(bfs)
    assert executed_view(dfs) == executed_view(bfs)
    assert {hole.name for hole in dfs.holes} == {hole.name for hole in bfs.holes}
    assert bfs.explorer == "bfs" and dfs.explorer == "dfs"
    shared = set(bfs_observer.verdicts) & set(dfs_observer.verdicts)
    assert shared, "strategies share no dispatched candidates"
    for key in shared:
        assert dfs_observer.verdicts[key] == bfs_observer.verdicts[key], key


@pytest.mark.parametrize("name", ["msi-tiny", "german-small"])
def test_synthesis_backends_match_under_dfs(name):
    """DFS composes with the process backend, and it finds the BFS
    solution set."""
    baseline = SynthesisEngine(build_skeleton(name), SynthesisConfig()).run()
    sequential = SynthesisEngine(
        build_skeleton(name), SynthesisConfig(explorer="dfs")
    ).run()
    distributed = DistributedSynthesisEngine(
        SystemSpec(name), SynthesisConfig(explorer="dfs"),
        workers=2, min_batch_size=2,
    ).run()
    assert (
        assignment_view(baseline)
        == assignment_view(sequential)
        == assignment_view(distributed)
    )
    assert sequential.explorer == distributed.explorer == "dfs"


@pytest.mark.parametrize("flags", [
    dict(generalise_conflicts=False),
    dict(prefix_reuse=False),
    dict(pruning=False),
    dict(record_traces=False),
])
def test_synthesis_flag_combinations_match(flags):
    """BFS and DFS agree under every other acceleration toggle too."""
    bfs = SynthesisEngine(
        build_skeleton("msi-tiny"), SynthesisConfig(explorer="bfs", **flags)
    ).run()
    dfs = SynthesisEngine(
        build_skeleton("msi-tiny"), SynthesisConfig(explorer="dfs", **flags)
    ).run()
    assert bfs.solutions
    assert assignment_view(dfs) == assignment_view(bfs)

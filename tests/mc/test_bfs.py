"""Tests for the BFS explorer: verdicts, minimal traces, wildcard semantics."""


from repro.core.action import Action
from repro.core.hole import Hole
from repro.mc.context import FixedResolver
from repro.mc.kernel import ExplorationKernel, ExplorationLimits
from repro.mc.properties import CoverageProperty, DeadlockPolicy, Invariant
from repro.mc.result import FailureKind, Verdict
from repro.mc.rule import Rule
from repro.mc.system import TransitionSystem
from tests.bfs_oracle import assert_matches_reference, reference_bfs


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


class TestVerdicts:
    def test_success_on_clean_system(self):
        result = ExplorationKernel(counter_system()).run()
        assert result.verdict is Verdict.SUCCESS
        assert result.stats.states_visited == 6

    def test_invariant_failure(self):
        system = counter_system(invariants=[Invariant("small", lambda s: s < 3)])
        result = ExplorationKernel(system).run()
        assert result.verdict is Verdict.FAILURE
        assert result.failure_kind is FailureKind.INVARIANT
        assert "small" in result.message

    def test_invariant_checked_on_initial_state(self):
        system = TransitionSystem(
            name="bad-init",
            initial_states=[99],
            rules=[Rule("noop", guard=lambda s: True, apply=lambda s, ctx: [s])],
            invariants=[Invariant("not-99", lambda s: s != 99)],
        )
        result = ExplorationKernel(system).run()
        assert result.is_failure
        assert len(result.trace) == 0  # violation in the initial state itself

    def test_deadlock_failure(self):
        system = TransitionSystem(
            name="dead",
            initial_states=[0],
            rules=[Rule("inc", guard=lambda s: s < 2, apply=lambda s, ctx: [s + 1])],
        )
        result = ExplorationKernel(system).run()
        assert result.verdict is Verdict.FAILURE
        assert result.failure_kind is FailureKind.DEADLOCK
        assert result.trace.final_state == 2

    def test_quiescent_state_is_not_deadlock(self):
        system = TransitionSystem(
            name="quiet",
            initial_states=[0],
            rules=[Rule("inc", guard=lambda s: s < 2, apply=lambda s, ctx: [s + 1])],
            deadlock=DeadlockPolicy.fail(quiescent=lambda s: s == 2),
        )
        assert ExplorationKernel(system).run().verdict is Verdict.SUCCESS

    def test_deadlock_allow_policy(self):
        system = TransitionSystem(
            name="quiet",
            initial_states=[0],
            rules=[Rule("inc", guard=lambda s: s < 2, apply=lambda s, ctx: [s + 1])],
            deadlock=DeadlockPolicy.allow(),
        )
        assert ExplorationKernel(system).run().verdict is Verdict.SUCCESS

    def test_coverage_met(self):
        system = counter_system(coverage=[CoverageProperty("reaches-5", lambda s: s == 5)])
        assert ExplorationKernel(system).run().verdict is Verdict.SUCCESS

    def test_coverage_unmet_is_failure_without_wildcards(self):
        system = counter_system(coverage=[CoverageProperty("reaches-9", lambda s: s == 9)])
        result = ExplorationKernel(system).run()
        assert result.verdict is Verdict.FAILURE
        assert result.failure_kind is FailureKind.COVERAGE
        assert result.unmet_coverage == ("reaches-9",)


class TestMinimalTraces:
    def test_trace_is_shortest_path(self):
        # Two paths to the violation: a long chain and a short jump.
        def apply_jump(s, ctx):
            return [10]

        system = TransitionSystem(
            name="shortcut",
            initial_states=[0],
            rules=[
                Rule("inc", guard=lambda s: 0 <= s < 10, apply=lambda s, ctx: [s + 1]),
                Rule("jump", guard=lambda s: s == 0, apply=apply_jump),
                Rule("stay", guard=lambda s: s == 10, apply=lambda s, ctx: [s]),
            ],
            invariants=[Invariant("not-ten", lambda s: s != 10)],
        )
        result = ExplorationKernel(system).run()
        assert result.is_failure
        assert len(result.trace) == 1
        assert result.trace.rule_names == ["jump"]

    def test_trace_states_form_a_path(self):
        system = counter_system(invariants=[Invariant("small", lambda s: s < 4)])
        trace = ExplorationKernel(system).run().trace
        states = [step.state for step in trace]
        assert states == [0, 1, 2, 3, 4]


class TestWildcards:
    def make_holed_system(self):
        hole = Hole("h", [Action("go"), Action("stop")])

        def apply(s, ctx):
            act = ctx.resolve(hole)
            return [s + 1] if act.name == "go" else [s]

        system = TransitionSystem(
            name="holed",
            initial_states=[0],
            rules=[
                Rule("step", guard=lambda s: s < 2, apply=apply),
                Rule("stay", guard=lambda s: s >= 2, apply=lambda s, ctx: [s]),
            ],
            invariants=[Invariant("small", lambda s: s < 10)],
        )
        return system, hole

    def test_wildcard_yields_unknown(self):
        system, _hole = self.make_holed_system()
        result = ExplorationKernel(system, resolver=FixedResolver({}, strict=False)).run()
        assert result.verdict is Verdict.UNKNOWN
        assert result.wildcard_encountered
        assert result.stats.wildcard_cuts >= 1

    def test_wildcard_cut_state_is_not_deadlock(self):
        system, _hole = self.make_holed_system()
        # The initial state's only rule is wildcard-cut: must be UNKNOWN,
        # not a deadlock failure.
        result = ExplorationKernel(system, resolver=FixedResolver({}, strict=False)).run()
        assert result.verdict is Verdict.UNKNOWN

    def test_assigned_hole_explores_fully(self):
        system, hole = self.make_holed_system()
        resolver = FixedResolver({hole: hole.domain[0]})
        result = ExplorationKernel(system, resolver=resolver).run()
        assert result.verdict is Verdict.SUCCESS
        assert result.executed_holes == frozenset({hole})

    def test_unmet_coverage_with_wildcards_is_unknown(self):
        system, _hole = self.make_holed_system()
        system.coverage.append(CoverageProperty("reach-2", lambda s: s == 2))
        result = ExplorationKernel(system, resolver=FixedResolver({}, strict=False)).run()
        assert result.verdict is Verdict.UNKNOWN
        assert result.unmet_coverage == ("reach-2",)


class TestLimitsAndCanonicalisation:
    def test_max_states_truncates_to_unknown(self):
        result = ExplorationKernel(
            counter_system(limit=1000),
            limits=ExplorationLimits(max_states=10),
        ).run()
        assert result.verdict is Verdict.UNKNOWN
        assert result.stats.truncated

    def test_max_depth_truncates_to_unknown(self):
        result = ExplorationKernel(
            counter_system(limit=1000),
            limits=ExplorationLimits(max_depth=3),
        ).run()
        assert result.verdict is Verdict.UNKNOWN

    def test_failure_beats_truncation(self):
        system = counter_system(
            limit=1000, invariants=[Invariant("tiny", lambda s: s < 2)]
        )
        result = ExplorationKernel(system, limits=ExplorationLimits(max_states=500)).run()
        assert result.verdict is Verdict.FAILURE

    def test_canonicalisation_merges_states(self):
        # States n and -n are symmetric; canonicalise to abs().
        system = TransitionSystem(
            name="mirror",
            initial_states=[0],
            rules=[
                Rule("up", guard=lambda s: abs(s) < 4, apply=lambda s, ctx: [s + 1]),
                Rule("down", guard=lambda s: abs(s) < 4, apply=lambda s, ctx: [s - 1]),
                Rule("stay", guard=lambda s: abs(s) >= 4, apply=lambda s, ctx: [s]),
            ],
            canonicalize=abs,
        )
        result = ExplorationKernel(system).run()
        assert result.verdict is Verdict.SUCCESS
        assert result.stats.states_visited == 5  # 0..4 instead of -4..4

    def test_self_loop_counts_as_transition(self):
        """The final ``stay`` self-loop fires once and finds no new state:
        3 ``inc`` firings plus 1 ``stay`` firing over 4 states."""
        system = counter_system(limit=3)
        reference = reference_bfs(system)
        assert (reference.states, reference.transitions) == (4, 4)
        assert_matches_reference(ExplorationKernel(system).run(), reference)

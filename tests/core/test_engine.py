"""End-to-end tests of the synthesis engines, mostly on the Figure 2 toy system."""

import itertools

import pytest

from repro.core.action import Action
from repro.core.engine import SynthesisConfig, SynthesisEngine, SynthesisObserver
from repro.core.hole import Hole
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.mc.context import FixedResolver
from repro.mc.kernel import ExplorationKernel
from repro.mc.properties import Invariant
from repro.mc.rule import Rule
from repro.mc.system import TransitionSystem
from repro.protocols.catalog import build_skeleton, build_skeleton_with_holes
from repro.protocols.toy import build_figure2_skeleton, build_figure2_solution

from tests.flat_oracle import use_flat_matching


class RecordingObserver(SynthesisObserver):
    def __init__(self):
        self.runs = []
        self.patterns = []
        self.solutions = []
        self.passes = []

    def on_pass_started(self, pass_index, holes):
        self.passes.append((pass_index, len(holes)))

    def on_run(self, run_index, vector, result, holes):
        self.runs.append((run_index, vector.entries, result.verdict.value))

    def on_pattern(self, pattern, holes):
        self.patterns.append(pattern.constraints)

    def on_solution(self, solution, holes):
        self.solutions.append(solution.digits)


class TestFigure2Pruned:
    """The engine must reproduce Figure 2's run table exactly."""

    @pytest.fixture
    def report_and_observer(self):
        observer = RecordingObserver()
        report = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(), observer
        ).run()
        return report, observer

    def test_ten_runs_total(self, report_and_observer):
        report, _observer = report_and_observer
        assert report.evaluated == 10

    def test_naive_space_is_24(self, report_and_observer):
        report, _observer = report_and_observer
        assert report.naive_candidate_space == 24
        assert report.wildcard_candidate_space == 108

    def test_exact_run_sequence(self, report_and_observer):
        _report, observer = report_and_observer
        # Runs of Figure 2, as (digits, verdict). A=0, B=1, C=2.
        expected = [
            ((), "unknown"),               # run 1: <> discovers hole 1
            ((0,), "failure"),             # run 2: <1@A>
            ((1,), "unknown"),             # run 3: <1@B> discovers hole 2
            ((2,), "failure"),             # run 4: <1@C, 2@?>
            ((1, 0), "unknown"),           # run 5: <1@B, 2@A> discovers hole 3
            ((1, 1), "failure"),           # run 6: <1@B, 2@B, 3@?>
            ((1, 0, 0), "failure"),        # run 7: <1@B, 2@A, 3@A>
            ((1, 0, 1), "unknown"),        # run 8: <1@B, 2@A, 3@B> discovers hole 4
            ((1, 0, 1, 0), "failure"),     # run 9: <1@B, 2@A, 3@B, 4@A>
            ((1, 0, 1, 1), "success"),     # run 10
        ]
        assert [(digits, verdict) for _i, digits, verdict in observer.runs] == expected

    def test_five_pruning_patterns(self, report_and_observer):
        report, observer = report_and_observer
        assert report.failure_patterns == 5
        assert observer.patterns == [
            ((0, 0),),
            ((0, 2),),
            ((0, 1), (1, 1)),
            ((0, 1), (1, 0), (2, 0)),
            ((0, 1), (1, 0), (2, 1), (3, 0)),
        ]

    def test_unique_solution(self, report_and_observer):
        report, _observer = report_and_observer
        assert len(report.solutions) == 1
        solution = report.solutions[0]
        assert solution.assignment_dict() == build_figure2_solution()
        assert report.format_solution(solution) == "<1@B, 2@A, 3@B, 4@B>"

    def test_holes_discovered_in_order(self, report_and_observer):
        report, _observer = report_and_observer
        assert [h.name for h in report.holes] == ["hole1", "hole2", "hole3", "hole4"]

    def test_accounting_adds_up(self, report_and_observer):
        # Every covered candidate is evaluated, pruned, or skipped.
        report, _observer = report_and_observer
        assert report.covered == (
            (report.evaluated - 1)  # initial run not part of a pass
            + report.pruned_failure
            + report.skipped_success
        )


class TestFigure2Naive:
    def test_naive_evaluates_full_product(self):
        report = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(pruning=False)
        ).run()
        assert report.evaluated == 24
        assert report.failure_patterns == 0
        assert len(report.solutions) == 1
        assert report.solutions[0].assignment_dict() == build_figure2_solution()

    def test_reduction_metric(self):
        pruned = SynthesisEngine(build_figure2_skeleton()).run()
        assert pruned.reduction_vs_naive == pytest.approx(1 - 10 / 24)


class TestNaiveMatchMode:
    def test_flat_matching_gives_identical_counts(self, monkeypatch):
        subtree = SynthesisEngine(build_figure2_skeleton()).run()
        use_flat_matching(monkeypatch)
        flat = SynthesisEngine(build_figure2_skeleton()).run()
        assert flat.evaluated == subtree.evaluated
        assert flat.failure_patterns == subtree.failure_patterns
        assert flat.pruned_failure == subtree.pruned_failure
        assert [s.digits for s in flat.solutions] == [
            s.digits for s in subtree.solutions
        ]


class TestGeneralisedPatterns:
    def test_generalised_patterns_never_evaluate_more(self):
        report = SynthesisEngine(build_figure2_skeleton()).run()
        assert len(report.solutions) == 1
        # A generalised pattern constrains only the holes on the failing
        # run's path, a subset of the full-width candidate, so it never
        # prunes less.
        full = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(generalise_conflicts=False)
        ).run()
        assert report.evaluated <= full.evaluated

    def test_naive_runs_do_not_track_hole_paths(self, monkeypatch):
        from repro.mc import kernel

        tracked = []
        original = kernel.ExplorationKernel.__init__

        def spy(self, *args, **kwargs):
            tracked.append(kwargs.get("track_hole_paths", False))
            original(self, *args, **kwargs)

        monkeypatch.setattr(kernel.ExplorationKernel, "__init__", spy)
        SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(pruning=False)
        ).run()
        assert tracked and not any(tracked)
        tracked.clear()
        SynthesisEngine(build_figure2_skeleton()).run()
        assert tracked and all(tracked)


class TestProcessesEngine:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_same_solutions_any_worker_count(self, workers):
        report = DistributedSynthesisEngine(
            SystemSpec("figure2"), workers=workers
        ).run()
        assert len(report.solutions) == 1
        assert report.solutions[0].assignment_dict() == build_figure2_solution()
        assert report.threads == workers
        assert report.backend == "processes"

    def test_processes_naive_mode(self):
        report = DistributedSynthesisEngine(
            SystemSpec("figure2"), SynthesisConfig(pruning=False), workers=2
        ).run()
        assert report.evaluated == 24
        assert len(report.solutions) == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            DistributedSynthesisEngine(SystemSpec("figure2"), workers=0)


class TestStopConditions:
    def test_solution_limit(self):
        report = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(solution_limit=1)
        ).run()
        assert len(report.solutions) == 1
        assert report.stopped_early

    def test_max_evaluations(self):
        report = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(max_evaluations=3)
        ).run()
        assert report.evaluated <= 4
        assert report.stopped_early

    @pytest.mark.parametrize("budget", [1, 2, 5, 9])
    def test_budget_is_checked_before_the_model_check(self, budget):
        # Figure 2 needs 10 runs; a smaller budget stops after exactly
        # that many, never one over.
        report = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(max_evaluations=budget)
        ).run()
        assert report.evaluated == budget
        assert report.stopped_early
        assert report.solutions == []

    @pytest.mark.parametrize("budget", [10, 11])
    def test_budget_that_covers_the_run_does_not_stop_it(self, budget):
        report = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(max_evaluations=budget)
        ).run()
        assert report.evaluated == 10
        assert not report.stopped_early
        assert len(report.solutions) == 1

    def test_max_passes(self):
        report = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(max_passes=1)
        ).run()
        assert report.passes == 1
        assert report.stopped_early


class TestInherentFailure:
    def test_unsatisfiable_skeleton_detected(self):
        # The invariant fails before any hole is reachable.
        hole = Hole("h", [Action("a")])

        def apply(s, ctx):
            ctx.resolve(hole)
            return [s]

        system = TransitionSystem(
            name="doomed",
            initial_states=[0],
            rules=[
                Rule("bad", guard=lambda s: s == 0, apply=lambda s, ctx: [99]),
                Rule("hole", guard=lambda s: s == 99, apply=apply),
            ],
            invariants=[Invariant("never-99", lambda s: s != 99)],
        )
        report = SynthesisEngine(system).run()
        assert report.inherent_failure
        assert report.solutions == []
        assert report.evaluated == 1


class TestHoleFreeSystem:
    def test_complete_system_is_its_own_solution(self):
        system = TransitionSystem(
            name="complete",
            initial_states=[0],
            rules=[Rule("loop", guard=lambda s: True, apply=lambda s, ctx: [s])],
        )
        report = SynthesisEngine(system).run()
        assert len(report.solutions) == 1
        assert report.solutions[0].digits == ()
        assert report.holes == []


class TestFingerprints:
    def test_solution_fingerprints_enabled(self):
        report = SynthesisEngine(
            build_figure2_skeleton(), SynthesisConfig(compute_fingerprints=True)
        ).run()
        assert report.solutions[0].fingerprint is not None

    def test_solution_fingerprints_disabled_by_default(self):
        report = SynthesisEngine(build_figure2_skeleton()).run()
        assert report.solutions[0].fingerprint is None
        assert report.solutions[0].states_visited > 0


class TestSuccessMemo:
    """Under pruning every solution is memoised as one success pattern,
    and the don't-care extensions it skips are solutions themselves."""

    @pytest.mark.parametrize("name", ["vi", "msi-tiny", "msi-evict"])
    def test_one_success_pattern_per_solution(self, name):
        report = SynthesisEngine(build_skeleton(name)).run()
        assert report.solutions
        assert report.success_patterns == len(report.solutions)

    def test_skipped_extensions_are_solutions(self):
        """msi-evict's partial solutions leave holes 5 and 6 unreached;
        every completion of them verifies."""
        system, holes = build_skeleton_with_holes("msi-evict")
        report = SynthesisEngine(system).run()
        assert report.skipped_success > 0
        partial = [s for s in report.solutions if len(s.assignment) < len(holes)]
        assert partial
        for solution in partial:
            assigned = solution.assignment_dict()
            free = [hole for hole in holes if hole.name not in assigned]
            for actions in itertools.product(*(hole.domain for hole in free)):
                completion = dict(assigned)
                completion.update(
                    (hole.name, action.name) for hole, action in zip(free, actions)
                )
                resolver = FixedResolver({
                    hole: hole.domain[hole.index_of(completion[hole.name])]
                    for hole in holes
                })
                result = ExplorationKernel(system, resolver=resolver).run()
                assert result.is_success, completion

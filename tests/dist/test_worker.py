"""Worker-side logic, driven inline (no processes)."""

import pytest

from repro.core import SynthesisConfig
from repro.core.engine import SynthesisCore
from repro.core.hole import Hole
from repro.core.action import Action
from repro.dist.messages import BatchTask, HoleSpec, PassStart, PatternUpdate
from repro.dist.worker import BatchRunner, WorkerHoleRegistry
from repro.errors import SynthesisError
from repro.protocols.catalog import build_skeleton
from repro.util.itertools2 import product_size


def hole(name, arity=2):
    return Hole(name, tuple(Action(f"{name}.a{i}") for i in range(arity)))


class TestWorkerHoleRegistry:
    def test_reserved_positions_follow_spec_order(self):
        registry = WorkerHoleRegistry(
            [HoleSpec("x", ("a", "b")), HoleSpec("y", ("a", "b", "c"))]
        )
        assert [h.name for h in registry.holes] == ["x", "y"]
        assert registry.radices() == (2, 3)

    def test_real_hole_binds_to_reserved_position_by_name(self):
        registry = WorkerHoleRegistry([HoleSpec("x", ("x.a0", "x.a1"))])
        real = hole("x")
        assert registry.position_of(real) == 0
        # Bound: the identity fast path now hits.
        assert registry.position_of(real, register=False) == 0
        assert len(registry) == 1

    def test_unreserved_hole_appends_after_prefix(self):
        registry = WorkerHoleRegistry([HoleSpec("x", ("x.a0", "x.a1"))])
        late = hole("late", arity=3)
        assert registry.position_of(late) == 1
        assert [h.name for h in registry.holes] == ["x", "late"]

    def test_register_false_still_resolves_reserved_names(self):
        registry = WorkerHoleRegistry([HoleSpec("x", ("x.a0", "x.a1"))])
        assert registry.position_of(hole("x"), register=False) == 0
        assert registry.position_of(hole("other"), register=False) is None

    def test_arity_mismatch_is_fatal(self):
        registry = WorkerHoleRegistry([HoleSpec("x", ("x.a0",))])
        with pytest.raises(SynthesisError, match="arity"):
            registry.position_of(hole("x", arity=2))

    def test_two_distinct_holes_sharing_a_name_are_fatal(self):
        """Same modelling error the base registry rejects: bind-by-name
        must not silently merge two genuinely distinct holes."""
        registry = WorkerHoleRegistry([HoleSpec("x", ("x.a0", "x.a1"))])
        assert registry.position_of(hole("x")) == 0
        with pytest.raises(SynthesisError, match="share the name"):
            registry.position_of(hole("x"))  # a second, distinct object
        late = hole("late")
        assert registry.position_of(late) == 1
        with pytest.raises(SynthesisError, match="share the name"):
            registry.position_of(hole("late"))


def start_message(system_name="figure2", config=None):
    """Run the initial (hole-discovering) evaluation and build PassStart."""
    system = build_skeleton(system_name)
    core = SynthesisCore(system, config or SynthesisConfig())
    core.run_initial()
    holes = core.registry.holes
    return system, core, PassStart(
        pass_index=1,
        first_new=0,
        hole_specs=tuple(HoleSpec.from_hole(h) for h in holes),
        fail_patterns=tuple(p.constraints for p in core.fail_table.all_patterns()),
        success_patterns=tuple(
            p.constraints for p in core.success_table.all_patterns()
        ),
    )


class TestBatchRunner:
    def test_batch_before_pass_is_an_error(self):
        runner = BatchRunner(build_skeleton("figure2"), SynthesisConfig())
        with pytest.raises(SynthesisError, match="before PassStart"):
            runner.run_batch(BatchTask(0, 0, 1))

    def test_full_range_batch_reports_deltas(self):
        system, _core, start = start_message()
        runner = BatchRunner(build_skeleton("figure2"), SynthesisConfig())
        runner.start_pass(start)
        total = product_size([spec.arity for spec in start.hole_specs])
        result = runner.run_batch(BatchTask(0, 0, total))
        assert result.covered == total
        assert result.evaluated > 0
        assert result.new_holes  # pass 1 of figure2 discovers more holes
        assert result.verdict_counts
        # Local run indices are 1-based within the batch.
        for solution in result.solutions:
            assert 1 <= solution.run_index <= result.evaluated

    def test_split_batches_match_contiguous_walk(self):
        _system, _core, start = start_message()
        total = product_size([spec.arity for spec in start.hole_specs])
        split = total // 2

        contiguous = BatchRunner(build_skeleton("figure2"), SynthesisConfig())
        contiguous.start_pass(start)
        whole = contiguous.run_batch(BatchTask(0, 0, total))

        chunked = BatchRunner(build_skeleton("figure2"), SynthesisConfig())
        chunked.start_pass(start)
        first = chunked.run_batch(BatchTask(0, 0, split))
        second = chunked.run_batch(BatchTask(1, split, total))

        assert first.evaluated + second.evaluated == whole.evaluated
        assert first.covered + second.covered == whole.covered
        assert set(first.new_fail_patterns) | set(second.new_fail_patterns) == set(
            whole.new_fail_patterns
        )

    def test_eval_budget_stops_the_batch(self):
        _system, _core, start = start_message()
        runner = BatchRunner(build_skeleton("figure2"), SynthesisConfig())
        runner.start_pass(start)
        total = product_size([spec.arity for spec in start.hole_specs])
        result = runner.run_batch(BatchTask(0, 0, total, eval_budget=1))
        assert result.budget_exhausted
        assert result.evaluated == 1

    def test_pattern_delta_prunes_immediately(self):
        """A broadcast delta must prune the next batch before evaluation."""
        _system, _core, start = start_message()
        total = product_size([spec.arity for spec in start.hole_specs])

        baseline = BatchRunner(build_skeleton("figure2"), SynthesisConfig())
        baseline.start_pass(start)
        unpruned = baseline.run_batch(BatchTask(0, 0, total))

        runner = BatchRunner(build_skeleton("figure2"), SynthesisConfig())
        runner.start_pass(start)
        # Fabricate a pattern matching the whole first digit subtree.
        delta = (((0, 0),),)
        runner.apply_patterns(PatternUpdate(start.pass_index, fail_delta=delta))
        pruned = runner.run_batch(BatchTask(0, 0, total))
        assert pruned.evaluated < unpruned.evaluated

    def test_global_stop_conditions_are_stripped(self):
        _system, _core, start = start_message(
            config=SynthesisConfig(solution_limit=1, max_evaluations=1)
        )
        runner = BatchRunner(
            build_skeleton("figure2"),
            SynthesisConfig(solution_limit=1, max_evaluations=1),
        )
        runner.start_pass(start)
        total = product_size([spec.arity for spec in start.hole_specs])
        result = runner.run_batch(BatchTask(0, 0, total))
        # The worker must not stop itself: limits belong to the coordinator.
        assert not result.budget_exhausted
        assert result.evaluated > 1

"""Tests for the exploration kernel."""

import pytest

from repro.errors import ModelError
from repro.mc.kernel import ExplorationKernel, ExplorationLimits
from repro.mc.properties import Invariant
from repro.mc.result import Verdict
from repro.mc.rule import Rule
from repro.mc.system import TransitionSystem
from tests.bfs_oracle import assert_matches_reference, reference_bfs


def counter_system(limit=5, invariants=()):
    return TransitionSystem(
        name="counter",
        initial_states=[0],
        rules=[
            Rule("inc", guard=lambda s: s < limit, apply=lambda s, ctx: [s + 1]),
            Rule("stay", guard=lambda s: s == limit, apply=lambda s, ctx: [s]),
        ],
        invariants=invariants,
    )


def branching_system(depth=6):
    """A binary tree of states, ``depth`` levels deep."""
    return TransitionSystem(
        name="tree",
        initial_states=[(0, 0)],
        rules=[
            Rule(
                "left",
                guard=lambda s, _d=depth: s[0] < _d,
                apply=lambda s, ctx: [(s[0] + 1, s[1] * 2)],
            ),
            Rule(
                "right",
                guard=lambda s, _d=depth: s[0] < _d,
                apply=lambda s, ctx: [(s[0] + 1, s[1] * 2 + 1)],
            ),
            Rule(
                "leaf",
                guard=lambda s, _d=depth: s[0] == _d,
                apply=lambda s, ctx: [s],
            ),
        ],
    )


class TestTruncation:
    """Regression: the ``truncated`` flag for both limit kinds.

    BFS historically carried a redundant ``and queue`` in its max_states
    guard; the kernel removed it.  These tests pin the truncation
    semantics for both limit kinds.
    """

    @pytest.mark.parametrize("max_depth", [0, 1, 3])
    def test_max_depth_truncation(self, max_depth):
        limits = ExplorationLimits(max_depth=max_depth)
        result = ExplorationKernel(branching_system(), limits=limits).run()
        assert result.verdict is Verdict.UNKNOWN
        assert result.stats.truncated is True
        assert result.message == "truncated exploration"

    def test_max_depth_not_truncated_when_limit_not_reached(self):
        limits = ExplorationLimits(max_depth=100)
        result = ExplorationKernel(counter_system(), limits=limits).run()
        assert result.stats.truncated is False

    @pytest.mark.parametrize("max_states", [1, 10])
    def test_max_states_truncation(self, max_states):
        limits = ExplorationLimits(max_states=max_states)
        result = ExplorationKernel(branching_system(), limits=limits).run()
        assert result.verdict is Verdict.UNKNOWN
        assert result.stats.truncated is True
        # The cap is checked at pop time, so registration may overshoot by
        # at most one expansion's successors.
        assert result.stats.states_visited <= max_states + 2


class TestKernelFeatures:
    def test_counter_matches_reference_bfs(self):
        system = counter_system(limit=3)
        reference = reference_bfs(system)
        assert reference.visited == {0, 1, 2, 3}
        assert_matches_reference(ExplorationKernel(system).run(), reference)

    def test_track_hole_paths_on_failure(self):
        from repro.core.action import Action
        from repro.core.hole import Hole
        from repro.mc.context import FixedResolver

        hole = Hole("h", [Action("go")])

        def apply(s, ctx):
            ctx.resolve(hole)
            return [s + 1]

        system = TransitionSystem(
            name="holed",
            initial_states=[0],
            rules=[
                Rule("step", guard=lambda s: s < 3, apply=apply),
                Rule("stay", guard=lambda s: s >= 3, apply=lambda s, ctx: [s]),
            ],
            invariants=[Invariant("lt2", lambda s: s < 2)],
        )
        result = ExplorationKernel(
            system,
            resolver=FixedResolver({hole: hole.domain[0]}),
            track_hole_paths=True,
        ).run()
        assert result.is_failure
        assert result.failure_holes == frozenset({hole})

    def test_codecless_system_shares_one_derived_runtime(self):
        from repro.mc.packed import WholeStateCodec

        system = counter_system()
        first = ExplorationKernel(system)
        second = ExplorationKernel(system)
        assert isinstance(first.packed_runtime.codec, WholeStateCodec)
        assert second.packed_runtime is first.packed_runtime
        assert first.run().stats.states_visited == second.run().stats.states_visited


class TestCheckpointResume:
    """Prefix checkpoints: resumption must be verdict-exact."""

    @staticmethod
    def _setup(prefix_digits, full_digits):
        from repro.core.candidate import CandidateVector
        from repro.core.discovery import CandidateResolver, HoleRegistry
        from repro.protocols.toy import build_figure2_skeleton

        system = build_figure2_skeleton()
        registry = HoleRegistry()

        def resolver(digits):
            return CandidateResolver(registry, CandidateVector.from_digits(digits))

        return system, resolver(prefix_digits), resolver(full_digits)

    def _prefix_checkpoint(self, system, prefix_resolver):
        explorer = ExplorationKernel(
            system, resolver=prefix_resolver, collect_checkpoint=True
        )
        explorer.run()
        return explorer.checkpoint

    @pytest.mark.parametrize("full", [(1, 0, 1, 1), (1, 0, 0), (1, 1)])
    def test_resumed_equals_fresh(self, full):
        for cut in range(len(full)):
            system, prefix_res, full_res = self._setup(full[:cut], full)
            checkpoint = self._prefix_checkpoint(system, prefix_res)
            assert checkpoint is not None
            resumed_kernel = ExplorationKernel(
                system, resolver=full_res, resume_from=checkpoint
            )
            resumed = resumed_kernel.run()

            system2, _, full_res2 = self._setup(full[:cut], full)
            fresh_kernel = ExplorationKernel(system2, resolver=full_res2)
            fresh = fresh_kernel.run()

            assert resumed.verdict is fresh.verdict
            assert resumed.failure_kind == fresh.failure_kind
            assert resumed.stats.states_visited == fresh.stats.states_visited
            assert resumed.wildcard_encountered == fresh.wildcard_encountered
            assert set(resumed_kernel.visited_states) == set(
                fresh_kernel.visited_states
            )
            assert {h.name for h in resumed.executed_holes} == {
                h.name for h in fresh.executed_holes
            }
            assert resumed.stats.prefix_states_reused == checkpoint.states_visited
            assert fresh.stats.prefix_states_reused == 0

    def test_failing_prefix_collects_no_checkpoint(self):
        system, prefix_res, _ = self._setup((0,), (0, 0))  # <1@A> fails
        assert self._prefix_checkpoint(system, prefix_res) is None

    def test_truncated_run_collects_no_checkpoint(self):
        system, prefix_res, _ = self._setup((1,), (1, 0))
        explorer = ExplorationKernel(
            system,
            resolver=prefix_res,
            limits=ExplorationLimits(max_states=1),
            collect_checkpoint=True,
        )
        result = explorer.run()
        assert result.stats.truncated
        assert explorer.checkpoint is None

    def test_hole_path_mismatch_rejected(self):
        system, prefix_res, full_res = self._setup((1,), (1, 0))
        checkpoint = self._prefix_checkpoint(system, prefix_res)
        with pytest.raises(ModelError):
            ExplorationKernel(
                system,
                resolver=full_res,
                resume_from=checkpoint,
                track_hole_paths=True,
            )

    def test_exhaustive_prefix_resumes_to_immediate_verdict(self):
        # A prefix that never hits a wildcard explores the full space; the
        # resumed run inherits everything and re-expands nothing.
        full = (1, 0, 1, 1)  # the figure-2 solution
        system, prefix_res, full_res = self._setup(full, full)
        checkpoint = self._prefix_checkpoint(system, prefix_res)
        assert checkpoint is not None
        assert checkpoint.cut_states == ()
        resumed = ExplorationKernel(
            system, resolver=full_res, resume_from=checkpoint
        ).run()
        assert resumed.verdict is Verdict.SUCCESS
        assert resumed.stats.prefix_states_reused == resumed.stats.states_visited

    def test_chained_checkpoints(self):
        # Build level-k checkpoints by resuming level k-1, then finish the
        # candidate from the deepest: the classic prefix-reuse chain.
        from repro.core.candidate import CandidateVector
        from repro.core.discovery import CandidateResolver, HoleRegistry
        from repro.protocols.toy import build_figure2_skeleton

        full = (1, 0, 1, 1)
        system = build_figure2_skeleton()
        registry = HoleRegistry()
        checkpoint = None
        for cut in range(len(full)):
            explorer = ExplorationKernel(
                system,
                resolver=CandidateResolver(
                    registry, CandidateVector.from_digits(full[:cut])
                ),
                resume_from=checkpoint,
                collect_checkpoint=True,
            )
            explorer.run()
            checkpoint = explorer.checkpoint
            assert checkpoint is not None
        result = ExplorationKernel(
            system,
            resolver=CandidateResolver(registry, CandidateVector.from_digits(full)),
            resume_from=checkpoint,
        ).run()
        assert result.verdict is Verdict.SUCCESS

    @pytest.mark.parametrize("retired", ["family", "packed"])
    def test_checkpoints_carry_no_mode_tag(self, retired):
        # Family synthesis and the object exploration path were removed,
        # and with them the checkpoint's mode tags: every checkpoint is
        # slab-keyed against its system's one packed runtime.
        from dataclasses import fields

        from repro.mc.kernel import ExplorationCheckpoint

        names = {field.name for field in fields(ExplorationCheckpoint)}
        assert retired not in names
        with pytest.raises(TypeError, match=retired):
            ExplorationKernel(counter_system(), **{retired: True})


#: complete, bug-free catalog systems: every run explores its whole
#: reachable set and succeeds
CATALOG_SYSTEMS = [
    ("mutex", "mutex", {}),
    ("vi", "vi", {}),
    ("msi", "msi", {}),
    ("msi-evict", "msi", {"evictions": True}),
    ("msi-nosym", "msi", {"symmetry": False}),
    ("mesi", "mesi", {}),
    ("moesi", "moesi", {}),
    ("german", "german", {}),
    ("german-nosym", "german", {"symmetry": False}),
]


def build_catalog_system(protocol, options):
    from repro.protocols.catalog import PROTOCOL_BUILDERS

    return PROTOCOL_BUILDERS[protocol](2, **options)


@pytest.mark.parametrize(
    "protocol,options", [(p, o) for _, p, o in CATALOG_SYSTEMS],
    ids=[label for label, _, _ in CATALOG_SYSTEMS],
)
class TestCatalogCheckpoints:
    """Whole-system checkpoints on every catalog protocol."""

    def test_resume_accepted(self, protocol, options):
        system = build_catalog_system(protocol, options)
        producer = ExplorationKernel(system, collect_checkpoint=True)
        fresh = producer.run()
        assert fresh.verdict is Verdict.SUCCESS
        checkpoint = producer.checkpoint
        assert checkpoint is not None
        assert checkpoint.cut_states == ()
        assert checkpoint.states_visited == fresh.stats.states_visited
        resumed = ExplorationKernel(system, resume_from=checkpoint).run()
        assert resumed.verdict is fresh.verdict
        assert resumed.stats.states_visited == fresh.stats.states_visited
        assert resumed.stats.prefix_states_reused == fresh.stats.states_visited

    def test_truncated_run_is_unknown(self, protocol, options):
        # A truncated run reports UNKNOWN, never SUCCESS, and leaves no
        # checkpoint behind: its visited set depends on the cut.
        explorer = ExplorationKernel(
            build_catalog_system(protocol, options),
            limits=ExplorationLimits(max_states=5),
            collect_checkpoint=True,
        )
        result = explorer.run()
        assert result.verdict is Verdict.UNKNOWN
        assert result.stats.truncated
        assert explorer.checkpoint is None


class TestCoverageCheckpointing:
    """A wildcard-free coverage failure is complete work: it checkpoints,
    and resumed extensions inherit the identical verdict instantly."""

    @staticmethod
    def _coverage_system():
        from repro.mc.properties import CoverageProperty, DeadlockPolicy

        return TransitionSystem(
            name="uncovered",
            initial_states=[0],
            rules=[Rule("spin", guard=lambda s: True, apply=lambda s, ctx: [s])],
            coverage=[CoverageProperty("reach-9", lambda s: s == 9)],
            deadlock=DeadlockPolicy.fail(quiescent=lambda s: True),
        )

    def test_coverage_failure_still_checkpoints(self):
        from repro.mc.result import FailureKind

        explorer = ExplorationKernel(self._coverage_system(), collect_checkpoint=True)
        result = explorer.run()
        assert result.is_failure
        assert result.failure_kind is FailureKind.COVERAGE
        assert explorer.checkpoint is not None
        assert explorer.checkpoint.cut_states == ()
        assert explorer.checkpoint.pending_coverage == ("reach-9",)

        resumed = ExplorationKernel(
            self._coverage_system(), resume_from=explorer.checkpoint
        ).run()
        assert resumed.is_failure
        assert resumed.failure_kind is FailureKind.COVERAGE
        assert resumed.stats.states_visited == result.stats.states_visited
        assert resumed.stats.prefix_states_reused == result.stats.states_visited


class TestSeamExactness:
    """A resumed candidate run equals a fresh run of the same digits.

    The seam re-fires only the rules cut at each inherited state, so every
    counter a complete run reports — ``transitions_fired`` included — must
    match a from-scratch exploration on the same registry.
    """

    @staticmethod
    def _resumed_and_fresh(name, limit, monkeypatch):
        from repro.core import engine as engine_module
        from repro.core.engine import SynthesisConfig, SynthesisEngine
        from repro.protocols.catalog import SKELETON_BUILDERS

        pairs = []
        evaluate = engine_module.SynthesisCore.evaluate

        def compare_with_fresh(core, vector):
            result, explorer = evaluate(core, vector)
            if (
                explorer.resume_from is not None
                and not result.is_failure
                and (limit is None or len(pairs) < limit)
            ):
                fresh = ExplorationKernel(
                    core.system,
                    resolver=core.make_resolver(vector),
                    track_hole_paths=core.config.generalise_active,
                ).run()
                pairs.append((result, fresh))
            return result, explorer

        monkeypatch.setattr(
            engine_module.SynthesisCore, "evaluate", compare_with_fresh
        )
        SynthesisEngine(SKELETON_BUILDERS[name](2), SynthesisConfig()).run()
        return pairs

    @pytest.mark.parametrize("name, limit", [("msi-tiny", None), ("msi-small", 200)])
    def test_resumed_runs_match_fresh_runs(self, name, limit, monkeypatch):
        pairs = self._resumed_and_fresh(name, limit, monkeypatch)
        assert pairs and (limit is None or len(pairs) == limit)
        for resumed, fresh in pairs:
            assert resumed.verdict is fresh.verdict
            assert resumed.stats.states_visited == fresh.stats.states_visited
            assert resumed.stats.transitions_fired == fresh.stats.transitions_fired
            assert resumed.executed_holes == fresh.executed_holes
            assert resumed.executed_mask == fresh.executed_mask
            assert resumed.wildcard_encountered == fresh.wildcard_encountered

    def test_checkpoint_records_the_cut_rules(self):
        from repro.core.candidate import CandidateVector
        from repro.core.discovery import CandidateResolver, HoleRegistry
        from repro.protocols.toy import build_figure2_skeleton

        system = build_figure2_skeleton()
        explorer = ExplorationKernel(
            system,
            resolver=CandidateResolver(HoleRegistry(), CandidateVector.empty()),
            collect_checkpoint=True,
            track_hole_paths=True,
        )
        explorer.run()
        checkpoint = explorer.checkpoint
        assert checkpoint.cut_states
        rule_count = len(system.rules)
        for sid, depth, cut_rules, produced, dead_ends in checkpoint.cut_states:
            assert cut_rules and all(0 <= i < rule_count for i in cut_rules)
            assert isinstance(produced, bool)
            assert dead_ends == 0  # the empty candidate executes no holes


class TestWarmMemoMatchesCold:
    """Memo hits read digits by position and leave a real firing's effects."""

    @staticmethod
    def _run(system, registry, digits, **kwargs):
        from repro.core.candidate import CandidateVector
        from repro.core.discovery import CandidateResolver

        return ExplorationKernel(
            system,
            resolver=CandidateResolver(registry, CandidateVector(digits)),
            track_hole_paths=True,
            **kwargs,
        ).run()

    @staticmethod
    def _same(first, second):
        assert first.verdict is second.verdict
        assert first.failure_kind == second.failure_kind
        assert first.stats == second.stats
        assert first.wildcard_encountered == second.wildcard_encountered
        assert first.executed_holes == second.executed_holes
        assert first.failure_holes == second.failure_holes

    @pytest.mark.parametrize(
        "skeleton, digits",
        [
            ("figure2", ()),
            ("figure2", (0,)),
            ("figure2", (1, 0)),
            ("figure2", (1, 0, 1, 1)),
            ("figure2", (1, 1, 0, 0)),
            ("msi-tiny", ()),
            ("msi-tiny", (0, 0)),
            ("msi-tiny", (2, 1)),
        ],
    )
    def test_second_run_is_all_hits_and_identical(self, skeleton, digits):
        from repro.core.discovery import HoleRegistry
        from repro.protocols.catalog import SKELETON_BUILDERS
        from repro.protocols.toy import build_figure2_skeleton

        system = (
            build_figure2_skeleton()
            if skeleton == "figure2"
            else SKELETON_BUILDERS[skeleton](2)
        )
        registry = HoleRegistry()
        runtime = system.packed_runtime()
        cold = self._run(system, registry, digits)
        misses = runtime.fire_memo_misses
        hits = runtime.fire_memo_hits
        warm = self._run(system, registry, digits)
        assert runtime.fire_memo_misses == misses
        assert runtime.fire_memo_hits > hits
        self._same(cold, warm)
        assert cold.executed_mask == warm.executed_mask
        assert cold.failure_mask == warm.failure_mask

    def test_out_of_range_index_raises_on_the_hit_path(self):
        from repro.core.discovery import HoleRegistry
        from repro.errors import SynthesisError
        from repro.protocols.toy import build_figure2_skeleton

        system = build_figure2_skeleton()
        registry = HoleRegistry()
        self._run(system, registry, (1, 0, 1, 1))  # fills every trie level
        runtime = system.packed_runtime()
        hits = runtime.fire_memo_hits
        with pytest.raises(SynthesisError, match="action index 7"):
            self._run(system, registry, (1, 0, 1, 7))
        assert runtime.fire_memo_hits > hits

    def test_each_registry_resolves_its_own_positions(self):
        from repro.core.action import Action
        from repro.core.discovery import HoleRegistry
        from repro.core.hole import Hole
        from repro.protocols.toy import build_figure2_skeleton

        system = build_figure2_skeleton()
        forward = HoleRegistry()
        digits = (1, 0, 1, 1)
        first = self._run(system, forward, digits)
        holes = forward.holes
        assert len(holes) == len(digits)
        # A second registry discovered the holes in the reverse order, as
        # a dist worker's registry may: same candidate, permuted digits.
        backward = HoleRegistry()
        for hole in reversed(holes):
            backward.reserve(
                Hole(hole.name, tuple(Action(a.name) for a in hole.domain))
            )
        runtime = system.packed_runtime()
        misses = runtime.fire_memo_misses
        for _ in range(2):
            reverse = self._run(system, backward, tuple(reversed(digits)))
            again = self._run(system, forward, digits)
            self._same(first, again)
            assert reverse.verdict is first.verdict
            assert reverse.stats == first.stats
            assert reverse.executed_holes == first.executed_holes
            width = len(digits)
            assert reverse.executed_mask == sum(
                1 << (width - 1 - position)
                for position in range(width)
                if (first.executed_mask >> position) & 1
            )
        assert runtime.fire_memo_misses == misses

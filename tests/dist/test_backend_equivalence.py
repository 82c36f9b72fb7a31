"""Backend equivalence: sequential vs processes.

The two backends share one verdict-handling code path
(:meth:`SynthesisCore.process_candidate`) but differ in how they split and
schedule the candidate space.  They must agree exactly on *what* they find
— solution sets and the canonical hole registry — while evaluated-candidate
counts may differ slightly because pruning patterns reach the walkers at
different times (the paper's Table I shows the same 855-vs-825 effect).
"""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec, coordinator
from repro.errors import SynthesisError
from repro.protocols.catalog import build_skeleton

#: every catalog skeleton whose naive space runs in well under a second
SKELETONS = [
    "figure2", "mutex", "vi", "msi-tiny", "msi-read-tiny", "mesi",
    "moesi-small", "german-small",
]


def run_backend(backend, name, config=None):
    config = config or SynthesisConfig()
    if backend == "sequential":
        return SynthesisEngine(build_skeleton(name), config).run()
    return DistributedSynthesisEngine(
        SystemSpec(name), config, workers=2, min_batch_size=2
    ).run()


def solution_view(report):
    return {
        (solution.digits, solution.assignment, solution.states_visited)
        for solution in report.solutions
    }


def registry_view(report):
    return [
        (hole.name, tuple(action.name for action in hole.domain))
        for hole in report.holes
    ]


@pytest.mark.parametrize("name", SKELETONS)
class TestPruningEquivalence:
    def test_backends_agree(self, name):
        sequential = run_backend("sequential", name)
        assert sequential.solutions
        report = run_backend("processes", name)
        assert solution_view(report) == solution_view(sequential)
        assert registry_view(report) == registry_view(sequential)
        # Evaluated counts may drift with pattern-sharing timing, but
        # only within a narrow band around the sequential walk.
        assert (
            sequential.evaluated // 2
            <= report.evaluated
            <= sequential.evaluated * 2
        )


@pytest.mark.parametrize("name", SKELETONS)
class TestNaiveEquivalence:
    def test_backends_agree_without_pruning(self, name):
        config = SynthesisConfig(pruning=False)
        sequential = run_backend("sequential", name, config)
        report = run_backend("processes", name, SynthesisConfig(pruning=False))
        assert solution_view(report) == solution_view(sequential)
        assert registry_view(report) == registry_view(sequential)
        # Without pruning every backend must evaluate the exact naive
        # candidate space (dedup included): no timing effects exist.
        assert report.evaluated == sequential.evaluated
        assert report.deduplicated == sequential.deduplicated


class TestDistributedSpecifics:
    @pytest.mark.parametrize("name", ["figure2", "mutex", "vi", "msi-tiny"])
    def test_every_planned_range_is_merged_once(self, name, monkeypatch):
        """Each pass dispatches exactly the shard-aligned plan: every
        batch of ``plan_shard_batches`` comes back and merges once."""
        planned, merged = [], []

        def plan(*args, **kwargs):
            batches = plan_shard_batches(*args, **kwargs)
            planned.append(batches)
            merged.append([])
            return batches

        def merge(self, report, result, holes):
            merged[-1].append((result.start, result.end))
            return merge_batch(self, report, result, holes)

        plan_shard_batches = coordinator.plan_shard_batches
        merge_batch = DistributedSynthesisEngine._merge_batch
        monkeypatch.setattr(coordinator, "plan_shard_batches", plan)
        monkeypatch.setattr(DistributedSynthesisEngine, "_merge_batch", merge)
        report = DistributedSynthesisEngine(SystemSpec(name), workers=2).run()
        assert report.solutions
        assert len(planned) == report.passes
        assert [sorted(ranges) for ranges in merged] == planned

    def test_many_small_batches_still_agree(self):
        sequential = SynthesisEngine(build_skeleton("msi-tiny")).run()
        report = DistributedSynthesisEngine(
            SystemSpec("msi-tiny"),
            workers=3,
            batches_per_worker=8,
            min_batch_size=1,
            max_inflight=1,
        ).run()
        assert solution_view(report) == solution_view(sequential)
        assert registry_view(report) == registry_view(sequential)

    def test_solution_limit_stops_early(self):
        report = DistributedSynthesisEngine(
            SystemSpec("msi-tiny"), SynthesisConfig(solution_limit=1), workers=2
        ).run()
        assert len(report.solutions) == 1
        assert report.stopped_early

    def test_solution_limit_caps_observer_notifications(self):
        """Solutions beyond the limit are dropped before the observer sees
        them — an observer must not record more than the report carries."""
        from repro.core.engine import SynthesisObserver

        class Collector(SynthesisObserver):
            def __init__(self):
                self.seen = []

            def on_solution(self, solution, holes):
                self.seen.append(solution)

        observer = Collector()
        report = DistributedSynthesisEngine(
            SystemSpec("msi-tiny"),
            SynthesisConfig(solution_limit=1),
            workers=2,
            observer=observer,
        ).run()
        assert len(report.solutions) == 1
        assert [s.digits for s in observer.seen] == [
            s.digits for s in report.solutions
        ]

    def test_max_evaluations_trips(self):
        report = DistributedSynthesisEngine(
            SystemSpec("msi-tiny"), SynthesisConfig(max_evaluations=4), workers=2
        ).run()
        assert report.stopped_early
        # Overshoot is bounded by in-flight batches, not unbounded.
        assert report.evaluated <= 4 + 2 * 2 * 4

    def test_built_system_is_rejected(self):
        with pytest.raises(SynthesisError, match="SystemSpec"):
            DistributedSynthesisEngine(build_skeleton("mutex"))

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            DistributedSynthesisEngine(SystemSpec("mutex"), workers=0)
        with pytest.raises(ValueError):
            DistributedSynthesisEngine(SystemSpec("mutex"), max_inflight=0)

    def test_report_is_labeled_processes(self):
        report = DistributedSynthesisEngine(SystemSpec("mutex"), workers=2).run()
        assert report.backend == "processes"
        assert report.threads == 2

    def test_start_method_parameter_selects_spawn(self):
        sequential = SynthesisEngine(build_skeleton("figure2")).run()
        report = DistributedSynthesisEngine(
            SystemSpec("figure2"), workers=1, start_method="spawn"
        ).run()
        assert solution_view(report) == solution_view(sequential)

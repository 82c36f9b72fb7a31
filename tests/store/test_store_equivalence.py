"""Engine integration: warm runs replay verdicts without changing results.

The store is a *memo*, not a mode: a warm run must report the same
solutions, fingerprints, and pruning tables as a cold run — only
``report.model_checks`` (evaluated minus store hits) shrinks.  These
tests pin that equivalence across backends and the stand-down rules.
"""

import pytest

from repro import api
from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.errors import SynthesisError
from repro.mc.kernel import ExplorationLimits
from repro.protocols.catalog import build_skeleton


def solution_view(report):
    return [
        (s.digits, s.assignment, s.states_visited, s.fingerprint)
        for s in report.solutions
    ]


def run_sequential(store_path=None, skeleton="figure2", **knobs):
    config = SynthesisConfig(store_path=store_path, **knobs)
    return SynthesisEngine(build_skeleton(skeleton), config).run()


class TestWarmEqualsCold:
    # mutex and vi have predicate controller states: their rule names,
    # hence store keys, must survive a rebuild of the skeleton.
    @pytest.mark.parametrize("skeleton", ["figure2", "mutex", "vi"])
    def test_warm_run_replays_everything(self, tmp_path, skeleton):
        baseline = run_sequential(skeleton=skeleton)
        cold = run_sequential(str(tmp_path), skeleton)
        warm = run_sequential(str(tmp_path), skeleton)
        assert cold.store_writes == cold.evaluated
        assert cold.store_hits == 0
        assert warm.store_hits == warm.evaluated
        assert warm.store_writes == 0
        assert warm.model_checks == 0
        for report in (cold, warm):
            assert solution_view(report) == solution_view(baseline)
            assert report.evaluated == baseline.evaluated
            assert report.failure_patterns == baseline.failure_patterns
            assert [h.name for h in report.holes] == [
                h.name for h in baseline.holes
            ]

    def test_fingerprints_replay_from_the_store(self, tmp_path):
        cold = run_sequential(str(tmp_path), compute_fingerprints=True)
        warm = run_sequential(str(tmp_path), compute_fingerprints=True)
        assert warm.model_checks == 0
        assert solution_view(warm) == solution_view(cold)
        assert all(s.fingerprint is not None for s in warm.solutions)

    def test_fingerprintless_success_is_a_miss_when_fingerprints_wanted(
        self, tmp_path
    ):
        run_sequential(str(tmp_path))  # cold, no fingerprints stored
        warm = run_sequential(str(tmp_path), compute_fingerprints=True)
        baseline = run_sequential(compute_fingerprints=True)
        # Successes must be re-checked (their fingerprints were never
        # stored); failures replay fine.
        assert 0 < warm.store_hits < warm.evaluated
        assert solution_view(warm) == solution_view(baseline)


class TestStandDown:
    def test_exploration_limits_stand_the_store_down(self, tmp_path):
        config = SynthesisConfig(
            store_path=str(tmp_path),
            limits=ExplorationLimits(max_states=100_000),
        )
        assert not config.store_active
        report = SynthesisEngine(build_skeleton("figure2"), config).run()
        assert not report.store_enabled
        assert report.store_hits == 0 and report.store_writes == 0
        status = {s.name: s for s in config.resolved_accelerations()}
        assert status["store"].requested and not status["store"].active
        assert "limits" in status["store"].reason

    def test_different_flags_never_share_verdicts(self, tmp_path):
        run_sequential(str(tmp_path))  # generalised verdicts
        other = run_sequential(str(tmp_path), generalise_conflicts=False)
        assert other.store_hits == 0
        assert other.store_writes == other.evaluated


class TestCrossBackend:
    def test_processes_record_and_sequential_replays(self, tmp_path):
        cold = DistributedSynthesisEngine(
            SystemSpec("figure2"),
            SynthesisConfig(store_path=str(tmp_path)),
            workers=2,
        ).run()
        assert cold.store_writes == cold.evaluated
        warm = run_sequential(str(tmp_path))
        assert warm.model_checks == 0
        assert solution_view(warm) == solution_view(
            DistributedSynthesisEngine(SystemSpec("figure2"), workers=2).run()
        )

    def test_processes_warm_run_checks_nothing(self, tmp_path):
        config = SynthesisConfig(store_path=str(tmp_path))
        cold = DistributedSynthesisEngine(
            SystemSpec("figure2"), config, workers=2
        ).run()
        warm = DistributedSynthesisEngine(
            SystemSpec("figure2"), config, workers=2
        ).run()
        assert warm.model_checks == 0
        assert solution_view(warm) == solution_view(cold)


class TestApiFacade:
    def test_facade_round_trip(self, tmp_path):
        path = str(tmp_path)
        cold = api.synthesize("figure2", store=path)
        warm = api.synthesize("figure2", store=path)
        assert warm.model_checks == 0
        assert solution_view(warm) == solution_view(cold)
        with api.open_store(path) as store:
            assert len(store) == cold.store_writes

    @pytest.mark.parametrize("backend", api.BACKENDS)
    def test_facade_runs_every_backend(self, backend):
        report = api.synthesize("figure2", backend=backend, workers=2)
        assert report.backend == backend
        assert len(report.solutions) == 1

    def test_facade_rejects_unknown_backend(self):
        with pytest.raises(Exception, match="backend"):
            api.synthesize("figure2", backend="carrier-pigeon")

    def test_facade_rejects_retired_threads_backend(self):
        with pytest.raises(
            SynthesisError, match="known: sequential, processes"
        ):
            api.synthesize("mutex", backend="threads")

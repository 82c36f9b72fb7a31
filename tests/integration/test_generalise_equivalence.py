"""Equivalence suite for conflict generalisation + prefix reuse.

Both features are pure optimisations: generalised patterns prune *more*
candidates but only ever candidates that would fail, and prefix resumption
is verdict-exact.  So against the pre-generalisation baseline
(``generalise_conflicts=False, prefix_reuse=False`` — the PR 2 behaviour)
every skeleton must yield:

* the identical solution set (digits, assignments, per-solution state
  counts, executed holes) on every backend;
* the identical canonical hole registry;
* per-candidate verdict agreement: any candidate model checked under both
  configurations received the same verdict;
* no more evaluations than the baseline (sequentially — parallel counts
  drift with pattern timing, as the paper's own Table I shows).
"""

import pytest

from repro.api import BACKENDS
from repro.core import SynthesisConfig, SynthesisEngine
from repro.core.engine import SynthesisObserver
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.protocols.catalog import build_skeleton

SKELETONS = ["mutex", "msi-tiny", "msi-read-tiny", "mesi", "vi"]

BASELINE = dict(generalise_conflicts=False, prefix_reuse=False)


def run_backend(backend, name, config):
    if backend == "sequential":
        return SynthesisEngine(build_skeleton(name), config).run()
    return DistributedSynthesisEngine(
        SystemSpec(name), config, workers=2, min_batch_size=2
    ).run()


def solution_view(report):
    return {
        (
            solution.digits,
            solution.assignment,
            solution.states_visited,
            solution.executed_holes,
        )
        for solution in report.solutions
    }


def registry_view(report):
    return [
        (hole.name, tuple(action.name for action in hole.domain))
        for hole in report.holes
    ]


class VerdictRecorder(SynthesisObserver):
    """digits -> verdict for every dispatched model-checker run."""

    def __init__(self):
        self.verdicts = {}

    def on_run(self, run_index, vector, result, holes):
        self.verdicts[vector.entries] = result.verdict.value


@pytest.mark.parametrize("name", SKELETONS)
class TestGeneralisationEquivalence:
    def test_all_backends_match_ungeneralised_baseline(self, name):
        baseline = run_backend("sequential", name, SynthesisConfig(**BASELINE))
        assert baseline.solutions
        for backend in BACKENDS:
            report = run_backend(backend, name, SynthesisConfig())
            assert solution_view(report) == solution_view(baseline), backend
            assert registry_view(report) == registry_view(baseline), backend

    def test_per_candidate_verdicts_agree(self, name):
        base_obs, gen_obs = VerdictRecorder(), VerdictRecorder()
        SynthesisEngine(
            build_skeleton(name), SynthesisConfig(**BASELINE), base_obs
        ).run()
        SynthesisEngine(build_skeleton(name), SynthesisConfig(), gen_obs).run()
        shared = set(base_obs.verdicts) & set(gen_obs.verdicts)
        assert shared  # the runs overlap at least on the initial candidates
        for digits in shared:
            assert base_obs.verdicts[digits] == gen_obs.verdicts[digits], digits

    def test_generalisation_never_evaluates_more(self, name):
        baseline = run_backend("sequential", name, SynthesisConfig(**BASELINE))
        generalised = run_backend("sequential", name, SynthesisConfig())
        assert generalised.evaluated <= baseline.evaluated


@pytest.mark.parametrize("name", ["mutex", "msi-tiny"])
class TestFeatureIndependence:
    """Each feature alone must already preserve the solution set."""

    def test_each_flag_combination_agrees(self, name):
        reference = None
        for generalise in (False, True):
            for reuse in (False, True):
                report = run_backend(
                    "sequential",
                    name,
                    SynthesisConfig(
                        generalise_conflicts=generalise, prefix_reuse=reuse
                    ),
                )
                view = (solution_view(report), registry_view(report))
                if reference is None:
                    reference = view
                assert view == reference, (generalise, reuse)


class TestLimitsStandDown:
    def test_limits_restore_exact_baseline_behaviour(self):
        # With exploration limits set, both features deactivate (a
        # truncated run's verdict is visit-order-dependent, which breaks
        # their arguments) — so the default config must behave *exactly*
        # like the baseline, counters included.
        from repro.mc.kernel import ExplorationLimits

        limits = ExplorationLimits(max_states=10_000)
        baseline = run_backend(
            "sequential", "msi-tiny", SynthesisConfig(limits=limits, **BASELINE)
        )
        default = run_backend(
            "sequential", "msi-tiny", SynthesisConfig(limits=limits)
        )
        assert default.evaluated == baseline.evaluated
        assert default.failure_patterns == baseline.failure_patterns
        assert default.prefix_cache_hits == 0
        assert solution_view(default) == solution_view(baseline)


class TestPrefixCacheReporting:
    def test_report_surfaces_cache_stats(self):
        report = run_backend("sequential", "msi-tiny", SynthesisConfig())
        assert report.prefix_cache_hits > 0
        assert report.prefix_states_reused > 0
        assert report.prefix_cache_builds > 0
        assert "prefix cache" in report.summary()

    def test_processes_backend_merges_worker_cache_stats(self):
        report = run_backend("processes", "msi-tiny", SynthesisConfig())
        assert report.prefix_cache_hits > 0
        assert report.prefix_states_reused > 0

    def test_disabled_cache_reports_zero(self):
        report = run_backend(
            "sequential", "msi-tiny", SynthesisConfig(prefix_reuse=False)
        )
        assert report.prefix_cache_hits == 0
        assert report.prefix_cache_builds == 0
        assert "prefix cache" not in report.summary()

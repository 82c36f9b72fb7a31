"""Cross-module integration tests on real skeletons (kept small for speed)."""

import pytest

from repro.analysis.grouping import group_solutions
from repro.analysis.stats import compare_reports
from repro.core import SynthesisConfig, SynthesisEngine
from repro.mc.kernel import ExplorationLimits
from repro.protocols.catalog import build_skeleton
from repro.protocols.msi import msi_tiny
from repro.protocols.vi import build_vi_skeleton

from tests.flat_oracle import use_flat_matching

#: catalog skeletons whose naive space runs in well under a second
CHEAP_SKELETONS = [
    "msi-tiny", "vi", "mutex", "figure2", "msi-read-tiny", "mesi",
    "moesi-small", "german-small",
]


class TestEnginesAgree:
    """The subtree walker, the flat-matching oracle and the naive engine
    must find the same solution sets on every skeleton (counts may
    differ, solutions not)."""

    @pytest.fixture(scope="class")
    def systems(self):
        return {
            name: (lambda _name=name: build_skeleton(_name))
            for name in CHEAP_SKELETONS
        }

    @pytest.mark.parametrize("key", CHEAP_SKELETONS)
    def test_all_engines_same_solutions(self, systems, key, monkeypatch):
        make = systems[key]
        sequential = SynthesisEngine(make()).run()
        naive = SynthesisEngine(make(), SynthesisConfig(pruning=False)).run()
        use_flat_matching(monkeypatch)
        flat = SynthesisEngine(make()).run()

        def solution_set(report):
            return {tuple(sorted(dict(s.assignment).items())) for s in report.solutions}

        reference = solution_set(sequential)
        assert solution_set(flat) == reference
        assert solution_set(naive) == reference

    @pytest.mark.parametrize("key", CHEAP_SKELETONS)
    def test_pruned_evaluates_no_more_than_naive_space(self, systems, key):
        make = systems[key]
        naive = SynthesisEngine(make(), SynthesisConfig(pruning=False)).run()
        assert naive.evaluated == naive.naive_candidate_space


class TestLimitsIntegration:
    def test_exploration_limits_keep_soundness(self):
        # Harsh per-run state caps may make runs UNKNOWN but never lose or
        # fabricate solutions on this skeleton (its spaces are tiny).
        capped = SynthesisEngine(
            msi_tiny(n_caches=2).system,
            SynthesisConfig(limits=ExplorationLimits(max_states=10_000)),
        ).run()
        base = SynthesisEngine(msi_tiny(n_caches=2).system).run()
        assert {s.digits for s in capped.solutions} == {
            s.digits for s in base.solutions
        }


class TestAnalysisIntegration:
    def test_grouping_with_fingerprints(self):
        report = SynthesisEngine(
            msi_tiny(n_caches=2).system, SynthesisConfig(compute_fingerprints=True)
        ).run()
        groups = group_solutions(report.solutions)
        assert sum(group.size for group in groups) == len(report.solutions)
        # goto_M and goto_S variants reach different state graphs.
        assert len(groups) >= 2

    def test_comparison_on_real_reports(self):
        # VI has enough cross-rule structure for pruning to win outright
        # (on MSI-tiny, a single-rule skeleton, pruning cannot pay off —
        # the wildcard passes add runs; see the benchmark ablation).
        naive = SynthesisEngine(
            build_vi_skeleton(2)[0], SynthesisConfig(pruning=False)
        ).run()
        pruned = SynthesisEngine(build_vi_skeleton(2)[0]).run()
        comparison = compare_reports(naive, pruned)
        assert 0.0 <= comparison.evaluated_reduction <= 1.0
        assert comparison.optimised_evaluated < comparison.baseline_evaluated

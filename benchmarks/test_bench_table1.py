"""Table I: MSI coherence protocol synthesis (the paper's headline table).

Paper rows (i7-4800MQ, C++):

    MSI-small  1 thread, no pruning   8   231,525        N/A     231,525  4   64.5s
    MSI-small  1 thread, pruning      8   1,179,648      743     855      4   1.8s
    MSI-small  4 threads, pruning     8   1,179,648      701     825      4   1.2s
    MSI-large  1 thread, no pruning   12  102,102,525    N/A     102,102,525  12  31,573.5s
    MSI-large  1 thread, pruning      12  1,207,959,552  34,928  170,108  12  739.7s
    MSI-large  4 threads, pruning     12  1,207,959,552  34,888  170,087  12  295.7s

What we reproduce by default (CPython; see docs/architecture.md,
"Departures from the paper"):

* the candidate-space columns exactly (validated by construction);
* MSI-small with pruning, fully measured: 1 thread and 4 worker processes
  (:mod:`repro.dist`; the paper's 4-thread rows become process rows
  because the GIL serialises pure-Python model checking across threads);
* MSI-small naive, *estimated* from a random sample of candidate checks
  (the full 231k-run baseline takes tens of CPU-minutes in CPython; set
  VERC3_BENCH_NAIVE_FULL=1 to measure it outright);
* MSI-large rows only with VERC3_BENCH_LARGE=1.

The headline *shape* — pruning reduces evaluated candidates by >95% and
turns the naive baseline's hours into minutes — is asserted, not just
printed.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    attach_report,
    bench_caches,
    env_flag,
    large_enabled,
    run_once,
    sample_candidate_cost,
    small_enabled,
)
from repro.analysis.stats import estimate_naive_seconds
from repro.analysis.tables import render_table1_row
from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.protocols.msi import msi_large, msi_small, msi_tiny


def synth(system, pruning=True):
    return SynthesisEngine(system, SynthesisConfig(pruning=pruning)).run()


class TestMsiTiny:
    """A fast, always-on miniature of the table (2 holes)."""

    def test_tiny_no_pruning(self, benchmark, table1_rows):
        report = run_once(
            benchmark, lambda: synth(msi_tiny(bench_caches()).system, pruning=False)
        )
        attach_report(benchmark, report, "MSI-tiny 1 thread, no pruning")
        table1_rows.append(render_table1_row("MSI-tiny 1 thread, no pruning", report))
        assert report.evaluated == report.naive_candidate_space == 21

    def test_tiny_pruning(self, benchmark, table1_rows):
        report = run_once(benchmark, lambda: synth(msi_tiny(bench_caches()).system))
        attach_report(benchmark, report, "MSI-tiny 1 thread, pruning")
        table1_rows.append(render_table1_row("MSI-tiny 1 thread, pruning", report))
        assert report.solutions


@pytest.mark.skipif(not small_enabled(), reason="VERC3_BENCH_SMALL=0")
class TestMsiSmall:
    """The paper's MSI-small: 8 holes = 2 directory + 1 cache rules."""

    def test_small_one_thread_pruning(self, benchmark, table1_rows):
        report = run_once(benchmark, lambda: synth(msi_small(bench_caches()).system))
        attach_report(benchmark, report, "MSI-small 1 thread, pruning")
        table1_rows.append(render_table1_row("MSI-small 1 thread, pruning", report))
        assert report.naive_candidate_space == 231_525
        assert report.wildcard_candidate_space == 1_179_648
        assert report.solutions
        # Headline shape: >95% of the naive space is never model checked
        # (paper: 99.6%).
        assert report.reduction_vs_naive > 0.95

    def test_small_four_processes_pruning(self, benchmark, table1_rows):
        """The repro.dist backend row: real multi-core parallelism."""
        report = run_once(
            benchmark,
            lambda: DistributedSynthesisEngine(
                SystemSpec("msi-small", bench_caches()), workers=4
            ).run(),
        )
        label = "MSI-small 4 processes, pruning"
        attach_report(benchmark, report, label)
        table1_rows.append(render_table1_row(label, report))
        assert report.solutions
        if bench_caches() == 2:  # solution count depends on cache count
            assert len(report.solutions) == 126

    def test_small_naive_baseline(self, benchmark, table1_rows):
        """The naive row: measured outright only with VERC3_BENCH_NAIVE_FULL=1,
        otherwise estimated from a random sample of candidate checks."""
        skeleton = msi_small(bench_caches())
        if env_flag("VERC3_BENCH_NAIVE_FULL", False):
            report = run_once(benchmark, lambda: synth(skeleton.system, pruning=False))
            attach_report(benchmark, report, "MSI-small 1 thread, no pruning")
            table1_rows.append(
                render_table1_row("MSI-small 1 thread, no pruning", report)
            )
            assert report.evaluated == 231_525
            return

        sample = run_once(
            benchmark, lambda: sample_candidate_cost(skeleton, samples=25)
        )
        naive_candidates = 231_525
        estimate = estimate_naive_seconds(
            naive_candidates, sample["samples"],
            sample["mean_seconds"] * sample["samples"],
        )
        benchmark.extra_info.update(
            {
                "configuration": "MSI-small 1 thread, no pruning (estimated)",
                "evaluated": naive_candidates,
                "estimated_seconds": round(estimate, 1),
                "sampled_mean_seconds": round(sample["mean_seconds"], 5),
            }
        )
        # Build a pseudo-report row for the printed table.
        pruned = synth(skeleton.system)
        row = render_table1_row(
            "MSI-small 1 thread, no pruning",
            pruned,
            evaluated_override=naive_candidates,
            seconds_override=estimate,
            estimated=True,
        )
        row["Candidates"] = naive_candidates
        row["Pruning Patterns"] = None
        row["Solutions"] = len(pruned.solutions)
        table1_rows.append(row)
        # Shape assertion: the estimated naive baseline is far slower than
        # the measured pruned run (paper: 35.8x).
        assert estimate > pruned.elapsed_seconds * 5


@pytest.mark.skipif(not large_enabled(), reason="set VERC3_BENCH_LARGE=1 to run")
class TestMsiLarge:
    """The paper's MSI-large: 12 holes (about 10 s sequential with pruning)."""

    def test_large_one_thread_pruning(self, benchmark, table1_rows):
        report = run_once(benchmark, lambda: synth(msi_large(bench_caches()).system))
        attach_report(benchmark, report, "MSI-large 1 thread, pruning")
        table1_rows.append(render_table1_row("MSI-large 1 thread, pruning", report))
        assert report.naive_candidate_space == 102_102_525
        assert report.wildcard_candidate_space == 1_207_959_552
        assert report.solutions
        assert report.reduction_vs_naive > 0.99  # paper: 99.8%

    def test_large_four_processes_pruning(self, benchmark, table1_rows):
        report = run_once(
            benchmark,
            lambda: DistributedSynthesisEngine(
                SystemSpec("msi-large", bench_caches()), workers=4
            ).run(),
        )
        attach_report(benchmark, report, "MSI-large 4 processes, pruning")
        table1_rows.append(
            render_table1_row("MSI-large 4 processes, pruning", report)
        )
        assert report.solutions

    def test_large_naive_estimate(self, benchmark, table1_rows):
        skeleton = msi_large(bench_caches())
        sample = run_once(
            benchmark, lambda: sample_candidate_cost(skeleton, samples=25)
        )
        naive_candidates = 102_102_525
        estimate = estimate_naive_seconds(
            naive_candidates, sample["samples"],
            sample["mean_seconds"] * sample["samples"],
        )
        benchmark.extra_info.update(
            {
                "configuration": "MSI-large 1 thread, no pruning (estimated)",
                "evaluated": naive_candidates,
                "estimated_seconds": round(estimate, 1),
            }
        )
        row = {
            "Configuration": "MSI-large 1 thread, no pruning (estimated)",
            "Holes": 12,
            "Candidates": naive_candidates,
            "Pruning Patterns": None,
            "Evaluated": naive_candidates,
            "Solutions": None,
            "Exec. Time": estimate,
        }
        table1_rows.append(row)
        assert estimate > 0

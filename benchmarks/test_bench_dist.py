"""Backend showdown: sequential vs processes wall-clock.

The paper reports 1.5x (MSI-small) / 2.5x (MSI-large) speedups at 4
worker threads.  CPython's GIL keeps threads from showing them, so this
benchmark measures the process backend (:mod:`repro.dist`) against the
sequential engine, records every row into ``BENCH_dist.json`` (via the
``dist_bench_rows`` fixture), and asserts:

* both backends find identical solution sets (always);
* on hosts with >= 4 CPUs, 4 worker processes beat the sequential run on
  MSI-small — the paper's headline parallel claim.  On narrower hosts (CI
  containers are often 1-2 cores) the timing assertion is skipped:
  time-slicing one core cannot show a speedup, and pretending otherwise
  would make the suite flaky.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import (
    attach_report,
    bench_caches,
    run_once,
    small_enabled,
)
from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.protocols.catalog import build_skeleton
from repro.util.timing import Stopwatch

CPU_COUNT = os.cpu_count() or 1


def record(rows, skeleton, backend, workers, report, seconds=None, **extra):
    rows.append(
        {
            "skeleton": skeleton,
            "backend": backend,
            "workers": workers,
            # Per-row so rows merged across hosts stay interpretable:
            # a 1-core row's timing is time-slicing noise, and the
            # aggregate header alone cannot say which rows those are.
            "cpu_count": CPU_COUNT,
            "seconds": round(
                report.elapsed_seconds if seconds is None else seconds, 3
            ),
            "evaluated": report.evaluated,
            "solutions": len(report.solutions),
            **extra,
        }
    )
    return report


def digits(report):
    return {solution.digits for solution in report.solutions}


class TestMsiTinyBackends:
    """Fast, always-on rows: every backend on the 2-hole skeleton."""

    def test_sequential(self, benchmark, dist_bench_rows):
        report = run_once(
            benchmark,
            lambda: SynthesisEngine(build_skeleton("msi-tiny", bench_caches())).run(),
        )
        attach_report(benchmark, report, "MSI-tiny sequential")
        record(dist_bench_rows, "msi-tiny", "sequential", 1, report)
        assert report.solutions

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_processes(self, benchmark, dist_bench_rows, workers):
        report = run_once(
            benchmark,
            lambda: DistributedSynthesisEngine(
                SystemSpec("msi-tiny", bench_caches()), workers=workers
            ).run(),
        )
        attach_report(benchmark, report, f"MSI-tiny {workers} processes")
        record(dist_bench_rows, "msi-tiny", "processes", workers, report)
        assert report.solutions


class TestViBackends:
    """Fast, always-on rows on the VI skeleton: every worker count finds
    the sequential engine's solution set."""

    def test_sequential(self, benchmark, dist_bench_rows):
        report = run_once(
            benchmark,
            lambda: SynthesisEngine(build_skeleton("vi", bench_caches())).run(),
        )
        attach_report(benchmark, report, "VI sequential")
        record(dist_bench_rows, "vi", "sequential", 1, report)
        assert report.solutions

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_processes(self, benchmark, dist_bench_rows, workers):
        sequential = SynthesisEngine(build_skeleton("vi", bench_caches())).run()
        report = run_once(
            benchmark,
            lambda: DistributedSynthesisEngine(
                SystemSpec("vi", bench_caches()), workers=workers
            ).run(),
        )
        attach_report(benchmark, report, f"VI {workers} processes")
        record(dist_bench_rows, "vi", "processes", workers, report)
        assert report.solutions
        assert digits(report) == digits(sequential)


@pytest.mark.skipif(not small_enabled(), reason="VERC3_BENCH_SMALL=0")
class TestMsiSmallShowdown:
    """The acceptance row: MSI-small on both backends.

    One test measures both so the comparison shares a process and the
    JSON rows land together; pytest-benchmark times the processes run, the
    sequential baseline is stopwatch-timed.
    """

    def test_backend_showdown(self, benchmark, dist_bench_rows):
        caches = bench_caches()

        watch = Stopwatch.started()
        sequential = SynthesisEngine(build_skeleton("msi-small", caches)).run()
        sequential_seconds = watch.elapsed
        record(
            dist_bench_rows, "msi-small", "sequential", 1, sequential,
            seconds=sequential_seconds,
        )

        distributed = run_once(
            benchmark,
            lambda: DistributedSynthesisEngine(
                SystemSpec("msi-small", caches), workers=4
            ).run(),
        )
        attach_report(benchmark, distributed, "MSI-small 4 processes")
        benchmark.extra_info.update(
            {
                "sequential_seconds": round(sequential_seconds, 3),
                "cpu_count": CPU_COUNT,
            }
        )
        record(dist_bench_rows, "msi-small", "processes", 4, distributed)

        # Correctness is unconditional: identical solutions everywhere.
        assert digits(distributed) == digits(sequential)
        assert distributed.solutions
        if caches == 2:  # solution count depends on cache count
            assert len(distributed.solutions) == 126

        if CPU_COUNT >= 4:
            # The paper's parallel claim: faster than sequential.
            assert distributed.elapsed_seconds < sequential_seconds


@pytest.mark.skipif(not small_enabled(), reason="VERC3_BENCH_SMALL=0")
class TestMsiSmallMemoWarm:
    """The verdict-store acceptance row: cold vs warm MSI-small.

    The warm run consults the store populated by the cold run and must
    perform at most 1% of its model checks while reporting identical
    solutions and fingerprints — this is the speedup that works on any
    host, including 1-core CI boxes where process parallelism cannot.
    The rows land in the ``memo_warm`` section of ``BENCH_dist.json``.
    """

    def test_store_warm_rerun(self, benchmark, dist_bench_rows, tmp_path):
        caches = bench_caches()
        store = str(tmp_path / "store")

        def run(label):
            return SynthesisEngine(
                build_skeleton("msi-small", caches),
                SynthesisConfig(store_path=store, compute_fingerprints=True),
            ).run()

        watch = Stopwatch.started()
        cold = run("cold")
        cold_seconds = watch.elapsed
        record(
            dist_bench_rows, "msi-small", "sequential", 1, cold,
            seconds=cold_seconds, section="memo_warm", phase="cold",
            model_checks=cold.model_checks, store_hits=cold.store_hits,
        )

        warm = run_once(benchmark, lambda: run("warm"))
        attach_report(benchmark, warm, "MSI-small warm store re-run")
        benchmark.extra_info.update(
            {
                "cold_seconds": round(cold_seconds, 3),
                "model_checks": warm.model_checks,
                "store_hits": warm.store_hits,
                "cpu_count": CPU_COUNT,
            }
        )
        record(
            dist_bench_rows, "msi-small", "sequential", 1, warm,
            section="memo_warm", phase="warm",
            model_checks=warm.model_checks, store_hits=warm.store_hits,
        )

        # Identical results: solution digit sets and behavioural
        # fingerprints, plus the evaluated count (hits included).
        assert digits(warm) == digits(cold)
        assert [s.fingerprint for s in warm.solutions] == [
            s.fingerprint for s in cold.solutions
        ]
        assert warm.evaluated == cold.evaluated
        # The acceptance bound: a warm re-run model checks <= 1% of cold.
        assert warm.model_checks <= max(1, cold.model_checks // 100)

"""Shared benchmark helpers.

Conventions:

* every benchmark runs its workload exactly once via ``benchmark.pedantic``
  (synthesis runs are long; statistical repetition is meaningless at this
  scale) and attaches the paper's Table I counters via
  ``benchmark.extra_info``;
* expensive configurations are switched through environment variables:
  ``VERC3_BENCH_SMALL=0`` skips the MSI-small rows (seconds in all; the
  whole directory runs in about 10 s on a 2-vCPU host),
  ``VERC3_BENCH_CACHES`` overrides the cache count (default 2; the paper's
  testbed used more but CPython pays ~5x per extra cache);
* results land in the tracked ``BENCH_*.json`` only when
  ``VERC3_BENCH_RECORD=1``, so a plain test run never rewrites the
  repository.  Table I itself is regenerated by ``examples/table1.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.core.report import SynthesisReport

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ with ``bench``.

    The tier-1 CI job deselects these with ``-m "not bench"`` so its
    timing guard measures only the functional suite; a separate
    non-blocking step runs the benches.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.bench)


def env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "")


def bench_caches() -> int:
    return int(os.environ.get("VERC3_BENCH_CACHES", "2"))


def small_enabled() -> bool:
    return env_flag("VERC3_BENCH_SMALL", True)


def record_enabled() -> bool:
    return env_flag("VERC3_BENCH_RECORD", False)


def attach_report(benchmark, report: SynthesisReport, configuration: str) -> None:
    """Record the Table I columns on the benchmark JSON."""
    benchmark.extra_info.update(
        {
            "configuration": configuration,
            "holes": report.hole_count,
            "candidates": report.candidate_space,
            "pruning_patterns": report.failure_patterns if report.pruning else None,
            "evaluated": report.evaluated,
            "solutions": len(report.solutions),
            "exec_seconds": round(report.elapsed_seconds, 3),
            "reduction_vs_naive": round(report.reduction_vs_naive, 5),
        }
    )


def run_once(benchmark, fn):
    """Run a workload exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def dist_bench_rows():
    """Session-collected backend-comparison rows, persisted (with
    ``VERC3_BENCH_RECORD=1``) as ``BENCH_dist.json`` so the perf
    trajectory can be tracked.

    Each row: skeleton, backend, workers, cpu_count, seconds, evaluated,
    solutions.  Rows tagged ``section="memo_warm"`` (the verdict-store
    cold/warm pair) land in their own top-level section with a derived
    ``model_check_fraction``; for the backend rows the teardown derives
    ``speedup_vs_sequential`` per skeleton where a sequential row exists.
    CPU counts ride both per-row and in the header — speedups on
    single-core CI boxes are noise, and downstream consumers must be able
    to tell.
    """
    rows = []
    yield rows
    if not rows or not record_enabled():
        return
    import json
    import sys

    memo_rows, backend_rows = [], []
    for row in rows:
        section = row.pop("section", None)
        (memo_rows if section == "memo_warm" else backend_rows).append(row)
    sequential_seconds = {
        row["skeleton"]: row["seconds"]
        for row in backend_rows
        if row["backend"] == "sequential"
    }
    for row in backend_rows:
        base = sequential_seconds.get(row["skeleton"])
        if base and row["seconds"]:
            row["speedup_vs_sequential"] = round(base / row["seconds"], 3)
    cold_checks = {
        row["skeleton"]: row["model_checks"]
        for row in memo_rows
        if row.get("phase") == "cold"
    }
    for row in memo_rows:
        base = cold_checks.get(row["skeleton"])
        if base:
            row["model_check_fraction"] = round(row["model_checks"] / base, 5)
    payload = {
        "cpu_count": os.cpu_count(),
        "caches": bench_caches(),
        "rows": backend_rows,
        "memo_warm": memo_rows,
    }
    with open("BENCH_dist.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    sys.__stdout__.write(
        f"\nBENCH_dist.json written ({len(rows)} rows, "
        f"{os.cpu_count()} CPUs)\n"
    )
    sys.__stdout__.flush()

"""Model-checker benchmarks feeding ``BENCH_mc.json``.

Single-threaded measurements (no cpu_count gating needed, unlike
``BENCH_dist.json``'s multi-worker rows):

* **telemetry on/off on a single-candidate check** — the paper's cost
  model is "one model-checking run per surviving candidate", so the
  wall-clock of a single check is the number every other speedup
  multiplies.  Measured on MSI-small at 3 replicas with the reference
  completion.

* **MOESI and German verify + synthesis** wall-clock rows.

With ``VERC3_BENCH_RECORD=1`` each test merges its section into
``BENCH_mc.json`` so partial runs don't clobber the other section; without
it the numbers are only printed.  The ``single_candidate`` (orbit cache
on/off) and ``packed`` (packed/object kernel) sections are the last
records of the retired object exploration path; no bench writes them any
more, and ``docs/architecture.md`` cites them.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

import pytest

from benchmarks.conftest import record_enabled, run_once
from repro.core import SynthesisConfig, SynthesisEngine
from repro.mc.context import FixedResolver
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols.catalog import build_skeleton
from repro.protocols.msi.skeleton import msi_small

REPLICAS = 3
#: candidate checks per configuration; >1 exercises the cross-run memo
#: reuse every synthesis pass gets for free
REPEATS = 4
#: alternating on/off samples behind the telemetry-on bound
TELEMETRY_TRIALS = 9


def update_bench_json(section: str, payload: dict) -> None:
    """Merge one section into BENCH_mc.json, preserving the others.

    A no-op unless ``VERC3_BENCH_RECORD=1``.
    """
    if not record_enabled():
        return
    data = {}
    if os.path.exists("BENCH_mc.json"):
        try:
            with open("BENCH_mc.json") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    # Drop pre-sectioned legacy top-level keys so the file self-cleans;
    # the retired benches' sections are kept as the cited record.
    sections = (
        "single_candidate",
        "moesi",
        "german",
        "telemetry",
        "packed",
    )
    data = {k: v for k, v in data.items() if k in sections}
    data[section] = payload
    data["cpu_count"] = os.cpu_count()
    with open("BENCH_mc.json", "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def make_resolver(skeleton):
    assignment = skeleton.reference_assignment()
    return FixedResolver(
        {
            hole: hole.domain[hole.index_of(assignment[hole.name])]
            for hole in skeleton.holes
        }
    )


def make_system():
    """The MSI-small skeleton at ``REPLICAS`` replicas and its system."""
    skeleton = msi_small(REPLICAS)
    return skeleton, skeleton.system


def _workload_payload(protocol_factory, skeleton_name, benchmark):
    """Verify + synthesis wall-clock for one of the new workloads.

    Single-threaded sequential numbers only, so they are meaningful on a
    1-CPU container — no cpu_count gating needed.  (Any multi-worker
    speedup rows belong in ``BENCH_dist.json`` and must stay gated on
    ``os.cpu_count() >= 4``.)
    """
    verify_rows = []
    for replicas in (2, 3):
        start = time.perf_counter()
        result = ExplorationKernel(protocol_factory(replicas)).run()
        seconds = time.perf_counter() - start
        assert result.verdict is Verdict.SUCCESS
        verify_rows.append(
            {
                "replicas": replicas,
                "states": result.stats.states_visited,
                "seconds": round(seconds, 4),
            }
        )

    def synth_run():
        return SynthesisEngine(build_skeleton(skeleton_name), SynthesisConfig()).run()

    report = run_once(benchmark, synth_run)
    assert report.solutions
    return {
        "verify": verify_rows,
        "synthesis": {
            "skeleton": skeleton_name,
            "replicas": 2,
            "holes": report.hole_count,
            "evaluated": report.evaluated,
            "solutions": len(report.solutions),
            "seconds": round(report.elapsed_seconds, 4),
        },
    }


def test_moesi_workload(benchmark):
    """MOESI verify + hallmark-skeleton synthesis numbers."""
    from repro.protocols.moesi import build_moesi_system

    payload = _workload_payload(build_moesi_system, "moesi-small", benchmark)
    update_bench_json("moesi", payload)
    benchmark.extra_info.update(payload)


def test_german_workload(benchmark):
    """German-protocol verify + upgrade-race-skeleton synthesis numbers."""
    from repro.protocols.german import build_german_system

    payload = _workload_payload(build_german_system, "german-small", benchmark)
    update_bench_json("german", payload)
    benchmark.extra_info.update(payload)


def test_telemetry_overhead(benchmark, tmp_path):
    """Telemetry on/off on the single-candidate check (satellite of the
    observability PR).

    Single-threaded, MSI-small at 3 replicas with the reference
    completion, the ``single_candidate`` shape.  Two sides alternate on
    one warm system for ``TELEMETRY_TRIALS`` trials: the kernel handed an
    explicit ``telemetry=None`` and the full bundle (metrics registry,
    kernel phase timings, a JSONL trace on disk).  The disabled path is
    the plain kernel itself, so it has no timing ceiling of its own: it is
    pinned structurally by ``tests/obs/test_overhead_guard.py``.

    The bound is asserted on the median of this session's paired ratios.
    Samples are process CPU seconds with the collector paused, as in
    ``timeit``: the question is how much work the plumbing adds, and on a
    shared host wall-clock ratios of two identical ~20 ms checks swing
    widely.

    Correctness gates the measurement: both sides must visit identical
    state counts (telemetry is pure observation).
    """
    from repro.obs import Telemetry

    skel, system = make_system()
    resolver = make_resolver(skel)

    def timed_checks(factory):
        # Like timeit: start every sample from a collected heap and keep
        # the collector out of the timed region, so a collection cannot
        # land on one side more often than the other.
        results = []
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            for _ in range(REPEATS):
                results.append(factory().run())
            return time.process_time() - start, results
        finally:
            gc.enable()

    def factory_off():
        return ExplorationKernel(system, resolver=resolver, telemetry=None)

    tele = Telemetry.create(trace_path=str(tmp_path / "bench.jsonl"))

    def factory_on():
        return ExplorationKernel(system, resolver=resolver, telemetry=tele)

    timed_checks(factory_off)  # warm the packed memos for both sides alike
    off_samples, on_samples, on_ratios = [], [], []
    for trial in range(TELEMETRY_TRIALS):
        # Alternate which side goes first so drift hits both equally.
        if trial % 2:
            off_seconds, off_results = timed_checks(factory_off)
        if trial == TELEMETRY_TRIALS - 1:
            on_seconds, on_results = run_once(
                benchmark, lambda: timed_checks(factory_on)
            )
        else:
            on_seconds, on_results = timed_checks(factory_on)
        if not trial % 2:
            off_seconds, off_results = timed_checks(factory_off)
        off_samples.append(off_seconds)
        on_samples.append(on_seconds)
        on_ratios.append(on_seconds / off_seconds if off_seconds else 1.0)
    trace_events = tele.events_written
    tele.close()

    for off_res, on_res in zip(off_results, on_results):
        assert off_res.verdict is Verdict.SUCCESS
        assert on_res.verdict is Verdict.SUCCESS
        assert on_res.stats.states_visited == off_res.stats.states_visited

    on_vs_off = statistics.median(on_ratios)
    off_seconds = statistics.median(off_samples)
    on_seconds = statistics.median(on_samples)
    overhead = on_vs_off - 1.0
    payload = {
        "replicas": REPLICAS,
        "repeats": REPEATS,
        "trials": TELEMETRY_TRIALS,
        "clock": "process_time",
        "skeleton": "msi-small",
        "rows": [
            {
                "config": "telemetry-off",
                "seconds": round(off_seconds, 4),
                "states_per_check": off_results[0].stats.states_visited,
            },
            {
                "config": "telemetry-on (metrics + jsonl trace)",
                "seconds": round(on_seconds, 4),
                "states_per_check": on_results[0].stats.states_visited,
                "trace_events": trace_events,
            },
        ],
        "overhead_on_vs_off": round(overhead, 4),
    }
    update_bench_json("telemetry", payload)
    sys.__stdout__.write(
        f"\nBENCH_mc: telemetry overhead {overhead:+.1%} "
        f"({off_seconds:.3f}s off -> {on_seconds:.3f}s on over "
        f"{REPEATS} checks)\n"
    )
    sys.__stdout__.flush()
    benchmark.extra_info.update(payload)

    # Tracing every span/phase of a sub-second check is allowed to cost
    # real percentage points; it must not multiply the run.
    assert on_vs_off < 2.0, on_ratios

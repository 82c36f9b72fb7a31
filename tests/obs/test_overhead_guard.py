"""Tier-1 guard: disabled telemetry must stay free.

Two layers:

* **structural** — with no telemetry attached, the kernel and engine must
  take the zero-overhead branch: no timing shims, no phase accumulation,
  no per-state attribute traffic.  These assertions are deterministic and
  catch the regression class directly (someone making the disabled path
  do per-state work).
* **recorded shape** — ``BENCH_mc.json`` carries the ``single_candidate``
  and ``telemetry`` sections for the *same* workload.  Tier-1 checks only
  what is deterministic about them: identical state counts and repeat
  counts, and a non-empty trace.  Timing ratios from one recorded run are
  too noisy to gate on; the telemetry-on bound is asserted by the bench
  itself on medians taken in one session (``benchmarks/test_bench_mc.py``).
  The disabled path *is* the plain kernel, so the structural layer is what
  keeps it free.
"""

import json
import os

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.mc.kernel import ExplorationKernel
from repro.protocols.catalog import PROTOCOL_BUILDERS, build_skeleton

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_mc.json"
)


class TestStructuralZeroOverhead:
    def test_kernel_without_telemetry_has_no_instrumentation(self):
        explorer = ExplorationKernel(PROTOCOL_BUILDERS["msi"](2))
        result = explorer.run()
        assert result.is_success
        assert explorer.telemetry is None
        assert explorer.phase_seconds == {}

    def test_engine_without_telemetry_reports_disabled(self):
        report = SynthesisEngine(
            build_skeleton("figure2"), SynthesisConfig()
        ).run()
        assert report.telemetry_enabled is False
        assert report.trace_path is None
        assert report.trace_events == 0

    def test_disabled_config_costs_one_resolution_branch(self):
        from repro.core.engine import resolve_telemetry
        from repro.obs import NULL_TELEMETRY

        resolved, owns = resolve_telemetry(SynthesisConfig(), None)
        assert resolved is NULL_TELEMETRY  # the shared singleton, no alloc
        assert owns is False


class TestRecordedOverheadRatio:
    def _load(self):
        if not os.path.exists(BENCH_PATH):
            pytest.skip("BENCH_mc.json not present")
        data = json.loads(open(BENCH_PATH).read())
        if "telemetry" not in data or "single_candidate" not in data:
            pytest.skip("bench sections not recorded yet")
        return data

    @staticmethod
    def _row(section, config):
        rows = [r for r in section["rows"] if r["config"] == config]
        assert rows, f"missing {config!r} row"
        return rows[0]

    def test_telemetry_off_row_measures_the_single_candidate_workload(self):
        # The telemetry-on bound is asserted by the bench on a same-session
        # median (benchmarks/test_bench_mc.py::test_telemetry_overhead).
        data = self._load()
        baseline = self._row(data["single_candidate"], "orbit-cache-on")
        off = self._row(data["telemetry"], "telemetry-off")
        # Same workload: identical state counts prove it.
        assert off["states_per_check"] == baseline["states_per_check"]
        assert data["telemetry"]["repeats"] == data["single_candidate"]["repeats"]

    def test_instrumented_run_is_recorded(self):
        data = self._load()
        on = self._row(
            data["telemetry"], "telemetry-on (metrics + jsonl trace)"
        )
        assert on["trace_events"] > 0


class TestRecordedPackedFloor:
    """Guard the packed-state kernel's recorded rows.

    The retired packed/object bench measured both kernels on the identical
    workload before the object path was deleted; ``docs/architecture.md``
    cites these rows, and tier-1 checks that they really describe the same
    work.
    """

    def _load(self):
        if not os.path.exists(BENCH_PATH):
            pytest.skip("BENCH_mc.json not present")
        data = json.loads(open(BENCH_PATH).read())
        if "packed" not in data:
            pytest.skip("packed bench section not recorded yet")
        return data["packed"]

    @staticmethod
    def _row(section, config):
        rows = [r for r in section["rows"] if r["config"] == config]
        assert rows, f"missing {config!r} row"
        return rows[0]

    def test_packed_steady_row_measures_the_same_workload(self):
        section = self._load()
        baseline = self._row(section, "packed-off (orbit cache on)")
        steady = self._row(section, "packed-on (steady state)")
        # Same workload: identical state counts prove it.
        assert steady["states_per_check"] == baseline["states_per_check"]

    def test_packed_cold_row_measures_the_same_workload(self):
        section = self._load()
        cold = self._row(section, "packed-on (incl. cold first check)")
        assert cold["states_per_check"] == self._row(
            section, "packed-off (orbit cache on)"
        )["states_per_check"]

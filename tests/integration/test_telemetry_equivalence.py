"""Telemetry must be verdict-neutral: observation cannot change results.

On every catalog protocol and skeleton, running with full telemetry
(metrics + trace + instrumented kernel) and with telemetry off must
produce

* identical verify verdicts AND identical ``states_visited`` —
  telemetry is pure observation, so even the state counts must match
  exactly;
* identical synthesis solution sets, evaluated-candidate counts, and
  verdict tallies, on every backend;
* a structurally valid trace: balanced span_start/span_end, every event
  JSON-clean.

The acceptance bar from the issue rides along: an instrumented
``synth msi-small`` trace must attribute >= 95% of the root span's
wall-clock to named spans/phases, and the disabled path must cost at
most one predicate check per hot-loop iteration (guarded structurally
in ``tests/obs`` and by the bench overhead section; here we assert the
kernel takes the zero-overhead branch when no telemetry is attached).
"""

import json

import pytest

from repro.api import BACKENDS
from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.mc.kernel import ExplorationKernel
from repro.obs import Telemetry, build_stats, load_events
from repro.protocols.catalog import PROTOCOL_BUILDERS, build_skeleton
from repro.protocols.german import build_german_system
from repro.protocols.moesi import build_moesi_system

#: (label, builder) mirroring the packed equivalence matrix: every catalog
#: protocol plus seeded-bug builds, the eviction extension, and
#: symmetry-off variants
VERIFY_SYSTEMS = [
    ("mutex", lambda: PROTOCOL_BUILDERS["mutex"](2)),
    ("vi", lambda: PROTOCOL_BUILDERS["vi"](2)),
    ("msi@2", lambda: PROTOCOL_BUILDERS["msi"](2)),
    ("msi@3", lambda: PROTOCOL_BUILDERS["msi"](3)),
    ("msi-evict", lambda: PROTOCOL_BUILDERS["msi"](2, evictions=True)),
    ("mesi", lambda: PROTOCOL_BUILDERS["mesi"](2)),
    ("moesi", lambda: PROTOCOL_BUILDERS["moesi"](2)),
    ("german", lambda: PROTOCOL_BUILDERS["german"](2)),
    ("moesi-bug", lambda: build_moesi_system(2, bug="no-owner-inv")),
    ("german-bug", lambda: build_german_system(2, bug="stale-shared-grant")),
    ("msi-nosym", lambda: PROTOCOL_BUILDERS["msi"](2, symmetry=False)),
]

#: every catalog skeleton except msi-large (shares msi-small's machinery
#: at a size that is not tier-1 material); msi-small itself is exercised
#: by the attribution acceptance test below
SKELETONS = [
    "figure2",
    "mutex",
    "vi",
    "msi-tiny",
    "msi-read-tiny",
    "mesi",
    "moesi-small",
    "german-small",
]


def assignment_view(report):
    return sorted(frozenset(s.assignment) for s in report.solutions)


def assert_balanced_trace(path):
    events = load_events(path)
    assert events, path
    opened = [e["id"] for e in events if e["type"] == "span_start"]
    closed = [e["id"] for e in events if e["type"] == "span_end"]
    assert sorted(opened) == sorted(closed)
    json.dumps(events)  # JSON-clean end to end
    return events


@pytest.mark.parametrize("label,builder", VERIFY_SYSTEMS,
                         ids=[label for label, _ in VERIFY_SYSTEMS])
def test_verify_identical_with_telemetry(label, builder, tmp_path):
    off = ExplorationKernel(builder()).run()
    trace = tmp_path / "verify.jsonl"
    tele = Telemetry.create(trace_path=str(trace))
    on = ExplorationKernel(builder(), telemetry=tele).run()
    tele.close()
    assert on.verdict == off.verdict
    assert on.failure_kind == off.failure_kind
    # Pure observation: exactly the same exploration.
    assert on.stats.states_visited == off.stats.states_visited
    assert on.stats.transitions_fired == off.stats.transitions_fired
    assert on.stats.max_depth == off.stats.max_depth
    if on.trace is not None:
        assert [s.rule_name for s in on.trace.steps] == [
            s.rule_name for s in off.trace.steps
        ]
    events = assert_balanced_trace(trace)
    phase_names = {e["name"] for e in events if e["type"] == "phase"}
    assert "canonicalise" in phase_names
    assert "expand" in phase_names


def test_verify_kernel_phases_are_exactly_canonicalise_and_expand(tmp_path):
    """A cold, checkpoint-free run attributes its time to the two
    per-state phases and nothing else."""
    trace = tmp_path / "verify.jsonl"
    tele = Telemetry.create(trace_path=str(trace))
    ExplorationKernel(PROTOCOL_BUILDERS["moesi"](2), telemetry=tele).run()
    tele.close()
    events = load_events(trace)
    phase_names = {e["name"] for e in events if e["type"] == "phase"}
    assert phase_names == {"canonicalise", "expand"}


@pytest.mark.parametrize("name", SKELETONS)
def test_synthesis_solution_sets_match(name, tmp_path):
    off = SynthesisEngine(build_skeleton(name), SynthesisConfig()).run()
    trace = tmp_path / "synth.jsonl"
    on = SynthesisEngine(
        build_skeleton(name),
        SynthesisConfig(telemetry=True, trace_path=str(trace)),
    ).run()
    assert assignment_view(on) == assignment_view(off)
    assert on.evaluated == off.evaluated
    assert on.verdict_counts == off.verdict_counts
    assert {h.name for h in on.holes} == {h.name for h in off.holes}
    assert on.telemetry_enabled and not off.telemetry_enabled
    assert on.trace_path == str(trace)
    assert on.trace_events > 0
    assert on.peak_states > 0
    assert_balanced_trace(trace)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["msi-tiny", "german-small"])
def test_backends_match_with_telemetry(name, backend, tmp_path):
    baseline = SynthesisEngine(build_skeleton(name), SynthesisConfig()).run()
    trace = tmp_path / f"{backend}.jsonl"
    config = SynthesisConfig(telemetry=True, trace_path=str(trace))
    if backend == "processes":
        report = DistributedSynthesisEngine(
            SystemSpec(name), config, workers=2, min_batch_size=2
        ).run()
    else:
        report = SynthesisEngine(build_skeleton(name), config).run()
    assert assignment_view(report) == assignment_view(baseline)
    assert report.telemetry_enabled
    assert report.peak_states > 0
    events = assert_balanced_trace(trace)
    roots = [
        e for e in events
        if e["type"] == "span_start" and e.get("parent") is None
    ]
    assert roots and roots[0]["name"] == "synthesis"
    if backend == "processes":
        worker_traces = sorted(tmp_path.glob(f"{backend}.jsonl.worker-*"))
        assert len(worker_traces) == 2
        for worker_trace in worker_traces:
            worker_events = assert_balanced_trace(worker_trace)
            names = {
                e["name"] for e in worker_events
                if e["type"] == "span_start"
            }
            assert "batch" in names


def test_dist_metrics_aggregate_to_single_process_totals():
    """The coordinator's merged registry equals the report's counters."""
    engine = DistributedSynthesisEngine(
        SystemSpec("msi-tiny"), SynthesisConfig(telemetry=True),
        workers=2, min_batch_size=2,
    )
    report = engine.run()
    snap = engine.core.telemetry.metrics.snapshot()
    assert sum(
        snap["synth_candidates_evaluated"]["series"].values()
    ) == report.evaluated
    verdicts = {
        key.split("=", 1)[1]: value
        for key, value in snap["synth_verdicts"]["series"].items()
    }
    assert verdicts == report.verdict_counts
    assert max(
        snap["mc_peak_states"]["series"].values()
    ) == report.peak_states


def test_synth_msi_small_trace_attribution_meets_bar(tmp_path):
    """Issue acceptance: >= 95% of an instrumented synth run's wall-clock
    attributes to named spans/phases, via the real CLI entry point."""
    from repro.cli import main

    trace = tmp_path / "accept.jsonl"
    code = main([
        "synth", "msi-small", "--trace", str(trace), "--no-progress",
    ])
    assert code == 0
    stats = build_stats(load_events(trace))
    assert stats.root_name == "synth"
    assert stats.open_spans == 0
    assert stats.attribution is not None
    assert stats.attribution >= 0.95, f"attribution {stats.attribution:.1%}"


def test_kernel_without_telemetry_takes_zero_overhead_branch():
    """No telemetry -> the kernel must not install the canonicalise
    timing shim or accumulate phase timings (the disabled path costs one
    setup-time branch, not per-state work)."""
    explorer = ExplorationKernel(PROTOCOL_BUILDERS["msi"](2))
    result = explorer.run()
    assert result.is_success
    assert explorer.phase_seconds == {}
    assert explorer.telemetry is None

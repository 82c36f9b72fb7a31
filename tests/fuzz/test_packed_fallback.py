"""The derived whole-state codec, exercised through the engine path.

A system without a ``packed_spec`` (the fuzz ``none`` codec flavour) still
runs on the packed kernel: it derives a whole-state codec whose canonical
step is the system's own ``canonicalize``.  These tests pin that contract:
the derived codec *engages* (``pack_*`` metrics appear) and it is *exact*
(the run matches the same spec built with the opaque-global codec).
"""

from dataclasses import replace

from repro.core.engine import SynthesisConfig, SynthesisEngine
from repro.fuzz import build_reference_system, build_skeleton_from_spec, generate_spec
from repro.mc.kernel import ExplorationKernel
from repro.mc.packed import WholeStateCodec

#: seed 3 generates a codec="none" spec (see its corpus note); seed 0 is
#: the schema-codec control
CODECLESS_SEED = 3
SCHEMA_SEED = 0


def _solution_view(report):
    return sorted(tuple(sorted(s.assignment)) for s in report.solutions)


def _fingerprint_view(report):
    return {tuple(sorted(s.assignment)): s.fingerprint for s in report.solutions}


def _pack_total(engine, name):
    snapshot = engine.core.telemetry.metrics.snapshot()
    entry = snapshot.get(name)
    return 0 if entry is None else sum(entry["series"].values())


def _codecless_and_opaque():
    spec = generate_spec(CODECLESS_SEED)
    assert spec.codec == "none"
    return spec, replace(spec, codec="opaque")


def test_codecless_spec_has_no_packed_spec():
    spec = generate_spec(CODECLESS_SEED)
    assert spec.codec == "none"
    system, _holes = build_skeleton_from_spec(spec)
    assert getattr(system, "packed_spec", None) is None
    assert isinstance(system.packed_runtime().codec, WholeStateCodec)


def test_codecless_run_matches_the_opaque_codec():
    """The derived codec behaves exactly like the opaque-global codec:
    same solutions, fingerprints, evaluation count and verdicts."""
    reports = []
    for spec in _codecless_and_opaque():
        system, _holes = build_skeleton_from_spec(spec)
        reports.append(SynthesisEngine(
            system, SynthesisConfig(compute_fingerprints=True)
        ).run())
    codecless, opaque = reports
    assert codecless.solutions, "expected at least one solution"
    assert _solution_view(codecless) == _solution_view(opaque)
    assert _fingerprint_view(codecless) == _fingerprint_view(opaque)
    assert codecless.evaluated == opaque.evaluated
    assert codecless.verdict_counts == opaque.verdict_counts


def test_codecless_run_reports_pack_metrics():
    spec = generate_spec(CODECLESS_SEED)
    system, _holes = build_skeleton_from_spec(spec)
    engine = SynthesisEngine(system, SynthesisConfig(telemetry=True))
    report = engine.run()
    assert report.solutions
    assert _pack_total(engine, "pack_states_interned") > 0
    assert _pack_total(engine, "pack_canon_scans") > 0


def test_codec_control_reports_pack_metrics():
    """The same metrics on a schema-codec spec, so a regression that
    silently stops packing either kind of system cannot hide."""
    spec = generate_spec(SCHEMA_SEED)
    assert spec.codec == "schema"
    system, _holes = build_skeleton_from_spec(spec)
    engine = SynthesisEngine(system, SynthesisConfig(telemetry=True))
    report = engine.run()
    assert report.solutions
    assert _pack_total(engine, "pack_states_interned") > 0


def test_kernel_level_counts_match_the_opaque_codec():
    """The same contract one layer down, on the kernel directly."""
    results = []
    for spec in _codecless_and_opaque():
        system = build_reference_system(spec)
        results.append(ExplorationKernel(system).run())
    codecless, opaque = results
    assert codecless.is_success and opaque.is_success
    assert codecless.stats == opaque.stats

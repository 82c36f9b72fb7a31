"""The kernel's conflict extractor against the counterexample-replay oracle.

Conflict generalisation reads a failure's conflict off the exploration
kernel's hole paths.  :mod:`tests.replay_oracle` computes it a second,
independent way, by replaying the counterexample trace.  Over the
catalog skeletons (msi-large skipped for time) and fuzz seeds 0-39:

* every pattern the kernel produces equals the replayed one, in order,
  wherever there is a trace to replay;
* where there is none (a COVERAGE failure), the kernel pattern is a
  subset of the full-width candidate pattern;
* a synthesis run generalising through the oracle instead (full width
  where there is no trace) records the identical pattern list and
  evaluates the same candidates to the same solutions.
"""

import pytest

import repro.core.engine as engine_module
from repro.core import SynthesisConfig, SynthesisEngine
from repro.core.candidate import CandidateVector
from repro.core.pruning import PruningPattern, generalise_failure
from repro.fuzz import build_skeleton_from_spec, generate_spec
from repro.protocols.catalog import SKELETON_CATALOG, build_skeleton

from tests.replay_oracle import replay_conflict

SKELETONS = sorted(name for name in SKELETON_CATALOG if name != "msi-large")
FUZZ_SEEDS = range(40)


def _fuzz_system(seed):
    system, _holes = build_skeleton_from_spec(generate_spec(seed))
    return system


def _synthesise(system, monkeypatch, extractor):
    """One default-config run with ``extractor`` as the generaliser."""
    monkeypatch.setattr(engine_module, "generalise_failure", extractor)
    engine = SynthesisEngine(system, SynthesisConfig())
    report = engine.run()
    return report, [p.constraints for p in engine.core.fail_table.all_patterns()]


def _check_against_oracle(build, monkeypatch):
    system = build()
    checked = {"replayed": 0, "narrowed": 0}

    def checked_kernel(registry, digits, result):
        pattern = generalise_failure(registry, digits, result)
        replayed = replay_conflict(system, registry, digits, result)
        if replayed is not None:
            assert pattern == replayed, (digits, result.failure_kind)
            checked["replayed"] += 1
        else:
            full = PruningPattern.from_candidate(CandidateVector.from_digits(digits))
            assert set(pattern.constraints) <= set(full.constraints)
            checked["narrowed"] += 1
        return pattern

    kernel_report, kernel_patterns = _synthesise(system, monkeypatch, checked_kernel)
    assert checked["replayed"] + checked["narrowed"] > 0

    oracle_system = build()

    def oracle(registry, digits, result):
        replayed = replay_conflict(oracle_system, registry, digits, result)
        if replayed is None:
            # No trace to replay (a COVERAGE failure): record the full
            # candidate width, the paper's pattern.
            return PruningPattern.from_candidate(CandidateVector.from_digits(digits))
        return replayed

    oracle_report, oracle_patterns = _synthesise(oracle_system, monkeypatch, oracle)
    assert kernel_patterns == oracle_patterns
    assert kernel_report.evaluated == oracle_report.evaluated
    assert {s.digits for s in kernel_report.solutions} == {
        s.digits for s in oracle_report.solutions
    }


@pytest.mark.parametrize("name", SKELETONS)
def test_catalog_kernel_conflicts_match_replay(name, monkeypatch):
    _check_against_oracle(lambda: build_skeleton(name), monkeypatch)


def test_fuzz_kernel_conflicts_match_replay(monkeypatch):
    for seed in FUZZ_SEEDS:
        _check_against_oracle(lambda: _fuzz_system(seed), monkeypatch)

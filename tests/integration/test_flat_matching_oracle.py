"""The subtree walker against the flat-matching oracle.

The engine prunes with the subtree-skipping enumerator and its bitset
matcher.  :mod:`tests.flat_oracle` instead scans the live pattern tables
once per candidate, the paper's lookup table taken literally.  Over the
small catalog skeletons (the flat scan is too slow for msi-evict,
msi-small and msi-large) and fuzz seeds 0-39, a run through the oracle
records the identical failure and success pattern lists, in order, and
evaluates the same candidates to the same solutions.

Each sequential run also keeps its tables irredundant: no stored pattern
contains an earlier pattern of the same table.  A dispatched candidate
matches no stored pattern and its new pattern is a subset of its own
constraints, so a walker that let a prunable candidate through would
break this.
"""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.core import engine as engine_module
from repro.core.candidate import CandidateVector
from repro.core.pruning import PruningPattern
from repro.fuzz import build_skeleton_from_spec, generate_spec
from repro.protocols.catalog import build_skeleton

from tests.flat_oracle import use_flat_matching

SKELETONS = [
    "figure2", "msi-tiny", "msi-read-tiny", "mutex", "vi",
    "german-small", "mesi", "moesi-small",
]
FUZZ_SEEDS = range(40)


def _fuzz_system(seed):
    system, _holes = build_skeleton_from_spec(generate_spec(seed))
    return system


def assert_irredundant(patterns):
    """No pattern contains (is implied by) an earlier one."""
    for index, pattern in enumerate(patterns):
        later = set(pattern)
        for earlier in patterns[:index]:
            assert not set(earlier) <= later, (earlier, pattern)


def _outcome(system, config):
    engine = SynthesisEngine(system, config)
    report = engine.run()
    fail = engine.core.fail_table.constraints_since(0)
    success = engine.core.success_table.constraints_since(0)
    assert_irredundant(fail)
    assert_irredundant(success)
    solutions = sorted(s.digits for s in report.solutions)
    return fail, success, report.evaluated, report.failure_patterns, solutions


def _check_against_oracle(build, monkeypatch, config=None):
    config = config or SynthesisConfig()
    subtree = _outcome(build(), config)
    with monkeypatch.context() as patch:
        use_flat_matching(patch)
        flat = _outcome(build(), config)
    assert flat == subtree


@pytest.mark.parametrize("name", SKELETONS)
def test_catalog_subtree_walk_matches_flat_scan(name, monkeypatch):
    _check_against_oracle(lambda: build_skeleton(name), monkeypatch)


def _full_width_pattern(_registry, digits, _result):
    """The paper's pattern: the failing candidate at its full width."""
    return PruningPattern.from_candidate(CandidateVector.from_digits(digits))


@pytest.mark.parametrize("name", ["figure2", "msi-tiny", "vi"])
def test_full_width_patterns_match_flat_scan(name, monkeypatch):
    # Full-width patterns are denser than generalised ones; record them
    # in place of the conflict so the walker meets them too.
    monkeypatch.setattr(engine_module, "generalise_failure", _full_width_pattern)
    _check_against_oracle(lambda: build_skeleton(name), monkeypatch)


def test_fuzz_subtree_walk_matches_flat_scan(monkeypatch):
    for seed in FUZZ_SEEDS:
        _check_against_oracle(lambda: _fuzz_system(seed), monkeypatch)

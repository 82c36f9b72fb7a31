"""Tests for the mutual-exclusion protocol (DSL-built)."""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols.mutex import (
    REFERENCE_ASSIGNMENT,
    build_mutex_skeleton,
    build_mutex_system,
)
from tests.simulate import simulate


class TestReference:
    @pytest.mark.parametrize("n_clients", [1, 2, 3])
    def test_verifies(self, n_clients):
        result = ExplorationKernel(build_mutex_system(n_clients)).run()
        assert result.verdict is Verdict.SUCCESS, result.summary()

    def test_random_walks(self):
        system = build_mutex_system(3)
        for seed in range(10):
            outcome = simulate(system, max_steps=40, seed=seed)
            assert outcome.violated_invariant is None
            assert not outcome.deadlocked


class TestSynthesis:
    def test_unique_solution_is_reference(self):
        system, _holes = build_mutex_skeleton(2)
        report = SynthesisEngine(system).run()
        assert [dict(s.assignment) for s in report.solutions] == [
            REFERENCE_ASSIGNMENT
        ]

    def test_naive_mode_agrees(self):
        system, _holes = build_mutex_skeleton(2)
        naive = SynthesisEngine(system, SynthesisConfig(pruning=False)).run()
        assert naive.evaluated == naive.naive_candidate_space == 9
        assert [dict(s.assignment) for s in naive.solutions] == [
            REFERENCE_ASSIGNMENT
        ]

    def test_parallel_agrees(self):
        report = DistributedSynthesisEngine(
            SystemSpec("mutex"), workers=2
        ).run()
        assert [dict(s.assignment) for s in report.solutions] == [
            REFERENCE_ASSIGNMENT
        ]

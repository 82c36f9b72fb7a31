"""Tests for the VI protocol (DSL-built)."""

import pytest

from repro.core import SynthesisEngine
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.mc.simulate import simulate
from repro.protocols.vi import (
    REFERENCE_ASSIGNMENT,
    build_vi_skeleton,
    build_vi_system,
)


class TestReference:
    @pytest.mark.parametrize("n_clients", [1, 2, 3])
    def test_verifies(self, n_clients):
        result = ExplorationKernel(build_vi_system(n_clients)).run()
        assert result.verdict is Verdict.SUCCESS, result.summary()

    def test_symmetry_reduces(self):
        reduced = ExplorationKernel(build_vi_system(3)).run()
        full = ExplorationKernel(build_vi_system(3, symmetry=False)).run()
        assert reduced.stats.states_visited < full.stats.states_visited
        assert full.verdict is Verdict.SUCCESS

    def test_random_walks(self):
        system = build_vi_system(2)
        for seed in range(10):
            outcome = simulate(system, max_steps=40, seed=seed)
            assert outcome.violated_invariant is None


class TestSynthesis:
    @pytest.fixture(scope="class")
    def report(self):
        system, _holes = build_vi_skeleton(2)
        return SynthesisEngine(system).run()

    def test_reference_among_solutions(self, report):
        assert REFERENCE_ASSIGNMENT in [dict(s.assignment) for s in report.solutions]

    def test_all_solutions_acknowledge_grant(self, report):
        # Without GotIt the directory never records the owner.
        for solution in report.solutions:
            assignment = dict(solution.assignment)
            assert assignment["vi.client.IV_D+Data.response"] == "send_gotit"

    def test_client_only_skeleton(self):
        system, holes = build_vi_skeleton(2, hole_dir=False)
        assert len(holes) == 2
        report = SynthesisEngine(system).run()
        expected = {
            name: action
            for name, action in REFERENCE_ASSIGNMENT.items()
            if name.startswith("vi.client")
        }
        assert expected in [dict(s.assignment) for s in report.solutions]

    def test_pruning_reduces_evaluations(self, report):
        assert report.evaluated < report.naive_candidate_space * 2
        assert report.failure_patterns > 0

"""Tests for MSI skeletons and their synthesis (tiny size for speed)."""

import pytest

from repro.core import SynthesisEngine
from repro.core.candidate import CandidateVector
from repro.core.discovery import CandidateResolver, HoleRegistry
from repro.errors import SynthesisError
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols.msi import (
    msi_large,
    msi_read_tiny,
    msi_skeleton,
    msi_small,
    msi_tiny,
)
from repro.protocols.msi.skeleton import SkeletonSpec

from tests.flat_oracle import use_flat_matching


class TestSkeletonShapes:
    def test_tiny_hole_count(self):
        skeleton = msi_tiny()
        assert skeleton.hole_count == 2
        assert skeleton.spec.hole_count == 2

    def test_small_matches_paper(self):
        skeleton = msi_small()
        assert skeleton.hole_count == 8  # 2 dir rules * 3 + 1 cache rule * 2
        space = 1
        for hole in skeleton.holes:
            space *= hole.arity
        assert space == 231_525  # Table I, MSI-small naive candidates
        wildcard_space = 1
        for hole in skeleton.holes:
            wildcard_space *= hole.arity + 1
        assert wildcard_space == 1_179_648  # Table I, MSI-small with pruning

    def test_large_matches_paper(self):
        skeleton = msi_large()
        assert skeleton.hole_count == 12
        space = 1
        for hole in skeleton.holes:
            space *= hole.arity
        assert space == 102_102_525  # Table I, MSI-large naive candidates
        wildcard_space = 1
        for hole in skeleton.holes:
            wildcard_space *= hole.arity + 1
        assert wildcard_space == 1_207_959_552

    def test_invalid_rule_rejected(self):
        with pytest.raises(SynthesisError):
            msi_skeleton(SkeletonSpec(name="bad", cache_rules=(((99, "Nope")),)))

    def test_reference_assignment_covers_all_holes(self):
        skeleton = msi_large()
        assignment = skeleton.reference_assignment()
        assert set(assignment) == {hole.name for hole in skeleton.holes}


class TestReferenceAssignmentVerifies:
    @pytest.mark.parametrize("factory", [msi_tiny, msi_small])
    def test_reference_completion_is_a_solution(self, factory):
        skeleton = factory(n_caches=2)
        assignment = skeleton.reference_assignment()
        registry = HoleRegistry()
        digits = ()
        # Iterate discovery: run, extend assignment, until stable.
        for _round in range(20):
            result = ExplorationKernel(
                skeleton.system,
                resolver=CandidateResolver(
                    registry, CandidateVector.from_digits(digits)
                ),
            ).run()
            new_digits = tuple(
                hole.index_of(assignment[hole.name]) for hole in registry.holes
            )
            if new_digits == digits:
                break
            digits = new_digits
        assert result.verdict is Verdict.SUCCESS, result.summary()

    def test_wrong_completion_fails(self):
        skeleton = msi_tiny(n_caches=2)
        registry = HoleRegistry()
        ExplorationKernel(
            skeleton.system,
            resolver=CandidateResolver(registry, CandidateVector.empty()),
        ).run()
        (response_hole,) = [
            h for h in registry.holes if h.name.endswith("response")
        ]
        # Respond with an invalidation ack instead of the data ack: the
        # directory sees an unexpected InvAck.
        digits = (response_hole.index_of("send_invack"),)
        result = ExplorationKernel(
            skeleton.system,
            resolver=CandidateResolver(registry, CandidateVector.from_digits(digits)),
        ).run()
        assert result.verdict is not Verdict.SUCCESS


class TestTinySynthesis:
    @pytest.fixture(scope="class")
    def report(self):
        return SynthesisEngine(msi_tiny(n_caches=2).system).run()

    def test_finds_reference_solution(self, report):
        skeleton = msi_tiny(n_caches=2)
        reference = skeleton.reference_assignment()
        found = [dict(s.assignment) for s in report.solutions]
        assert reference in found

    def test_solutions_all_send_dataack(self, report):
        # Without the data acknowledgement the directory never leaves IM_A.
        for solution in report.solutions:
            assert dict(solution.assignment)[
                "cache.IM_D+Data.response"
            ] == "send_dataack"

    def test_patterns_present(self, report):
        assert report.failure_patterns > 0

    def test_coverage_never_removes_real_solutions(self):
        # Dropping coverage can only widen the solution set.
        with_coverage = SynthesisEngine(msi_tiny(n_caches=2).system).run()
        without = SynthesisEngine(
            msi_tiny(n_caches=2, coverage=False).system
        ).run()
        with_set = {s.digits for s in with_coverage.solutions}
        without_set = {s.digits for s in without.solutions}
        assert with_set <= without_set


class TestCoverageMatters:
    """The paper's Section III observation: without "all stable states must
    be visited", degenerate protocols verify — e.g. a cache that requests
    data in Invalid, receives the response, and transitions straight back
    to Invalid ("effectively renders the cache useless")."""

    def test_useless_read_protocol_verifies_without_coverage(self):
        report = SynthesisEngine(
            msi_read_tiny(n_caches=2, coverage=False).system
        ).run()
        useless = {
            "cache.IS_D+Data.response": "none",
            "cache.IS_D+Data.next": "goto_I",
        }
        assert useless in [dict(s.assignment) for s in report.solutions]

    def test_coverage_rejects_the_useless_protocol(self):
        with_coverage = SynthesisEngine(msi_read_tiny(n_caches=2).system).run()
        useless = {
            "cache.IS_D+Data.response": "none",
            "cache.IS_D+Data.next": "goto_I",
        }
        solutions = [dict(s.assignment) for s in with_coverage.solutions]
        assert useless not in solutions
        assert {
            "cache.IS_D+Data.response": "none",
            "cache.IS_D+Data.next": "goto_S",
        } in solutions

    def test_solution_count_grows_without_coverage(self):
        with_coverage = SynthesisEngine(msi_read_tiny(n_caches=2).system).run()
        without = SynthesisEngine(
            msi_read_tiny(n_caches=2, coverage=False).system
        ).run()
        assert len(without.solutions) > len(with_coverage.solutions)


class TestNaiveMatchesSubtree:
    def test_tiny_counts_identical(self, monkeypatch):
        subtree = SynthesisEngine(msi_tiny(n_caches=2).system).run()
        use_flat_matching(monkeypatch)
        flat = SynthesisEngine(msi_tiny(n_caches=2).system).run()
        assert flat.evaluated == subtree.evaluated
        assert flat.failure_patterns == subtree.failure_patterns
        assert sorted(s.digits for s in flat.solutions) == sorted(
            s.digits for s in subtree.solutions
        )

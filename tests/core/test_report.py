"""Tests for SynthesisReport metrics and formatting."""

import pytest

from repro.core.action import Action
from repro.core.hole import Hole
from repro.core.report import Solution, SynthesisReport


def make_holes():
    return [
        Hole("h0", [Action("a"), Action("b"), Action("c")]),
        Hole("h1", [Action("x"), Action("y")]),
    ]


def make_report(pruning=True):
    report = SynthesisReport(system_name="sys", pruning=pruning, threads=1)
    report.holes = make_holes()
    return report


class TestSpaces:
    def test_naive_space(self):
        assert make_report().naive_candidate_space == 6

    def test_wildcard_space(self):
        assert make_report().wildcard_candidate_space == 12  # 4 * 3

    def test_candidate_space_depends_on_mode(self):
        assert make_report(pruning=True).candidate_space == 12
        assert make_report(pruning=False).candidate_space == 6

    def test_empty_holes(self):
        report = SynthesisReport(system_name="s", pruning=True, threads=1)
        assert report.naive_candidate_space == 1


class TestReduction:
    def test_reduction_vs_naive(self):
        report = make_report()
        report.evaluated = 3
        assert report.reduction_vs_naive == pytest.approx(0.5)

    def test_paper_msi_small_reduction(self):
        report = SynthesisReport(system_name="s", pruning=True, threads=1)
        report.holes = [
            Hole(f"h{i}", [Action(f"a{j}") for j in range(arity)])
            for i, arity in enumerate([5, 7, 3, 5, 7, 3, 3, 7])
        ]
        report.evaluated = 855
        assert report.naive_candidate_space == 231_525
        assert report.reduction_vs_naive == pytest.approx(0.9963, abs=1e-4)


class TestSolutions:
    def test_format_solution(self):
        report = make_report()
        solution = Solution(
            digits=(1, 0),
            assignment=(("h0", "b"), ("h1", "x")),
            states_visited=10,
            fingerprint=None,
            run_index=5,
        )
        assert report.format_solution(solution) == "<1@b, 2@x>"

    def test_assignment_dict(self):
        solution = Solution(
            digits=(0,), assignment=(("h0", "a"),), states_visited=1,
            fingerprint=None, run_index=1,
        )
        assert solution.assignment_dict() == {"h0": "a"}
        assert "h0=a" in str(solution)


class TestSummary:
    def test_summary_contains_key_numbers(self):
        report = make_report()
        report.evaluated = 42
        report.failure_patterns = 7
        report.verdict_counts = {"success": 1, "failure": 41, "unknown": 0}
        text = report.summary()
        assert "42" in text
        assert "sys" in text
        assert "pruning" in text

    def test_summary_flags_inherent_failure(self):
        report = make_report()
        report.inherent_failure = True
        report.inherent_failure_message = "invariant 'x' violated"
        assert "INHERENT FAILURE" in report.summary()

    def test_table_row_naive_has_no_patterns(self):
        row = make_report(pruning=False).table_row("cfg")
        assert row["Pruning Patterns"] is None

    def test_summary_and_row_have_no_family_fields(self):
        # Family synthesis was removed: no report field, summary line or
        # Table I column may mention it.
        report = make_report()
        report.evaluated = 3
        assert not any(name.startswith("family") for name in vars(report))
        assert "family" not in report.summary()
        assert not any("family" in key.lower() for key in report.table_row("cfg"))

    def test_hole_count(self):
        assert make_report().hole_count == 2

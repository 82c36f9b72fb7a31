"""Tests for the Figure 2 toy system."""


from repro.core.candidate import CandidateVector
from repro.core.discovery import CandidateResolver, HoleRegistry
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols.toy import (
    DECISION_STATES,
    TRANSITIONS,
    build_figure2_holes,
    build_figure2_skeleton,
    build_figure2_solution,
)


def test_hole_domains_match_figure2():
    holes = build_figure2_holes()
    assert [h.arity for h in holes] == [3, 2, 2, 2]
    assert [a.name for a in holes[0].domain] == ["A", "B", "C"]


def test_transition_table_consistency():
    # Every decision state has a transition per action of its hole.
    holes = dict(zip(DECISION_STATES, build_figure2_holes()))
    for state, hole in holes.items():
        for action in hole.domain:
            assert action.payload in TRANSITIONS[state]


def test_correct_assignment_verifies():
    system = build_figure2_skeleton()
    registry = HoleRegistry()
    # Resolve holes through a candidate matching the published solution;
    # discovery order is s0, s2, s3, s4.
    solution = build_figure2_solution()
    # Pre-register holes in discovery order by running once is overkill:
    # instead, build the digits in hole construction order (same thing here).
    holes = build_figure2_holes()
    # The skeleton creates its own hole objects; fetch them via a probe run.
    probe = ExplorationKernel(
        system, resolver=CandidateResolver(registry, CandidateVector.empty())
    ).run()
    assert probe.verdict is Verdict.UNKNOWN
    digits = []
    for hole in registry.holes:
        digits.append(hole.index_of(solution[hole.name]))
    # Iterate: each run discovers the next hole.
    while True:
        result = ExplorationKernel(
            system,
            resolver=CandidateResolver(
                registry, CandidateVector.from_digits(tuple(digits))
            ),
        ).run()
        if len(registry) == len(digits):
            break
        digits = [
            hole.index_of(solution[hole.name]) for hole in registry.holes
        ]
    assert result.verdict is Verdict.SUCCESS


def test_wrong_assignment_fails():
    system = build_figure2_skeleton()
    registry = HoleRegistry()
    ExplorationKernel(
        system, resolver=CandidateResolver(registry, CandidateVector.empty())
    ).run()
    (hole1,) = registry.holes
    digits = (hole1.index_of("A"),)  # A leads straight to the error state
    result = ExplorationKernel(
        system,
        resolver=CandidateResolver(registry, CandidateVector.from_digits(digits)),
    ).run()
    assert result.verdict is Verdict.FAILURE

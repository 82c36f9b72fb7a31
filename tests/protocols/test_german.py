"""Tests for the German directory protocol (data-carrying workload)."""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols.german import (
    E,
    GE_W,
    GS_W,
    IE_W,
    REFERENCE_ASSIGNMENT,
    S,
    SE_W,
    build_german_skeleton,
    build_german_system,
)
from tests.bfs_oracle import visited_representatives
from tests.simulate import simulate


class TestReference:
    @pytest.mark.parametrize("n_clients", [1, 2, 3])
    def test_verifies(self, n_clients):
        result = ExplorationKernel(build_german_system(n_clients)).run()
        assert result.verdict is Verdict.SUCCESS, result.summary()

    def test_known_state_counts(self):
        counts = {
            n: ExplorationKernel(build_german_system(n)).run().stats.states_visited
            for n in (1, 2, 3)
        }
        assert counts == {1: 10, 2: 122, 3: 900}

    def test_random_walks(self):
        system = build_german_system(2)
        for seed in range(15):
            outcome = simulate(system, max_steps=60, seed=seed)
            assert outcome.violated_invariant is None

    def test_symmetry_reduces(self):
        reduced = ExplorationKernel(build_german_system(3)).run()
        full = ExplorationKernel(build_german_system(3, symmetry=False)).run()
        assert reduced.stats.states_visited < full.stats.states_visited
        assert full.verdict is Verdict.SUCCESS


class TestDataSemantics:
    def test_writeback_path_reachable(self):
        """The directory really collects dirty data: both grant-wait
        states and both data values are exercised."""
        explorer = ExplorationKernel(build_german_system(2))
        explorer.run()
        states = visited_representatives(explorer)
        assert any(s[1].st == GS_W for s in states)
        assert any(s[1].st == GE_W for s in states)
        assert any(s[1].mem == 1 for s in states)
        assert any(s[1].aux == 1 for s in states)

    def test_upgrade_race_reachable(self):
        """A client invalidated mid-upgrade lands in IE_W — the transient
        the german-small skeleton synthesises."""
        explorer = ExplorationKernel(build_german_system(2))
        explorer.run()
        races = [
            s
            for s in visited_representatives(explorer)
            if any(p.st == IE_W for p in s[0]) and s[1].st == GE_W
        ]
        assert races

    def test_sharers_always_see_last_write(self):
        # The data-integrity invariant holds in every reachable state by
        # construction; double-check it structurally here.
        explorer = ExplorationKernel(build_german_system(2))
        result = explorer.run()
        assert result.verdict is Verdict.SUCCESS
        for state in visited_representatives(explorer):
            procs, glob, _net = state
            for proc in procs:
                if proc.st in (S, SE_W, E):
                    assert proc.d == glob.aux


class TestSeededBug:
    def test_stale_shared_grant_is_caught(self):
        result = ExplorationKernel(
            build_german_system(2, bug="stale-shared-grant")
        ).run()
        assert result.verdict is Verdict.FAILURE

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError, match="unknown seeded bug"):
            build_german_system(2, bug="nope")


class TestSynthesis:
    def test_upgrade_race_hole_unique_solution(self):
        """Only 'ack with writeback, wait in IE_W' survives: the stale-S
        completion is killed by data integrity, the silent ones by
        deadlock, the re-request by channel capacity."""
        system, _holes = build_german_skeleton(2)
        report = SynthesisEngine(system).run()
        assert [dict(s.assignment) for s in report.solutions] == [
            REFERENCE_ASSIGNMENT
        ]

    def test_naive_mode_agrees(self):
        system, _holes = build_german_skeleton(2)
        pruned = SynthesisEngine(system).run()
        system2, _ = build_german_skeleton(2)
        naive = SynthesisEngine(system2, SynthesisConfig(pruning=False)).run()
        assert {s.digits for s in naive.solutions} == {
            s.digits for s in pruned.solutions
        }

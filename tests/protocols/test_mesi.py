"""Tests for the MESI protocol (scope extension)."""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols import mesi
from repro.protocols.dirfamily import initial_state, permute_state
from repro.protocols.mesi import (
    build_mesi_skeleton,
    build_mesi_system,
    reference_assignment_for,
)
from tests.bfs_oracle import visited_representatives
from tests.simulate import simulate


class TestReference:
    @pytest.mark.parametrize("n_caches", [1, 2, 3])
    def test_verifies(self, n_caches):
        result = ExplorationKernel(build_mesi_system(n_caches)).run()
        assert result.verdict is Verdict.SUCCESS, result.summary()

    def test_known_state_counts(self):
        counts = {
            n: ExplorationKernel(build_mesi_system(n)).run().stats.states_visited
            for n in (1, 2, 3)
        }
        assert counts == {1: 9, 2: 70, 3: 335}

    def test_mesi_larger_than_msi(self):
        # The Exclusive state adds behaviour over MSI at the same size.
        from repro.protocols.msi.system import build_msi_system

        mesi_states = ExplorationKernel(build_mesi_system(2)).run().stats.states_visited
        msi_states = ExplorationKernel(build_msi_system(2)).run().stats.states_visited
        assert mesi_states > msi_states

    def test_random_walks(self):
        system = build_mesi_system(2)
        for seed in range(15):
            outcome = simulate(system, max_steps=60, seed=seed)
            assert outcome.violated_invariant is None

    def test_symmetry_reduces(self):
        reduced = ExplorationKernel(build_mesi_system(3)).run()
        full = ExplorationKernel(build_mesi_system(3, symmetry=False)).run()
        assert reduced.stats.states_visited < full.stats.states_visited
        assert full.verdict is Verdict.SUCCESS


class TestExclusiveSemantics:
    def test_silent_upgrade_exists(self):
        """Some reachable state has a cache in M while the directory never
        saw a GetM from it (the silent E->M upgrade)."""
        explorer = ExplorationKernel(build_mesi_system(1))
        explorer.run()
        states = visited_representatives(explorer)
        assert any(mesi.C_E in s[0] for s in states)
        assert any(mesi.C_M in s[0] for s in states)

    def test_swmr_counts_e_as_exclusive(self):
        from repro.protocols.mesi import mesi_invariants

        swmr = mesi_invariants(2)[0]
        net = initial_state(2)[6]
        bad = ((mesi.C_E, mesi.C_S), mesi.D_EM, 0, frozenset(), -1, 0, net)
        assert not swmr.holds(bad)
        bad2 = ((mesi.C_E, mesi.C_E), mesi.D_EM, 0, frozenset(), -1, 0, net)
        assert not swmr.holds(bad2)
        good = ((mesi.C_S, mesi.C_S), mesi.D_S, -1, frozenset({0, 1}), -1, 0, net)
        assert swmr.holds(good)

    def test_permute_roundtrip(self):
        state = (
            (mesi.C_E, mesi.C_I, mesi.C_S),
            mesi.D_EM,
            0,
            frozenset({2}),
            1,
            1,
            initial_state(3)[6].add(("DataE", 2)),
        )
        mapping = (1, 2, 0)
        inverse = tuple(mapping.index(i) for i in range(3))
        assert permute_state(permute_state(state, mapping), inverse) == state


class TestSynthesis:
    def test_exclusive_grant_hole_unique_solution(self):
        system, holes = build_mesi_skeleton(n_caches=2)
        report = SynthesisEngine(system).run()
        assert [dict(s.assignment) for s in report.solutions] == [
            reference_assignment_for(holes)
        ]

    def test_without_e_coverage_msi_like_solutions_appear(self):
        # Dropping coverage admits completions that never actually use E.
        system, _holes = build_mesi_skeleton(n_caches=2, coverage=False)
        report = SynthesisEngine(system).run()
        assert len(report.solutions) > 1

    def test_dir_completion_hole(self):
        system, holes = build_mesi_skeleton(
            cache_rules=(),
            dir_rules=((mesi.D_IE_A, mesi.DATAACK),),
            n_caches=2,
        )
        assert len(holes) == 3  # 5 x 7 x 3 directory triple
        report = SynthesisEngine(system).run()
        assert reference_assignment_for(holes) in [
            dict(s.assignment) for s in report.solutions
        ]

    def test_naive_mode_agrees(self):
        system, holes = build_mesi_skeleton(n_caches=2)
        pruned = SynthesisEngine(system).run()
        system2, _ = build_mesi_skeleton(n_caches=2)
        naive = SynthesisEngine(system2, SynthesisConfig(pruning=False)).run()
        assert {s.digits for s in naive.solutions} == {
            s.digits for s in pruned.solutions
        }

"""Tests for the MOESI protocol (Owned-state scope extension)."""

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols import moesi
from repro.protocols.dirfamily import initial_state, permute_state
from repro.protocols.moesi import (
    build_moesi_skeleton,
    build_moesi_system,
    reference_assignment_for,
)
from tests.bfs_oracle import visited_representatives
from tests.simulate import simulate


class TestReference:
    @pytest.mark.parametrize("n_caches", [1, 2, 3])
    def test_verifies(self, n_caches):
        result = ExplorationKernel(build_moesi_system(n_caches)).run()
        assert result.verdict is Verdict.SUCCESS, result.summary()

    def test_known_state_counts(self):
        counts = {
            n: ExplorationKernel(build_moesi_system(n)).run().stats.states_visited
            for n in (1, 2, 3)
        }
        assert counts == {1: 9, 2: 83, 3: 613}

    def test_moesi_larger_than_mesi(self):
        # The Owned state adds behaviour over MESI at the same size.
        from repro.protocols.mesi import build_mesi_system

        moesi_states = ExplorationKernel(build_moesi_system(2)).run().stats.states_visited
        mesi_states = ExplorationKernel(build_mesi_system(2)).run().stats.states_visited
        assert moesi_states > mesi_states

    def test_random_walks(self):
        system = build_moesi_system(2)
        for seed in range(15):
            outcome = simulate(system, max_steps=60, seed=seed)
            assert outcome.violated_invariant is None

    def test_symmetry_reduces(self):
        reduced = ExplorationKernel(build_moesi_system(3)).run()
        full = ExplorationKernel(build_moesi_system(3, symmetry=False)).run()
        assert reduced.stats.states_visited < full.stats.states_visited
        assert full.verdict is Verdict.SUCCESS


class TestOwnedSemantics:
    def test_dirty_sharing_reachable(self):
        """Some reachable state has an Owned cache coexisting with a
        Shared one — the dirty-sharing configuration MESI cannot express."""
        explorer = ExplorationKernel(build_moesi_system(2))
        explorer.run()
        states = visited_representatives(explorer)
        assert any(
            moesi.C_O in s[0] and moesi.C_S in s[0] for s in states
        )
        assert any(s[1] == moesi.D_O for s in states)

    def test_swmr_allows_o_plus_s_but_not_two_owners(self):
        from repro.protocols.moesi import moesi_invariants

        swmr = moesi_invariants(2)[0]
        net = initial_state(2)[6]
        good = ((moesi.C_O, moesi.C_S), moesi.D_O, 0, frozenset({1}), -1, 0, net)
        assert swmr.holds(good)
        two_owners = ((moesi.C_O, moesi.C_M), moesi.D_O, 0, frozenset(), -1, 0, net)
        assert not swmr.holds(two_owners)
        m_with_reader = ((moesi.C_M, moesi.C_S), moesi.D_EM, 0, frozenset(), -1, 0, net)
        assert not swmr.holds(m_with_reader)

    def test_permute_roundtrip(self):
        state = (
            (moesi.C_O, moesi.C_I, moesi.C_S),
            moesi.D_O,
            0,
            frozenset({2}),
            1,
            1,
            initial_state(3)[6].add(("FwdGetS", 2)),
        )
        mapping = (1, 2, 0)
        inverse = tuple(mapping.index(i) for i in range(3))
        assert permute_state(permute_state(state, mapping), inverse) == state


class TestSeededBug:
    def test_no_owner_inv_bug_is_caught(self):
        """Skipping the owner invalidation on a GetM in O violates SWMR."""
        result = ExplorationKernel(build_moesi_system(2, bug="no-owner-inv")).run()
        assert result.verdict is Verdict.FAILURE
        assert "swmr" in (result.message or "")

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError, match="unknown seeded bug"):
            build_moesi_system(2, bug="nope")


class TestSynthesis:
    def test_hallmark_hole_unique_solution(self):
        """The M+FwdGetS skeleton admits exactly the reference completion:
        keep ownership (-> O) and serve the reader directly."""
        system, holes = build_moesi_skeleton(n_caches=2)
        report = SynthesisEngine(system).run()
        assert [dict(s.assignment) for s in report.solutions] == [
            reference_assignment_for(holes)
        ]

    def test_without_o_coverage_mesi_like_solutions_appear(self):
        # Dropping coverage admits completions that never actually use O
        # (e.g. write back and downgrade to S, i.e. plain MESI behaviour).
        system, _holes = build_moesi_skeleton(n_caches=2, coverage=False)
        report = SynthesisEngine(system).run()
        assert len(report.solutions) > 1

    def test_dir_completion_hole(self):
        system, holes = build_moesi_skeleton(
            cache_rules=(),
            dir_rules=((moesi.D_EO_A, moesi.ACKO),),
            n_caches=2,
        )
        assert len(holes) == 3  # 6 x 9 x 4 directory triple
        report = SynthesisEngine(system).run()
        assert reference_assignment_for(holes) in [
            dict(s.assignment) for s in report.solutions
        ]

    def test_naive_mode_agrees(self):
        system, _holes = build_moesi_skeleton(n_caches=2)
        pruned = SynthesisEngine(system).run()
        system2, _ = build_moesi_skeleton(n_caches=2)
        naive = SynthesisEngine(system2, SynthesisConfig(pruning=False)).run()
        assert {s.digits for s in naive.solutions} == {
            s.digits for s in pruned.solutions
        }

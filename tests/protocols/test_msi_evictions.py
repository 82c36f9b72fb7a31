"""Tests for the MSI eviction extension (writebacks and their races)."""

import pytest

from repro.core import SynthesisEngine
from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols.msi import defs
from repro.protocols.msi.actions import cache_next_domain, cache_response_domain
from repro.protocols.msi.skeleton import msi_evict
from repro.protocols.msi.system import build_msi_system
from tests.simulate import simulate


class TestEvictionReference:
    @pytest.mark.parametrize("n_caches", [1, 2, 3])
    def test_verifies(self, n_caches):
        result = ExplorationKernel(build_msi_system(n_caches, evictions=True)).run()
        assert result.verdict is Verdict.SUCCESS, result.summary()

    def test_eviction_grows_state_space(self):
        base = ExplorationKernel(build_msi_system(2)).run()
        evict = ExplorationKernel(build_msi_system(2, evictions=True)).run()
        assert evict.stats.states_visited > base.stats.states_visited

    def test_known_state_counts(self):
        # Regression pins (recorded in EXPERIMENTS.md).
        counts = {
            n: ExplorationKernel(build_msi_system(n, evictions=True)).run().stats.states_visited
            for n in (1, 2)
        }
        assert counts[1] == 16
        assert counts[2] == 209

    def test_base_protocol_unchanged_by_extension_code(self):
        result = ExplorationKernel(build_msi_system(2, evictions=False)).run()
        assert result.stats.states_visited == 59

    def test_random_walks(self):
        system = build_msi_system(2, evictions=True)
        for seed in range(15):
            outcome = simulate(system, max_steps=80, seed=seed)
            assert outcome.violated_invariant is None


class TestExtendedDomains:
    def test_base_domains_keep_paper_arity(self):
        assert len(cache_response_domain()) == 3
        assert len(cache_next_domain()) == 7

    def test_extended_domains(self):
        assert len(cache_response_domain(extended=True)) == 4
        assert len(cache_next_domain(extended=True)) == 9
        names = [a.name for a in cache_next_domain(extended=True)]
        assert "goto_MI_A" in names and "goto_II_A" in names

    def test_putm_action_sends_writeback(self):
        from repro.protocols.dirfamily import initial_state
        from repro.protocols.msi.defs import View

        putm = {a.name: a for a in cache_response_domain(extended=True)}["send_putm"]
        view = View(initial_state(2))
        putm.fn(view, 1)
        assert (defs.PUTM, 1) in view.freeze()[6]


class TestEvictionSynthesis:
    @pytest.fixture(scope="class")
    def report(self):
        return SynthesisEngine(msi_evict(n_caches=2).system).run()

    def test_skeleton_shape(self):
        skeleton = msi_evict(n_caches=2)
        assert skeleton.hole_count == 6  # 3 cache rules x 2 holes
        arities = sorted(hole.arity for hole in skeleton.holes)
        assert arities == [4, 4, 4, 9, 9, 9]

    def test_reference_rediscovered(self, report):
        reference = msi_evict(n_caches=2).reference_assignment()
        assert reference in [dict(s.assignment) for s in report.solutions]

    def test_ack_and_wait_variant_found(self, report):
        # A genuinely different valid design: ack the crossing invalidation
        # but keep waiting in MI_A (skip II_A entirely).
        solutions = [dict(s.assignment) for s in report.solutions]
        variant = {
            "cache.MI_A+PutAck.response": "none",
            "cache.MI_A+PutAck.next": "goto_I",
            "cache.MI_A+Inv.response": "send_invack",
            "cache.MI_A+Inv.next": "goto_MI_A",
        }
        assert variant in solutions

    def test_all_solutions_ack_the_crossing_inv(self, report):
        # Without the InvAck the directory's collection transient hangs.
        for solution in report.solutions:
            assignment = dict(solution.assignment)
            assert assignment["cache.MI_A+Inv.response"] == "send_invack"

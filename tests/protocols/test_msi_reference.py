"""Tests for the complete (reference) MSI protocol."""


import pytest

from repro.mc.kernel import ExplorationKernel
from repro.mc.result import Verdict
from repro.protocols.msi import defs
from repro.protocols.dirfamily import initial_state, permute_state
from repro.protocols.msi.defs import View
from repro.protocols.msi.properties import (
    msi_coverage,
    msi_invariants,
    msi_quiescent,
)
from repro.protocols.msi.system import MSI, build_msi_system
from tests.simulate import simulate


class TestReferenceVerifies:
    @pytest.mark.parametrize("n_caches", [1, 2, 3])
    def test_complete_protocol_is_correct(self, n_caches):
        result = ExplorationKernel(build_msi_system(n_caches=n_caches)).run()
        assert result.verdict is Verdict.SUCCESS, result.summary()

    def test_known_state_counts(self):
        # Regression pin: symmetry-reduced reachable states of the reference
        # protocol (recorded in EXPERIMENTS.md).
        counts = {}
        for n_caches in (1, 2, 3):
            result = ExplorationKernel(build_msi_system(n_caches=n_caches)).run()
            counts[n_caches] = result.stats.states_visited
        assert counts[1] == 10
        assert counts[2] == 59
        assert counts[3] == 311

    def test_symmetry_reduces_state_count(self):
        with_symmetry = ExplorationKernel(build_msi_system(2, symmetry=True)).run()
        without = ExplorationKernel(build_msi_system(2, symmetry=False)).run()
        assert with_symmetry.stats.states_visited < without.stats.states_visited
        assert without.verdict is Verdict.SUCCESS

    def test_coverage_disabled_still_succeeds(self):
        result = ExplorationKernel(build_msi_system(2, coverage=False)).run()
        assert result.verdict is Verdict.SUCCESS

    def test_random_walks_respect_invariants(self):
        system = build_msi_system(2)
        for seed in range(20):
            outcome = simulate(system, max_steps=60, seed=seed)
            assert outcome.violated_invariant is None
            if outcome.deadlocked:
                assert msi_quiescent(outcome.trace.final_state)


class TestStateHelpers:
    def test_initial_state_shape(self):
        state = initial_state(3)
        assert state[0] == (defs.C_I,) * 3
        assert state[1] == defs.D_I
        assert len(state[6]) == 0

    def test_view_roundtrip(self):
        state = initial_state(2)
        view = View(state)
        assert view.freeze() == state

    def test_view_send_consume(self):
        view = View(initial_state(2))
        view.send(defs.GETS, 1)
        frozen = view.freeze()
        assert (defs.GETS, 1) in frozen[6]
        view2 = View(frozen)
        view2.consume(defs.GETS, 1)
        assert len(view2.freeze()[6]) == 0

    def test_permute_state_roundtrip(self):
        state = (
            (defs.C_M, defs.C_I, defs.C_S),
            defs.D_M,
            0,
            frozenset({2}),
            1,
            1,
            View(initial_state(3)).net.add((defs.DATA, 2)),
        )
        mapping = (1, 2, 0)
        inverse = tuple(mapping.index(i) for i in range(3))
        assert permute_state(permute_state(state, mapping), inverse) == state

    def test_permute_moves_everything_consistently(self):
        state = (
            (defs.C_M, defs.C_I),
            defs.D_M,
            0,
            frozenset(),
            0,
            0,
            View(initial_state(2)).net.add((defs.INV, 0)),
        )
        caches, _d, owner, _sh, req, _a, net = permute_state(state, (1, 0))
        assert caches == (defs.C_I, defs.C_M)
        assert owner == 1
        assert req == 1
        assert (defs.INV, 1) in net

    def test_format_state_readable(self):
        text = MSI.format_state(initial_state(2))
        assert "caches[I,I]" in text
        assert "dir=I" in text


class TestProperties:
    def test_swmr_rejects_two_writers(self):
        swmr = msi_invariants()[0]
        bad = ((defs.C_M, defs.C_M), defs.D_M, 0, frozenset(), -1, 0,
               View(initial_state(2)).net)
        assert not swmr.holds(bad)

    def test_swmr_rejects_writer_plus_reader(self):
        swmr = msi_invariants()[0]
        bad = ((defs.C_M, defs.C_S), defs.D_M, 0, frozenset(), -1, 0,
               View(initial_state(2)).net)
        assert not swmr.holds(bad)

    def test_swmr_accepts_multiple_readers(self):
        swmr = msi_invariants()[0]
        good = ((defs.C_S, defs.C_S), defs.D_S, -1, frozenset({0, 1}), -1, 0,
                View(initial_state(2)).net)
        assert swmr.holds(good)

    def test_unexpected_message_detector(self):
        unexpected = msi_invariants()[1]
        view = View(initial_state(2))
        view.send(defs.DATA, 0)  # Data at a cache in I: protocol error
        assert not unexpected.holds(view.freeze())
        view2 = View(initial_state(2))
        view2.caches[0] = defs.C_IS_D
        view2.send(defs.DATA, 0)
        assert unexpected.holds(view2.freeze())

    def test_requests_never_unexpected(self):
        unexpected = msi_invariants()[1]
        view = View(initial_state(2))
        view.send(defs.GETS, 0)
        view.send(defs.GETM, 1)
        assert unexpected.holds(view.freeze())

    def test_dir_bookkeeping(self):
        bookkeeping = msi_invariants()[2]
        view = View(initial_state(2))
        view.dirst = defs.D_M  # owner still -1
        assert not bookkeeping.holds(view.freeze())

    def test_quiescence(self):
        assert msi_quiescent(initial_state(2))
        view = View(initial_state(2))
        view.caches[0] = defs.C_M
        view.dirst = defs.D_M
        view.owner = 0
        assert msi_quiescent(view.freeze())
        view.send(defs.GETS, 1)
        assert not msi_quiescent(view.freeze())

    def test_coverage_list_toggle(self):
        assert len(msi_coverage(True)) == 4
        assert msi_coverage(False) == []

"""Unit tests for the MSI directory controller handlers (in isolation)."""

import pytest

from repro.protocols.dirfamily import initial_state
from repro.protocols.msi import defs
from repro.protocols.msi.defs import View
from repro.protocols.msi.directory import (
    ACK_COUNTING,
    REFERENCE_DIR_COMPLETIONS,
    _putm,
)
from repro.protocols.msi.system import MSI, MSI_EVICTIONS


def fresh_view(n=2, **overrides):
    view = View(initial_state(n))
    for name, value in overrides.items():
        setattr(view, name, value)
    return view


class TestStableHandlers:
    @pytest.fixture
    def table(self):
        return MSI.reference_dir_table()

    def test_gets_in_i_grants_and_shares(self, table):
        view = fresh_view()
        table[(defs.D_I, defs.GETS)](view, 0, None)
        assert view.dirst == defs.D_S
        assert view.sharers == frozenset({0})
        assert (defs.DATA, 0) in view.net

    def test_getm_in_i_serialises_through_im_a(self, table):
        view = fresh_view()
        table[(defs.D_I, defs.GETM)](view, 1, None)
        assert view.dirst == defs.D_IM_A
        assert view.owner == 1
        assert view.req == 1
        assert (defs.DATA, 1) in view.net

    def test_gets_in_s_adds_sharer(self, table):
        view = fresh_view(dirst=defs.D_S, sharers=frozenset({0}))
        table[(defs.D_S, defs.GETS)](view, 1, None)
        assert view.dirst == defs.D_S
        assert view.sharers == frozenset({0, 1})

    def test_getm_in_s_with_other_sharers_invalidates(self, table):
        view = fresh_view(n=3, dirst=defs.D_S, sharers=frozenset({0, 2}))
        table[(defs.D_S, defs.GETM)](view, 0, None)
        assert view.dirst == defs.D_SM_A
        assert view.acks == 1
        assert (defs.INV, 2) in view.net
        assert (defs.INV, 0) not in view.net  # never invalidate the requestor

    def test_getm_in_s_sole_sharer_grants_directly(self, table):
        view = fresh_view(dirst=defs.D_S, sharers=frozenset({1}))
        table[(defs.D_S, defs.GETM)](view, 1, None)
        assert view.dirst == defs.D_IM_A
        assert view.owner == 1
        assert (defs.DATA, 1) in view.net

    def test_gets_in_m_recalls_owner(self, table):
        view = fresh_view(dirst=defs.D_M, owner=0)
        table[(defs.D_M, defs.GETS)](view, 1, None)
        assert view.dirst == defs.D_MS_A
        assert (defs.INV, 0) in view.net
        assert view.acks == 1

    def test_getm_in_m_transfers_ownership_path(self, table):
        view = fresh_view(dirst=defs.D_M, owner=0)
        table[(defs.D_M, defs.GETM)](view, 1, None)
        assert view.dirst == defs.D_MM_A
        assert (defs.INV, 0) in view.net


class TestTransientCompletions:
    def run_completion(self, key, **view_overrides):
        handler = MSI.dir_completion(key, *REFERENCE_DIR_COMPLETIONS[key])
        view = fresh_view(n=3, **view_overrides)
        handler(view, 0, None)
        return view

    def test_sm_a_counts_down_before_completing(self):
        key = (defs.D_SM_A, defs.INVACK)
        view = self.run_completion(key, dirst=defs.D_SM_A, req=1, acks=2)
        assert view.dirst == defs.D_SM_A  # still waiting for one more ack
        assert view.acks == 1
        assert (defs.DATA, 1) not in view.net

    def test_sm_a_last_ack_grants(self):
        key = (defs.D_SM_A, defs.INVACK)
        view = self.run_completion(
            key, dirst=defs.D_SM_A, req=1, acks=1, sharers=frozenset({0, 2})
        )
        assert view.dirst == defs.D_IM_A
        assert view.owner == 1
        assert view.sharers == frozenset()
        assert (defs.DATA, 1) in view.net

    def test_mm_a_transfers_to_requestor(self):
        key = (defs.D_MM_A, defs.INVACK)
        view = self.run_completion(key, dirst=defs.D_MM_A, req=2, acks=1, owner=0)
        assert view.dirst == defs.D_IM_A
        assert view.owner == 2
        assert (defs.DATA, 2) in view.net

    def test_ms_a_downgrades_to_shared(self):
        key = (defs.D_MS_A, defs.INVACK)
        view = self.run_completion(key, dirst=defs.D_MS_A, req=1, acks=1, owner=0)
        assert view.dirst == defs.D_S
        assert view.owner == -1
        assert view.sharers == frozenset({1})
        assert view.req == -1  # stable entry clears pending bookkeeping

    def test_im_a_completion_is_silent(self):
        key = (defs.D_IM_A, defs.DATAACK)
        view = self.run_completion(key, dirst=defs.D_IM_A, req=1, owner=1)
        assert view.dirst == defs.D_M
        assert view.owner == 1
        assert len(view.net) == 0

    def test_ack_counting_set(self):
        assert (defs.D_SM_A, defs.INVACK) in ACK_COUNTING
        assert (defs.D_IM_A, defs.DATAACK) not in ACK_COUNTING


class TestWritebacks:
    def test_owner_putm_returns_line(self):
        view = fresh_view(dirst=defs.D_M, owner=0)
        _putm(view, 0, None)
        assert view.dirst == defs.D_I
        assert view.owner == -1
        assert (defs.PUTACK, 0) in view.net

    def test_non_owner_putm_only_acked(self):
        view = fresh_view(dirst=defs.D_M, owner=1)
        _putm(view, 0, None)
        assert view.dirst == defs.D_M
        assert view.owner == 1
        assert (defs.PUTACK, 0) in view.net

    def test_stale_putm_in_s(self):
        view = fresh_view(dirst=defs.D_S, sharers=frozenset({1}))
        _putm(view, 0, None)
        assert view.dirst == defs.D_S
        assert (defs.PUTACK, 0) in view.net

    def test_eviction_table_contains_putm_entries(self):
        table = MSI_EVICTIONS.reference_dir_table()
        for state in (defs.D_I, defs.D_S, defs.D_M):
            assert (state, defs.PUTM) in table
        base = MSI.reference_dir_table()
        assert (defs.D_I, defs.PUTM) not in base

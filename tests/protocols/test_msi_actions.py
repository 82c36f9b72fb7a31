"""Unit tests for the MSI action library (each action in isolation)."""

import pytest

from repro.protocols.dirfamily import initial_state
from repro.protocols.msi import defs
from repro.protocols.msi.actions import (
    cache_next_domain,
    cache_response_domain,
    dir_next_domain,
    dir_response_domain,
    dir_track_domain,
)
from repro.protocols.msi.defs import View
from repro.protocols.msi.system import MSI


def fresh_view(n=2, **overrides):
    view = View(initial_state(n))
    for name, value in overrides.items():
        setattr(view, name, value)
    return view


class TestDomainShapes:
    """The paper's per-hole domain sizes (the Table I arithmetic)."""

    def test_cache_response_is_3(self):
        assert len(cache_response_domain()) == 3

    def test_cache_next_is_7(self):
        assert len(cache_next_domain()) == 7

    def test_dir_response_is_5(self):
        assert len(dir_response_domain()) == 5

    def test_dir_next_is_7(self):
        assert len(dir_next_domain()) == 7

    def test_dir_track_is_3(self):
        assert len(dir_track_domain()) == 3

    def test_dir_rule_combo_count(self):
        assert (
            len(dir_response_domain())
            * len(dir_next_domain())
            * len(dir_track_domain())
            == 105
        )

    def test_cache_rule_combo_count(self):
        assert len(cache_response_domain()) * len(cache_next_domain()) == 21

    def test_next_payloads_are_state_codes(self):
        for code, action in enumerate(cache_next_domain()):
            assert action.payload == code
        for code, action in enumerate(dir_next_domain()):
            assert action.payload == code


class TestCacheResponses:
    def get(self, name):
        return {a.name: a for a in cache_response_domain()}[name]

    def test_none_sends_nothing(self):
        view = fresh_view()
        self.get("none").fn(view, 0)
        assert len(view.freeze()[6]) == 0

    def test_send_invack(self):
        view = fresh_view()
        self.get("send_invack").fn(view, 1)
        assert (defs.INVACK, 1) in view.freeze()[6]

    def test_send_dataack(self):
        view = fresh_view()
        self.get("send_dataack").fn(view, 0)
        assert (defs.DATAACK, 0) in view.freeze()[6]


class TestDirResponses:
    def get(self, name):
        return {a.name: a for a in dir_response_domain()}[name]

    def test_send_data_to_requestor(self):
        view = fresh_view(req=1)
        self.get("send_data").fn(view, 0)
        assert (defs.DATA, 1) in view.freeze()[6]

    def test_send_data_without_requestor_is_noop(self):
        view = fresh_view(req=-1)
        self.get("send_data").fn(view, 0)
        assert len(view.freeze()[6]) == 0

    def test_send_inv_sharers_excludes_requestor_and_counts_acks(self):
        view = fresh_view(n=3, sharers=frozenset({0, 1, 2}), req=1)
        self.get("send_inv_sharers").fn(view, 1)
        net = view.freeze()[6]
        assert (defs.INV, 0) in net and (defs.INV, 2) in net
        assert (defs.INV, 1) not in net
        assert view.acks == 2

    def test_send_inv_sharers_empty_is_noop(self):
        view = fresh_view(sharers=frozenset(), req=0)
        self.get("send_inv_sharers").fn(view, 0)
        assert len(view.freeze()[6]) == 0
        assert view.acks == 0

    def test_send_inv_owner(self):
        view = fresh_view(owner=1)
        self.get("send_inv_owner").fn(view, 0)
        assert (defs.INV, 1) in view.freeze()[6]
        assert view.acks == 1

    def test_send_inv_owner_without_owner_is_noop(self):
        view = fresh_view(owner=-1)
        self.get("send_inv_owner").fn(view, 0)
        assert len(view.freeze()[6]) == 0

    def test_send_data_sharers_broadcasts(self):
        view = fresh_view(n=3, sharers=frozenset({0, 2}))
        self.get("send_data_sharers").fn(view, 0)
        net = view.freeze()[6]
        assert (defs.DATA, 0) in net and (defs.DATA, 2) in net


class TestTrackActions:
    def get(self, name):
        return {a.name: a for a in dir_track_domain()}[name]

    def test_owner_is_req(self):
        view = fresh_view(req=1, sharers=frozenset({0, 1}))
        self.get("owner_is_req").fn(view, 0)
        assert view.owner == 1
        assert view.sharers == frozenset()

    def test_owner_is_req_without_req_is_noop(self):
        view = fresh_view(req=-1, owner=0)
        self.get("owner_is_req").fn(view, 0)
        assert view.owner == 0

    def test_add_req_sharer(self):
        view = fresh_view(req=1, owner=0, sharers=frozenset({0}))
        self.get("add_req_sharer").fn(view, 0)
        assert view.sharers == frozenset({0, 1})
        assert view.owner == -1

    def test_none_keeps_everything(self):
        view = fresh_view(req=1, owner=0, sharers=frozenset({0}))
        self.get("none").fn(view, 0)
        assert (view.owner, view.sharers) == (0, frozenset({0}))


class TestNextStateApplication:
    def test_cache_next(self):
        view = fresh_view()
        MSI.cache_completion("none", "goto_M")(view, 1, None)
        assert view.caches == [defs.C_I, defs.C_M]

    def test_dir_next_to_transient_keeps_bookkeeping(self):
        view = fresh_view(req=1, acks=2)
        view.goto_dir(defs.D_SM_A)
        assert (view.req, view.acks) == (1, 2)

    @pytest.mark.parametrize("stable", [defs.D_I, defs.D_S, defs.D_M])
    def test_dir_next_to_stable_clears_pending(self, stable):
        view = fresh_view(req=1, acks=2)
        view.goto_dir(stable)
        assert (view.req, view.acks) == (-1, 0)


class TestHoleGroups:
    def holes(self, cache_rules=(), dir_rules=()):
        return MSI.skeleton(cache_rules, dir_rules, n_caches=2, name="holes")[1]

    def test_cache_holes_naming(self):
        holes = self.holes(cache_rules=((defs.C_IM_D, defs.DATA),))
        assert [h.name for h in holes] == [
            "cache.IM_D+Data.response", "cache.IM_D+Data.next",
        ]
        assert [h.arity for h in holes] == [3, 7]

    def test_dir_holes_naming(self):
        holes = self.holes(dir_rules=((defs.D_IM_A, defs.DATAACK),))
        assert [h.name.split(".")[-1] for h in holes] == [
            "response", "next", "track",
        ]
        assert [h.arity for h in holes] == [5, 7, 3]

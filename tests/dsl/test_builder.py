"""Tests for the declarative protocol builder."""

import pytest

from repro.dsl.builder import (
    GLOBAL,
    ControllerSpec,
    ProtocolBuilder,
    StateView,
    local_matches,
)
from repro.dsl.network import Message, UnorderedNetwork
from repro.dsl.process import ProcessArray
from repro.errors import ModelError
from repro.mc.kernel import ExplorationKernel
from repro.mc.properties import DeadlockPolicy
from repro.mc.result import Verdict

from tests.bfs_oracle import visited_representatives


def ping_pong_builder(n_procs=2):
    """Each process pings the server; the server pongs back."""
    client = ControllerSpec("client")

    def send_ping(view, proc, ctx, message):
        view.send("Ping", proc, GLOBAL)
        view.become(proc, "waiting")

    def got_pong(view, proc, ctx, message):
        view.become(proc, "done")

    client.on("idle", "go", send_ping, spontaneous=True)
    client.on("waiting", "Pong", got_pong)

    server = ControllerSpec("server", replicated=False)

    def on_ping(view, proc, ctx, message):
        view.send("Pong", GLOBAL, message.src)
        view.glob = view.glob + 1

    server.on(lambda count: True, "Ping", on_ping)

    builder = ProtocolBuilder(
        "pingpong", n_procs, initial_local="idle", initial_global=0
    )
    builder.add_controller(client)
    builder.add_controller(server)
    builder.set_deadlock_policy(
        DeadlockPolicy.fail(quiescent=lambda s: all(p == "done" for p in s[0]))
    )
    return builder


class TestBuilder:
    def test_builds_and_verifies(self):
        result = ExplorationKernel(ping_pong_builder().build()).run()
        assert result.verdict is Verdict.SUCCESS

    def test_coverage_and_invariants_wired(self):
        builder = ping_pong_builder()
        builder.add_invariant("server-counts", lambda s: s[1] <= 2)
        builder.add_coverage("someone-done", lambda s: "done" in list(s[0]))
        result = ExplorationKernel(builder.build()).run()
        assert result.verdict is Verdict.SUCCESS

    def test_invariant_violation_detected(self):
        builder = ping_pong_builder()
        builder.add_invariant("server-never-counts", lambda s: s[1] == 0)
        result = ExplorationKernel(builder.build()).run()
        assert result.verdict is Verdict.FAILURE

    def test_symmetry_reduction_active(self):
        reduced = ExplorationKernel(ping_pong_builder(3).build()).run()
        builder = ping_pong_builder(3)
        builder.symmetry = False
        full = ExplorationKernel(builder.build()).run()
        assert reduced.stats.states_visited < full.stats.states_visited

    def test_requires_controllers(self):
        with pytest.raises(ModelError):
            ProtocolBuilder("empty", 1, initial_local="x").build()

    def test_duplicate_transition_rejected(self):
        spec = ControllerSpec("c")
        spec.on("a", "e", lambda *a: None)
        with pytest.raises(ModelError):
            spec.on("a", "e", lambda *a: None)

    def test_message_guard_filters(self):
        client = ControllerSpec("client")

        def recv(view, proc, ctx, message):
            view.become(proc, "got")

        client.on(
            "idle",
            "M",
            recv,
            message_guard=lambda state, message: message.payload == "yes",
        )
        builder = ProtocolBuilder("guarded", 1, initial_local="idle")
        builder.add_controller(client)
        builder.set_deadlock_policy(DeadlockPolicy.allow())
        system = builder.build()
        # Seed the network manually with both messages.
        (procs, glob, net) = system.initial_states()[0]
        net = net.send(Message("M", GLOBAL, 0, "no")).send(
            Message("M", GLOBAL, 0, "yes")
        )
        system._initial_states = [(procs, glob, net)]
        explorer = ExplorationKernel(system)
        result = explorer.run()
        assert result.verdict is Verdict.SUCCESS
        states = {tuple(state[0]) for state in visited_representatives(explorer)}
        assert ("got",) in states


class TestStateView:
    def test_view_mutations(self):
        state = (ProcessArray(("a", "b")), 0, UnorderedNetwork())
        view = StateView(state)
        view.become(1, "c")
        view.send("M", 0, 1)
        procs, glob, net = view.freeze()
        assert list(procs) == ["a", "c"]
        assert Message("M", 0, 1) in net
        # original untouched
        assert list(state[0]) == ["a", "b"]


class TestLocalMatches:
    def test_equality_pattern(self):
        assert local_matches("I", "I")
        assert not local_matches("I", "V")

    def test_callable_pattern(self):
        assert local_matches(5, lambda s: s > 3)
        assert not local_matches(2, lambda s: s > 3)

"""Tests for the random-walk helper in tests/simulate.py."""

from repro.mc.properties import Invariant
from repro.mc.rule import Rule
from repro.mc.system import TransitionSystem
from tests.simulate import simulate


def chain_system(invariants=()):
    return TransitionSystem(
        name="chain",
        initial_states=[0],
        rules=[
            Rule("inc", guard=lambda s: s < 3, apply=lambda s, ctx: [s + 1]),
        ],
        invariants=invariants,
    )


def test_simulation_reaches_deadlock():
    result = simulate(chain_system(), max_steps=10, seed=1)
    assert result.deadlocked
    assert result.trace.final_state == 3


def test_simulation_detects_violation():
    system = chain_system(invariants=[Invariant("lt2", lambda s: s < 2)])
    result = simulate(system, max_steps=10, seed=1)
    assert result.violated_invariant == "lt2"
    assert result.trace.final_state == 2


def test_simulation_respects_step_limit():
    system = TransitionSystem(
        name="loop",
        initial_states=[0],
        rules=[Rule("flip", guard=lambda s: True, apply=lambda s, ctx: [1 - s])],
    )
    result = simulate(system, max_steps=7, seed=3)
    assert result.steps_taken == 7
    assert not result.deadlocked


def test_simulation_deterministic_with_seed():
    first = simulate(chain_system(), max_steps=10, seed=42)
    second = simulate(chain_system(), max_steps=10, seed=42)
    assert [s.state for s in first.trace] == [s.state for s in second.trace]


def test_initial_state_violation():
    system = TransitionSystem(
        name="bad",
        initial_states=[5],
        rules=[Rule("noop", guard=lambda s: True, apply=lambda s, ctx: [s])],
        invariants=[Invariant("ne5", lambda s: s != 5)],
    )
    result = simulate(system, seed=0)
    assert result.violated_invariant == "ne5"
    assert result.steps_taken == 0

"""The worked example of the paper's Figure 2.

A linear chain of decision states; at each, a hole picks the action that
determines the next state.  The action ranges are ``[A, B]`` with hole 1
additionally offering ``C`` — so naive enumeration evaluates
``3 * 2 * 2 * 2 = 24`` candidates while the pruning procedure needs
exactly 10 model-checker runs (runs 1-10 of Figure 2).

The transition structure encodes Figure 2's run table:

* hole 1 (at ``s0``): ``A`` -> error, ``B`` -> ``s2``, ``C`` -> error;
* hole 2 (at ``s2``): ``A`` -> ``s3``, ``B`` -> error;
* hole 3 (at ``s3``): ``A`` -> error, ``B`` -> ``s4``;
* hole 4 (at ``s4``): ``A`` -> error, ``B`` -> ``ok``.

``ok`` is quiescent; reaching ``err`` violates the safety invariant.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.action import Action
from repro.core.hole import Hole
from repro.mc.properties import DeadlockPolicy, Invariant
from repro.mc.rule import Rule
from repro.mc.system import TransitionSystem

#: next-state table: TRANSITIONS[state][action_name] -> next state
TRANSITIONS: Dict[str, Dict[str, str]] = {
    "s0": {"A": "err", "B": "s2", "C": "err"},
    "s2": {"A": "s3", "B": "err"},
    "s3": {"A": "err", "B": "s4"},
    "s4": {"A": "err", "B": "ok"},
}

#: discovery order of the decision states (hole 1 first)
DECISION_STATES: Tuple[str, ...] = ("s0", "s2", "s3", "s4")


def build_figure2_holes() -> List[Hole]:
    """The four holes with the action domains of Figure 2."""
    act_a = Action("A", payload="A")
    act_b = Action("B", payload="B")
    act_c = Action("C", payload="C")
    return [
        Hole("hole1", [act_a, act_b, act_c]),
        Hole("hole2", [act_a, act_b]),
        Hole("hole3", [act_a, act_b]),
        Hole("hole4", [act_a, act_b]),
    ]


def build_figure2_skeleton_with_holes() -> Tuple[TransitionSystem, List[Hole]]:
    """The Figure 2 toy skeleton plus the hole objects embedded in it."""
    holes = build_figure2_holes()
    hole_for = dict(zip(DECISION_STATES, holes))

    def make_rule(state_name: str) -> Rule:
        hole = hole_for[state_name]

        def apply(state: str, ctx, _name: str = state_name, _hole: Hole = hole):
            chosen = ctx.resolve(_hole)
            return [TRANSITIONS[_name][chosen.payload]]

        return Rule(
            name=f"step_{state_name}",
            guard=lambda state, _name=state_name: state == _name,
            apply=apply,
        )

    system = TransitionSystem(
        name="figure2-toy",
        initial_states=["s0"],
        rules=[make_rule(name) for name in DECISION_STATES],
        invariants=[Invariant("no-error", lambda state: state != "err")],
        deadlock=DeadlockPolicy.fail(quiescent=lambda state: state == "ok"),
    )
    return system, holes


def build_figure2_skeleton() -> TransitionSystem:
    """The Figure 2 toy skeleton, ready for a synthesis engine."""
    return build_figure2_skeleton_with_holes()[0]


def build_figure2_solution() -> Dict[str, str]:
    """The unique correct assignment (run 10 of Figure 2)."""
    return {"hole1": "B", "hole2": "A", "hole3": "B", "hole4": "B"}

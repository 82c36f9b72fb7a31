"""Error traces.

A trace is the sequence of states from an initial state to the state where
a property was violated, each step labelled with the rule that produced it.
The exploration kernel's breadth-first order makes traces minimal — no
shorter sequence of transitions reaches the violation (paper, Section II,
footnote 1: minimality makes pruning effective, since a short trace
touches few holes).  Through the inherited parent edges of a
prefix-resumed run, traces are valid but not necessarily depth-minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TraceStep:
    """One step of a trace: the rule fired and the state it produced.

    ``rule_name`` is ``None`` for the initial state.
    """

    rule_name: Optional[str]
    state: Any


class Trace:
    """An immutable sequence of :class:`TraceStep`, initial state first."""

    __slots__ = ("_steps",)

    def __init__(self, steps: Sequence[TraceStep]) -> None:
        if not steps:
            raise ValueError("a trace must contain at least the initial state")
        if steps[0].rule_name is not None:
            raise ValueError("the first trace step must be an initial state")
        self._steps: Tuple[TraceStep, ...] = tuple(steps)

    @property
    def steps(self) -> Tuple[TraceStep, ...]:
        """The trace steps, initial state first."""
        return self._steps

    @property
    def initial_state(self) -> Any:
        """The state the trace starts from."""
        return self._steps[0].state

    @property
    def final_state(self) -> Any:
        """The state the trace ends in (the violating one)."""
        return self._steps[-1].state

    @property
    def rule_names(self) -> List[str]:
        """Names of fired rules, in order (excludes the initial pseudo-step)."""
        return [step.rule_name for step in self._steps[1:]]

    def __len__(self) -> int:
        """Number of transitions (not states)."""
        return len(self._steps) - 1

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self._steps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._steps == other._steps

    def __hash__(self) -> int:
        return hash(self._steps)

    def format(self, state_formatter=repr) -> str:
        """Render the trace as numbered lines, one state per step."""
        lines = []
        for index, step in enumerate(self._steps):
            label = step.rule_name if step.rule_name is not None else "<initial>"
            lines.append(f"{index:3d}  {label}")
            lines.append(f"     {state_formatter(step.state)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Trace(len={len(self)}, rules={self.rule_names})"

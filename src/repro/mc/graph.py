"""Optional capture of the explored state graph.

Pass a :class:`StateGraph` as ``capture_graph`` to
:class:`~repro.mc.kernel.ExplorationKernel` to record every visited state
and transition.  Used by the Figure 2 walkthrough example and by debugging
workflows (GraphViz export).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple


@dataclass
class StateGraph:
    """The explored portion of a state graph."""

    states: Dict[int, Any] = field(default_factory=dict)
    depths: Dict[int, int] = field(default_factory=dict)
    edges: Set[Tuple[int, int, str]] = field(default_factory=set)

    def add_state(self, sid: int, state: Any, depth: int) -> None:
        """Record a visited state under its node id, with its depth."""
        self.states[sid] = state
        self.depths[sid] = depth

    def add_edge(self, src: int, dst: int, rule_name: str) -> None:
        """Record one transition between two interned states."""
        self.edges.add((src, dst, rule_name))

    @property
    def num_states(self) -> int:
        """Number of interned states."""
        return len(self.states)

    @property
    def num_edges(self) -> int:
        """Number of recorded transitions."""
        return len(self.edges)

    def successors(self, sid: int) -> List[Tuple[int, str]]:
        """Sorted ``(dst, rule_name)`` pairs of edges leaving ``sid``."""
        return sorted(
            (dst, rule) for (src, dst, rule) in self.edges if src == sid
        )

    def to_dot(self, state_label=repr) -> str:
        """Render as a GraphViz ``digraph`` document."""
        lines = ["digraph explored {", "  rankdir=LR;"]
        for sid in sorted(self.states):
            label = state_label(self.states[sid]).replace('"', r"\"")
            lines.append(f'  s{sid} [label="{label}"];')
        for src, dst, rule in sorted(self.edges):
            rule_label = rule.replace('"', r"\"")
            lines.append(f'  s{src} -> s{dst} [label="{rule_label}"];')
        lines.append("}")
        return "\n".join(lines)

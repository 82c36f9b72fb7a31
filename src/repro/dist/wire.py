"""Packed wire forms for candidate/verdict traffic.

Everything the coordinator and workers exchange per batch is reduced to
integers, strings, and tuples of them — no engine objects cross the
process boundary:

* pruning patterns already travel as ``((position, action_index), ...)``
  constraint tuples;
* solutions travel as :class:`WireSolution` — hole-digit tuples plus the
  scalar counters; the coordinator re-derives the human-readable
  assignment from its canonical hole snapshot at the pass boundary
  instead of shipping redundant name pairs with every solution.

Keeping the wire layer this flat is what lets the work-stealing shared
task queue stay cheap: a :class:`~repro.dist.messages.BatchTask` pickles
to a handful of small machine types regardless of protocol size.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from repro.core.hole import Hole
from repro.core.report import Solution


class WireSolution(NamedTuple):
    """A solution as pure machine types: digits + counters, no names.

    ``run_index`` stays 1-based within the producing batch (the
    coordinator rebases it while merging in batch order, exactly as it
    does for full :class:`~repro.core.report.Solution` objects).
    """

    digits: Tuple[int, ...]
    states_visited: int
    fingerprint: Optional[int]
    run_index: int
    executed_holes: Tuple[str, ...]

    @classmethod
    def from_solution(cls, solution: Solution, run_index: Optional[int] = None) -> "WireSolution":
        """Strip a solution down to its wire form."""
        return cls(
            digits=solution.digits,
            states_visited=solution.states_visited,
            fingerprint=solution.fingerprint,
            run_index=run_index if run_index is not None else solution.run_index,
            executed_holes=solution.executed_holes,
        )

    def to_solution(self, holes: Sequence[Hole], run_index: Optional[int] = None) -> Solution:
        """Rebuild the full solution against a canonical hole snapshot.

        The assignment's names come from ``holes`` — the coordinator's
        pass snapshot, whose order and action names match the worker's
        by construction (:class:`~repro.dist.worker.WorkerHoleRegistry`).
        """
        return Solution(
            digits=self.digits,
            assignment=tuple(
                (holes[pos].name, holes[pos].domain[action].name)
                for pos, action in enumerate(self.digits)
            ),
            states_visited=self.states_visited,
            fingerprint=self.fingerprint,
            run_index=run_index if run_index is not None else self.run_index,
            executed_holes=self.executed_holes,
        )

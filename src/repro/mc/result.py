"""Verification verdicts, failure kinds, and run statistics.

The paper's model checker returns one of three results: "success",
"failure", or "unknown" (Section II).  UNKNOWN arises when wildcard holes
were encountered but no failure was found — the candidate's behaviour beyond
the wildcard frontier is undetermined.  We add an explicit *failure kind* so
the synthesis layer can decide whether a failure yields a sound pruning
pattern (see :mod:`repro.core.pruning`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional, Tuple

from repro.mc.trace import Trace


class Verdict(enum.Enum):
    """Three-valued outcome of a model-checker run."""

    SUCCESS = "success"
    FAILURE = "failure"
    UNKNOWN = "unknown"


class FailureKind(enum.Enum):
    """Why a run failed.

    INVARIANT and DEADLOCK failures come with a minimal trace and are always
    sound pruning patterns.  COVERAGE failures (an "all stable states must be
    visited" style property was never satisfied) are only reported as
    failures when the exploration was complete and wildcard-free; otherwise
    the verdict is UNKNOWN.
    """

    INVARIANT = "invariant"
    DEADLOCK = "deadlock"
    COVERAGE = "coverage"


@dataclass(frozen=True)
class RunStats:
    """Statistics of one exploration.

    ``prefix_states_reused`` counts the states this run inherited from a
    prefix-exploration checkpoint instead of re-exploring (0 for cold
    runs; see :class:`~repro.mc.kernel.ExplorationCheckpoint`).  They are
    included in ``states_visited``, which therefore matches a from-scratch
    run of the same candidate, and so does ``transitions_fired`` on a
    complete run: a resumed run re-fires only the rules that were cut.
    ``rules_attempted`` and ``wildcard_cuts`` count those re-tried cut
    rules a second time.
    """

    states_visited: int = 0
    transitions_fired: int = 0
    rules_attempted: int = 0
    wildcard_cuts: int = 0
    max_depth: int = 0
    truncated: bool = False
    prefix_states_reused: int = 0


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one model-checker run.

    Attributes:
        verdict: SUCCESS, FAILURE, or UNKNOWN.
        failure_kind: populated iff verdict is FAILURE.
        message: human-readable explanation (property name, etc.).
        trace: minimal error trace for INVARIANT/DEADLOCK failures.
        stats: exploration statistics.
        wildcard_encountered: whether any wildcard cut occurred.
        executed_holes: all holes resolved (non-wildcard) during the run.
        executed_mask: the same holes as a mask over the resolver's
            positions (see :mod:`repro.mc.context`).
        failure_holes: holes relevant to the failure — for INVARIANT and
            DEADLOCK, those executed on the minimal error path (plus, for
            deadlocks, during firings attempted at the final state); for
            COVERAGE, every hole executed in the run.  Populated on every
            kernel FAILURE (a verdict-store replay carries its
            ``stored_pattern`` instead).
        failure_mask: the same holes as a position mask; conflict
            generalisation reads it.
        unmet_coverage: names of coverage properties never satisfied.
        stored_pattern: the generalised failure pattern already computed
            for this run — either replayed from the verdict store or
            computed once when recording to it.  ``None`` means "not
            precomputed" (compute as usual); a tuple (possibly empty)
            short-circuits pattern generalisation so store hits never
            re-run counterexample replay.
    """

    verdict: Verdict
    failure_kind: Optional[FailureKind] = None
    message: str = ""
    trace: Optional[Trace] = None
    stats: RunStats = field(default_factory=RunStats)
    wildcard_encountered: bool = False
    executed_holes: FrozenSet[Any] = frozenset()
    executed_mask: int = 0
    failure_holes: Optional[FrozenSet[Any]] = None
    failure_mask: Optional[int] = None
    unmet_coverage: Tuple[str, ...] = ()
    stored_pattern: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def is_success(self) -> bool:
        """Whether the verdict is SUCCESS."""
        return self.verdict is Verdict.SUCCESS

    @property
    def is_failure(self) -> bool:
        """Whether the verdict is FAILURE."""
        return self.verdict is Verdict.FAILURE

    @property
    def is_unknown(self) -> bool:
        """Whether the verdict is UNKNOWN."""
        return self.verdict is Verdict.UNKNOWN

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [self.verdict.value]
        if self.failure_kind is not None:
            parts.append(self.failure_kind.value)
        if self.message:
            parts.append(self.message)
        parts.append(f"states={self.stats.states_visited}")
        if self.wildcard_encountered:
            parts.append("wildcards=yes")
        return " | ".join(parts)

"""Synthesis results and reporting.

:class:`SynthesisReport` carries everything Table I of the paper reports for
one configuration — holes, candidate-space sizes, pruning-pattern count,
evaluated candidates, solutions, execution time — plus the extra counters a
downstream user needs to understand a run (verdict breakdown, passes,
skip attribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.candidate import CandidateVector, format_candidate
from repro.core.hole import Hole


@dataclass(frozen=True)
class Solution:
    """One correct candidate configuration.

    Attributes:
        digits: the action index per hole (discovery order) at the time the
            solution was verified; holes discovered later are don't-cares
            (provably unreachable under this configuration).
        assignment: hole name → action name, for human consumption.
        executed_holes: names of the holes actually resolved during the
            verifying run.  Assigned-but-unexecuted holes are don't-cares;
            in naive (no-pruning) mode, executed holes beyond ``digits``
            took their default action.
        states_visited: size of the explored (symmetry-reduced) state space;
            the paper reports 5207/6025/6332 for its MSI solution groups.
        fingerprint: order-independent fingerprint of the visited state set
            (None unless fingerprints were enabled); equal fingerprints mean
            behaviourally identical solutions.
        run_index: which model-checker run found it (1-based, counting only
            dispatched runs, as in Figure 2).
    """

    digits: Tuple[int, ...]
    assignment: Tuple[Tuple[str, str], ...]
    states_visited: int
    fingerprint: Optional[int]
    run_index: int
    executed_holes: Tuple[str, ...] = ()

    def assignment_dict(self) -> Dict[str, str]:
        """The assignment as a hole-name -> action-name dict."""
        return dict(self.assignment)

    def __str__(self) -> str:
        inner = ", ".join(f"{hole}={action}" for hole, action in self.assignment)
        return f"Solution({inner})"


@dataclass
class SynthesisReport:
    """Aggregate outcome of one synthesis run."""

    system_name: str
    pruning: bool
    threads: int
    #: evaluation backend that produced this report; ``threads`` (named
    #: after the paper's Table I column) is its worker count: 1 for
    #: ``sequential``, the worker-process count for ``processes``.
    backend: str = "sequential"
    holes: List[Hole] = field(default_factory=list)
    passes: int = 0
    evaluated: int = 0
    pruned_failure: int = 0
    skipped_success: int = 0
    deduplicated: int = 0
    covered: int = 0
    verdict_counts: Dict[str, int] = field(default_factory=dict)
    failure_patterns: int = 0
    success_patterns: int = 0
    solutions: List[Solution] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: prefix exploration cache (see repro.core.engine.PrefixCache):
    #: candidate runs resumed / checkpoint builds / states inherited
    prefix_cache_hits: int = 0
    prefix_cache_builds: int = 0
    prefix_states_reused: int = 0
    #: largest visited-state count of any single candidate run — the
    #: run's memory high-water mark (surfaced in the matrix journal)
    peak_states: int = 0
    #: durable verdict store (see repro.store): whether one was attached,
    #: its directory, evaluations replayed from it, and runs appended to
    #: it; ``evaluated - store_hits`` is the run's true model-check count
    store_enabled: bool = False
    store_path: Optional[str] = None
    store_hits: int = 0
    store_writes: int = 0
    #: observability layer (see repro.obs): whether telemetry ran, where
    #: the trace landed (None = no trace file), events emitted so far
    telemetry_enabled: bool = False
    trace_path: Optional[str] = None
    trace_events: int = 0
    inherent_failure: bool = False
    inherent_failure_message: str = ""
    stopped_early: bool = False

    @property
    def hole_count(self) -> int:
        """Number of holes discovered."""
        return len(self.holes)

    @property
    def naive_candidate_space(self) -> int:
        """Size of the fully-assigned candidate space: prod(|domain|)."""
        size = 1
        for hole in self.holes:
            size *= hole.arity
        return size

    @property
    def wildcard_candidate_space(self) -> int:
        """Candidate space including wildcards: prod(|domain| + 1).

        This is the "Candidates" column Table I reports for the pruning
        configurations.
        """
        size = 1
        for hole in self.holes:
            size *= hole.arity + 1
        return size

    @property
    def candidate_space(self) -> int:
        """The space the paper's "Candidates" column reports for this mode."""
        return self.wildcard_candidate_space if self.pruning else self.naive_candidate_space

    @property
    def model_checks(self) -> int:
        """Model-checker runs actually performed (evaluated minus store hits)."""
        return self.evaluated - self.store_hits

    @property
    def reduction_vs_naive(self) -> float:
        """Fraction of the naive space *not* evaluated (paper: 99.6%/99.8%)."""
        naive = self.naive_candidate_space
        if naive == 0:
            return 0.0
        return 1.0 - (self.evaluated / naive)

    def format_solution(self, solution: Solution) -> str:
        """Render one solution in the candidate notation."""
        vector = CandidateVector.from_digits(solution.digits)
        return format_candidate(vector, self.holes)

    def table_row(self, configuration: str) -> Dict[str, object]:
        """One row of Table I."""
        return {
            "Configuration": configuration,
            "Holes": self.hole_count,
            "Candidates": self.candidate_space,
            "Pruning Patterns": self.failure_patterns if self.pruning else None,
            "Evaluated": self.evaluated,
            "Solutions": len(self.solutions),
            "Exec. Time": self.elapsed_seconds,
        }

    def summary(self) -> str:
        """Multi-line human-readable report summary."""
        lines = [
            f"system:            {self.system_name}",
            f"mode:              {'pruning' if self.pruning else 'naive'}"
            f", {self.backend} backend, {self.threads} worker(s)",
            f"holes discovered:  {self.hole_count}"
            f" ({', '.join(h.name for h in self.holes)})",
            f"candidate space:   {self.naive_candidate_space:,}"
            f" (with wildcards: {self.wildcard_candidate_space:,})",
            f"passes:            {self.passes}",
            f"evaluated:         {self.evaluated:,}",
            f"pruned (failure):  {self.pruned_failure:,}",
            f"skipped (success): {self.skipped_success:,}",
            f"deduplicated:      {self.deduplicated:,}",
            f"failure patterns:  {self.failure_patterns:,}",
            f"success patterns:  {self.success_patterns:,}",
            f"verdicts:          {self.verdict_counts}",
            f"solutions:         {len(self.solutions)}",
            f"elapsed:           {self.elapsed_seconds:.3f}s",
        ]
        if self.store_enabled:
            lines.insert(
                -1,
                f"verdict store:     {self.store_hits:,} replayed, "
                f"{self.store_writes:,} recorded "
                f"({self.model_checks:,} model checks performed)",
            )
        if self.prefix_cache_hits or self.prefix_cache_builds:
            lines.insert(
                -1,
                f"prefix cache:      {self.prefix_cache_hits:,} resumed runs, "
                f"{self.prefix_states_reused:,} states reused "
                f"({self.prefix_cache_builds:,} checkpoint builds)",
            )
        if self.telemetry_enabled:
            where = (
                f"trace {self.trace_path} ({self.trace_events:,} events)"
                if self.trace_path
                else f"{self.trace_events:,} events (no trace file)"
            )
            lines.insert(
                -1,
                f"telemetry:         {where}, "
                f"peak states {self.peak_states:,}",
            )
        if self.inherent_failure:
            lines.append(f"INHERENT FAILURE:  {self.inherent_failure_message}")
        for solution in self.solutions:
            lines.append(f"  {self.format_solution(solution)}")
        return "\n".join(lines)

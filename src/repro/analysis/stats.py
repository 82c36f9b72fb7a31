"""Cross-run comparisons (speedups, reductions).

Computes the derived quantities the paper reports in Section III: the
percentage reduction in evaluated candidates and the effective speedup of
pruning over the naive enumeration, and the parallel speedup of a
multi-worker run.  :func:`pattern_economy` adds the metric the
conflict-generalisation extension moves: candidates pruned per recorded
failure pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.report import SynthesisReport


@dataclass(frozen=True)
class RunComparison:
    """Derived metrics comparing an optimised run against a baseline."""

    baseline_evaluated: int
    optimised_evaluated: int
    baseline_seconds: float
    optimised_seconds: float
    baseline_estimated: bool = False

    @property
    def evaluated_reduction(self) -> float:
        """Fraction of baseline evaluations avoided (paper: 99.6% / 99.8%)."""
        if self.baseline_evaluated == 0:
            return 0.0
        return 1.0 - self.optimised_evaluated / self.baseline_evaluated

    @property
    def speedup(self) -> float:
        """Wall-clock speedup (paper: 35.8x / 42.7x for pruning)."""
        if self.optimised_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.optimised_seconds

    def summary(self) -> str:
        tag = " (baseline estimated)" if self.baseline_estimated else ""
        return (
            f"evaluated {self.baseline_evaluated:,} -> {self.optimised_evaluated:,} "
            f"({self.evaluated_reduction:.1%} reduction); "
            f"time {self.baseline_seconds:.2f}s -> {self.optimised_seconds:.2f}s "
            f"({self.speedup:.1f}x speedup){tag}"
        )


def compare_reports(
    baseline: SynthesisReport,
    optimised: SynthesisReport,
    baseline_seconds: Optional[float] = None,
    baseline_estimated: bool = False,
) -> RunComparison:
    """Compare two synthesis reports (e.g. naive vs pruning)."""
    return RunComparison(
        baseline_evaluated=baseline.evaluated,
        optimised_evaluated=optimised.evaluated,
        baseline_seconds=(
            baseline.elapsed_seconds if baseline_seconds is None else baseline_seconds
        ),
        optimised_seconds=optimised.elapsed_seconds,
        baseline_estimated=baseline_estimated,
    )


def pattern_economy(report: SynthesisReport) -> float:
    """Candidates pruned per recorded failure pattern.

    The yield of the pattern table: how much of the candidate space each
    failure "bought".  Conflict-generalised patterns constrain only the
    holes the failure executed and cut whole subtrees, where the paper's
    full-width patterns would mostly prune their own near-duplicates.
    0.0 when no patterns were recorded (naive mode, or no failures).
    """
    if report.failure_patterns == 0:
        return 0.0
    return report.pruned_failure / report.failure_patterns


def estimate_naive_seconds(
    naive_candidates: int, sampled_runs: int, sampled_seconds: float
) -> float:
    """Extrapolate the naive wall-clock from a sample of candidate checks.

    Used when the naive baseline is infeasible to run in full (MSI-large's
    102M candidates; see docs/architecture.md, "Departures from the
    paper", item 2).
    """
    if sampled_runs <= 0:
        raise ValueError("sampled_runs must be positive")
    return naive_candidates * (sampled_seconds / sampled_runs)


def sample_candidate_cost(skeleton, samples: int = 25, seed: int = 0) -> dict:
    """Estimate the mean cost of model checking one fully-assigned candidate.

    Draws uniform random assignments over the skeleton's holes and times a
    full verification of each; feed the mean into
    :func:`estimate_naive_seconds` to extrapolate an infeasible naive
    baseline.  ``skeleton`` needs ``.holes`` and ``.system`` attributes
    (e.g. :class:`repro.protocols.msi.skeleton.Skeleton`).
    """
    import random
    import time

    from repro.mc.context import FixedResolver
    from repro.mc.kernel import ExplorationKernel

    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = random.Random(seed)
    total = 0.0
    for _ in range(samples):
        assignment = {
            hole: hole.domain[rng.randrange(hole.arity)] for hole in skeleton.holes
        }
        start = time.perf_counter()
        ExplorationKernel(
            skeleton.system, resolver=FixedResolver(assignment)
        ).run()
        total += time.perf_counter() - start
    return {"samples": samples, "mean_seconds": total / samples}

"""Equivalence suite for conflict generalisation + prefix reuse.

Both features are pure optimisations: generalised patterns prune *more*
candidates but only ever candidates that would fail, and prefix resumption
is verdict-exact.  So against the paper's naive baseline
(``pruning=False``: every candidate model checked, no patterns, no
prefix cache) every skeleton must yield:

* the identical solution set (digits, assignments, per-solution state
  counts, executed holes) on every backend;
* the identical canonical hole registry;
* per-candidate verdict agreement: any candidate model checked under both
  configurations whose pruning-mode verdict is definite (no wildcard left
  it UNKNOWN) received the same verdict from the naive run.

Sequentially, the default run also evaluates no more candidates than
the same run recording the paper's full-width patterns (the failing
candidate itself) in place of generalised ones.

Every skeleton here has at most 108 candidates, so the naive runs stay
cheap.
"""

import pytest

from repro.api import BACKENDS
from repro.core import SynthesisConfig, SynthesisEngine
from repro.core import engine as engine_module
from repro.core.candidate import CandidateVector
from repro.core.engine import SynthesisObserver
from repro.core.pruning import PruningPattern
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.protocols.catalog import build_skeleton

SKELETONS = ["mutex", "msi-tiny", "msi-read-tiny", "mesi", "vi"]

BASELINE = dict(pruning=False)


def run_backend(backend, name, config):
    if backend == "sequential":
        return SynthesisEngine(build_skeleton(name), config).run()
    return DistributedSynthesisEngine(
        SystemSpec(name), config, workers=2, min_batch_size=2
    ).run()


def solution_view(report):
    return {
        (
            solution.digits,
            solution.assignment,
            solution.states_visited,
            solution.executed_holes,
        )
        for solution in report.solutions
    }


def registry_view(report):
    return [
        (hole.name, tuple(action.name for action in hole.domain))
        for hole in report.holes
    ]


def full_width_pattern(_registry, digits, _result):
    """The paper's pattern: the failing candidate at its full width."""
    return PruningPattern.from_candidate(CandidateVector.from_digits(digits))


class VerdictRecorder(SynthesisObserver):
    """digits -> verdict for every dispatched model-checker run."""

    def __init__(self):
        self.verdicts = {}

    def on_run(self, run_index, vector, result, holes):
        self.verdicts[vector.entries] = result.verdict.value


@pytest.mark.parametrize("name", SKELETONS)
class TestGeneralisationEquivalence:
    def test_all_backends_match_naive_baseline(self, name):
        baseline = run_backend("sequential", name, SynthesisConfig(**BASELINE))
        assert baseline.solutions
        for backend in BACKENDS:
            report = run_backend(backend, name, SynthesisConfig())
            assert solution_view(report) == solution_view(baseline), backend
            assert registry_view(report) == registry_view(baseline), backend

    def test_per_candidate_verdicts_agree(self, name):
        base_obs, gen_obs = VerdictRecorder(), VerdictRecorder()
        SynthesisEngine(
            build_skeleton(name), SynthesisConfig(**BASELINE), base_obs
        ).run()
        SynthesisEngine(build_skeleton(name), SynthesisConfig(), gen_obs).run()
        shared = set(base_obs.verdicts) & set(gen_obs.verdicts)
        assert shared  # the runs overlap at least on the initial candidates
        for digits in shared:
            if gen_obs.verdicts[digits] == "unknown":
                # A wildcard cut the pruning run short; the naive run
                # resolved that hole to its default action instead.
                continue
            assert base_obs.verdicts[digits] == gen_obs.verdicts[digits], digits

    def test_generalisation_never_evaluates_more(self, name, monkeypatch):
        # A generalised pattern is a subset of the paper's full-width
        # pattern for the same failure, so it never prunes less.  Compared
        # sequentially: parallel counts drift with pattern timing, as the
        # paper's own Table I shows.
        generalised = run_backend("sequential", name, SynthesisConfig())
        monkeypatch.setattr(
            engine_module, "generalise_failure", full_width_pattern
        )
        full = run_backend("sequential", name, SynthesisConfig())
        assert generalised.evaluated <= full.evaluated
        assert solution_view(full) == solution_view(generalised)


@pytest.mark.parametrize("name", ["mutex", "msi-tiny"])
class TestFeatureIndependence:
    """Pruning and the verdict store each preserve the solution set."""

    def test_each_flag_combination_agrees(self, name, tmp_path):
        reference = None
        for pruning in (False, True):
            store_path = str(tmp_path / f"store-{pruning}")
            # No store, a recording run, then a run replaying that record.
            for store in (None, store_path, store_path):
                report = run_backend(
                    "sequential",
                    name,
                    SynthesisConfig(pruning=pruning, store_path=store),
                )
                view = (solution_view(report), registry_view(report))
                if reference is None:
                    reference = view
                assert view == reference, (pruning, store)


class TestPrefixCacheReporting:
    def test_report_surfaces_cache_stats(self):
        report = run_backend("sequential", "msi-tiny", SynthesisConfig())
        assert report.prefix_cache_hits > 0
        assert report.prefix_states_reused > 0
        assert report.prefix_cache_builds > 0
        assert "prefix cache" in report.summary()

    def test_processes_backend_merges_worker_cache_stats(self):
        report = run_backend("processes", "msi-tiny", SynthesisConfig())
        assert report.prefix_cache_hits > 0
        assert report.prefix_states_reused > 0

    def test_disabled_cache_reports_zero(self):
        report = run_backend(
            "sequential", "msi-tiny", SynthesisConfig(pruning=False)
        )
        assert report.prefix_cache_hits == 0
        assert report.prefix_cache_builds == 0
        assert "prefix cache" not in report.summary()

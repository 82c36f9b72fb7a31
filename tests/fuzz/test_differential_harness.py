"""The differential harness itself: clean sweeps, determinism, and the
deliberate-breakage acceptance path.

The breakage test is the ISSUE's acceptance criterion in miniature:
sabotage one acceleration (the packed codec's canonicalisation remap —
returning codes unchanged makes the packed kernel treat symmetric states
as distinct), and the harness must notice, shrink the offending spec to a
minimal reproducer, write it as a corpus file, and replay the divergence
from that file.
"""

from unittest import mock

import pytest

from repro.api import BACKENDS
from repro.fuzz import (
    DifferentialRunner,
    generate_spec,
    load_entry,
    replay_entry,
    run_campaign,
)
from repro.fuzz.differential import LATTICES, ablation_lattice
from repro.mc.packed import StateCodec

SEEDS = range(3)


def _identity_canonical(self, codes):
    """The sabotage: skip the symmetry remap scan entirely."""
    return tuple(codes)


@pytest.fixture(scope="module")
def runner():
    return DifferentialRunner("tier1")


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_lattice_backends_are_api_backends(name):
    assert {config.backend for config in LATTICES[name]().synth} <= set(BACKENDS)


def test_ablation_lattice_covers_every_backend():
    backends = {config.backend for config in ablation_lattice().synth}
    assert backends == set(BACKENDS)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_every_lattice_has_one_sequential_wholestate_oracle(name):
    lattice = LATTICES[name]()
    for configs in (lattice.verify, lattice.synth):
        oracles = [config for config in configs if config.wholestate]
        assert [config.name for config in oracles] == ["wholestate"]
    synth_oracle = next(c for c in lattice.synth if c.wholestate)
    assert synth_oracle.backend == "sequential"
    assert synth_oracle.evaluated_exact


def test_healthy_seeds_sweep_clean(runner):
    for seed in SEEDS:
        check = runner.check_spec(generate_spec(seed))
        assert check.ok, (seed, [d.to_dict() for d in check.divergences])


def test_same_seed_campaigns_produce_identical_journals(tmp_path):
    """The ISSUE's flakiness guard: journals are a pure function of the
    seeds and lattice — two runs at the same seeds match byte for byte."""
    paths = []
    for run in ("a", "b"):
        result = run_campaign(
            SEEDS,
            lattice="tier1",
            shrink=False,
            journal_path=tmp_path / f"journal-{run}.jsonl",
        )
        assert result.ok
        paths.append(result.journal_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes()  # non-empty: rows were actually written


def test_broken_canonicalisation_is_detected_shrunk_and_replayable(
    tmp_path, runner
):
    with mock.patch.object(StateCodec, "canonical_codes", _identity_canonical):
        result = run_campaign(
            [0],
            runner=runner,
            shrink=True,
            corpus_dir=tmp_path / "reproducers",
        )
        assert not result.ok
        assert len(result.reproducers) == 1
        original, shrunk, path = result.reproducers[0]
        # The shrinker must have made real progress on seed 0's spec (it
        # carries a step-edge graph, a counter, and random names).
        assert shrunk != original
        assert shrunk.n_procs == 2
        assert not shrunk.step_edges
        assert not shrunk.counters
        # ... and the reproducer file must replay the divergence.
        assert path is not None and path.is_file()
        entry = load_entry(path)
        assert entry.kind == "divergence"
        assert replay_entry(entry, runner) == []
    # With the sabotage lifted, the same file reports the divergence gone
    # (the maintainer's signal that a reproducer can be retired).
    problems = replay_entry(load_entry(path), runner)
    assert problems and "no longer reproduces" in problems[0]


def test_divergence_names_the_packed_toggle(runner):
    """The divergence report must point at the codec/whole-state pair —
    that is what makes a reproducer triagable.  The sabotaged remap is the
    codec's; the ``wholestate`` config canonicalises through the
    ``Permuter`` and keeps the true orbit count."""
    with mock.patch.object(StateCodec, "canonical_codes", _identity_canonical):
        check = runner.check_spec(generate_spec(0))
    assert not check.ok
    witness = check.divergences[0]
    assert {witness.config, witness.baseline} == {"ref", "wholestate"}

"""Tier-1 replay of the curated regression corpus.

Every checked-in corpus file re-runs through the differential lattice it
was pinned under and must sweep cleanly *and* reproduce its pinned
solution set and reference exploration counts.  One small entry
additionally runs through the processes backend, so the corpus also
guards the fuzz-payload path across the process boundary.
"""

from pathlib import Path

import pytest

from repro.fuzz import (
    DifferentialRunner,
    Lattice,
    SynthLatticeConfig,
    load_corpus,
    replay_entry,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = load_corpus(CORPUS_DIR)

assert CORPUS, f"empty corpus directory {CORPUS_DIR}"


@pytest.fixture(scope="module")
def runner():
    """One shared runner: every entry pins the same 'tier1' lattice."""
    return DifferentialRunner("tier1")


@pytest.mark.parametrize(
    "path, entry", CORPUS, ids=[path.stem for path, _ in CORPUS]
)
def test_corpus_entry_replays_clean(path, entry, runner):
    assert entry.kind == "regression", f"{path} is not a regression entry"
    assert entry.lattice == runner.lattice.name, (
        f"{path} pins lattice {entry.lattice!r}; regenerate it or give the "
        f"test its own runner"
    )
    problems = replay_entry(entry, runner)
    assert not problems, f"{path}: " + "; ".join(problems)


def test_corpus_covers_required_shapes():
    """The ISSUE's curation floor: the packed-codec fallback path and a
    German-style single-slot-channel protocol must stay represented."""
    specs = [entry.spec for _, entry in CORPUS]
    assert any(spec.codec == "none" for spec in specs)
    assert any(spec.single_slot for spec in specs)


def test_corpus_keeps_server_hole_ack_round_entries():
    """At least two entries pair a server-side hole with an ack round,
    so the replayed lattice keeps covering a two-sided hole space (client
    response and server request handler) behind an extra message round."""
    specs = [
        entry.spec for _, entry in CORPUS
        if entry.spec.hole_server and entry.spec.ack_round
    ]
    assert len(specs) >= 2


def test_smallest_entry_through_processes_backend():
    """One corpus spec across the process boundary: the distributed
    backend rebuilds it from its fuzz payload and must agree with the
    sequential reference on the solution set."""
    entry = min(
        (entry for _, entry in CORPUS),
        key=lambda e: e.expect.get("ref_states", 1 << 30),
    )
    lattice = Lattice(
        "tier1",  # reuse the pinned name: expectations stay comparable
        verify=(),
        synth=(
            SynthLatticeConfig("ref"),
            SynthLatticeConfig("processes", backend="processes"),
        ),
    )
    check = DifferentialRunner(lattice).check_spec(entry.spec)
    assert check.ok, check.divergences
    pinned = entry.expect.get("solutions")
    if pinned is not None:
        assert check.solutions == pinned

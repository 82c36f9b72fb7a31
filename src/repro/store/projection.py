"""SQLite read projection over the verdict journal.

The projection is a *disposable* materialised view: a ``verdicts`` table
keyed by candidate key, plus a ``meta`` row remembering how many journal
bytes have been applied.  ``catch_up`` replays any new journal suffix
inside a single ``BEGIN IMMEDIATE`` transaction, so concurrent readers
in other processes either see the old offset or the new one — never a
half-applied batch.  If the SQLite file is deleted or corrupted it is
rebuilt from the journal (see :meth:`rebuild` and
``VerdictStore.__init__``).
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Optional

from repro.store.journal import VerdictJournal

_SCHEMA = """
CREATE TABLE IF NOT EXISTS verdicts (
    key TEXT PRIMARY KEY,
    record TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    id INTEGER PRIMARY KEY CHECK (id = 1),
    journal_offset INTEGER NOT NULL
);
INSERT OR IGNORE INTO meta (id, journal_offset) VALUES (1, 0);
"""


class SqliteProjection:
    """O(1) key -> record lookup, projected from a :class:`VerdictJournal`."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0, check_same_thread=False)
        # The journal is the source of truth; losing the projection on a
        # crash only costs a rebuild, so trade durability for speed.
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------------- read

    def applied_offset(self) -> int:
        row = self._conn.execute(
            "SELECT journal_offset FROM meta WHERE id = 1"
        ).fetchone()
        return int(row[0]) if row else 0

    def get(self, key: str) -> Optional[dict]:
        row = self._conn.execute(
            "SELECT record FROM verdicts WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        record = json.loads(row[0])
        return record if isinstance(record, dict) else None

    def count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0])

    # ------------------------------------------------------------------ write

    def catch_up(self, journal: VerdictJournal) -> int:
        """Apply any journal suffix not yet projected; returns records applied."""

        applied = 0
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            offset = self.applied_offset()
            for end_offset, line, record in journal.replay(offset):
                key = record.get("key")
                if isinstance(key, str):
                    # The journal writes canonical JSON (sorted keys, compact
                    # separators), so its line is stored as read.
                    self._conn.execute(
                        "INSERT OR REPLACE INTO verdicts (key, record) VALUES (?, ?)",
                        (key, line),
                    )
                    applied += 1
                offset = end_offset
            self._conn.execute(
                "UPDATE meta SET journal_offset = ? WHERE id = 1", (offset,)
            )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return applied

    def rebuild(self, journal: VerdictJournal) -> int:
        """Discard the projected state and re-apply the journal from byte 0."""

        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.execute("DELETE FROM verdicts")
            self._conn.execute("UPDATE meta SET journal_offset = 0 WHERE id = 1")
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise
        return self.catch_up(journal)

    # ---------------------------------------------------------------- cleanup

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteProjection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

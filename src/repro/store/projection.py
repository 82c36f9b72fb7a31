"""In-memory key index over the verdict journal.

:class:`JournalIndex` maps each candidate key to the byte span of its
latest journal line, so a lookup is a dict probe plus one read of that
span.  It holds offsets, never parsed records, and is rebuilt from the
journal whenever a store opens: there is nothing on disk to go stale.
``catch_up`` resumes from the last complete line it scanned, so another
writer's appends cost one incremental scan.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from repro.store.journal import VerdictJournal

#: How the journal's canonical JSON (sorted keys, compact separators)
#: spells a store key.  A JSON string escapes every ``"`` it contains, so
#: this cannot match inside a string value.
_CANONICAL_KEY = re.compile(rb',"key":"([0-9a-f]{64})"')


def _key_of(line: bytes) -> Optional[str]:
    """The ``key`` of one journal line, or ``None`` when it has none."""

    match = _CANONICAL_KEY.search(line)
    if match is not None:
        return match.group(1).decode("ascii")
    # Legacy and hand-written lines: parse them fully.
    try:
        record = json.loads(line)
    except ValueError:
        return None  # repaired torn line: skip it
    key = record.get("key") if isinstance(record, dict) else None
    return key if isinstance(key, str) else None


class JournalIndex(dict):
    """Key -> ``(start, end)`` span of the key's latest line in the journal.

    A span only says where to look: a line torn right after its key is
    indexed too, so readers must parse the span and check its key.
    """

    def __init__(self) -> None:
        super().__init__()
        #: end of the last complete line scanned (or appended in sequence)
        self.offset = 0

    def catch_up(self, journal: VerdictJournal) -> None:
        """Index every complete journal line past :attr:`offset`."""

        for start, end, line in journal.lines(self.offset):
            key = _key_of(line)
            if key is not None:
                self[key] = (start, end)
            self.offset = end

    def add(self, key: str, start: int, end: int) -> None:
        """Index a line this process appended at ``[start, end)``."""

        self[key] = (start, end)
        # Appended right where the scan stopped: nothing foreign lies in
        # between.  Otherwise the next catch-up scans the gap, this line
        # included, so the latest line still wins.
        if start == self.offset:
            self.offset = end


# The name the store's per-layer benchmark hooks wrap (``catch_up``):
# the index replaced a SQLite projection that carried it.
SqliteProjection = JournalIndex

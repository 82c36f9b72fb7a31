"""Append-only JSONL journal — the verdict store's only on-disk artifact.

One record per line, appended atomically under an advisory ``flock``.
A writer killed mid-append leaves a *torn* trailing line; the journal
repairs it on the next locked append (terminates the torn line so it
becomes an ignorable garbage line) and readers skip unparseable lines,
so a crash can lose at most the record being written — never corrupt
earlier history.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterator, Optional, Tuple

#: The canonical encoder, built once rather than once per line.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def record_line(record: dict) -> bytes:
    """The journal line of *record*, newline included.

    Byte for byte ``json.dumps(record, sort_keys=True, separators=(",",
    ":"))`` plus ``"\n"``: store keys are looked up by that spelling
    (:mod:`repro.store.projection`), and journals must stay comparable
    across versions.
    """

    return _encode(record).encode("ascii") + b"\n"


try:  # pragma: no cover - exercised only on platforms without fcntl
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]


class VerdictJournal:
    """Append-only JSONL file with locked atomic appends and torn-tail repair."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # "a+b": writes always append (O_APPEND) while the handle stays
        # readable for the torn-tail check and span reads.
        self._handle: Optional[IO[bytes]] = open(self.path, "a+b")
        # Where this handle's last append ended: while the file still ends
        # there, no other writer can have left a torn tail.
        self._end: Optional[int] = None

    # ------------------------------------------------------------------ write

    def append(self, record: dict) -> Tuple[int, int]:
        """Append one record; returns its ``(start, end)`` byte offsets.

        Both are read under the lock, so ``start`` equals the journal size
        just before this append (after any torn-tail repair): a caller that
        knew that size can tell no other writer appended in between.
        """

        if self._handle is None:
            raise ValueError("journal is closed")
        data = record_line(record)
        handle = self._handle
        self._lock(handle)
        try:
            start = handle.seek(0, os.SEEK_END)
            # A torn line (writer killed mid-append) means the file does not
            # end with a newline.  Terminate it so the garbage stays confined
            # to one line that readers skip, instead of merging with this
            # record.  Only another writer can have torn it since our last
            # append, and only by changing the size.
            if start != self._end and start and self.read(start - 1, start) != b"\n":
                handle.write(b"\n")
                start += 1
            handle.write(data)
            handle.flush()
            self._end = start + len(data)
            return start, self._end
        finally:
            self._unlock(handle)

    @staticmethod
    def _lock(handle: IO[bytes]) -> None:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)

    @staticmethod
    def _unlock(handle: IO[bytes]) -> None:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------- read

    def size(self) -> int:
        try:
            return os.stat(self.path).st_size
        except OSError:
            return 0

    def read(self, start: int, end: int) -> bytes:
        """The journal bytes in ``[start, end)``, read without seeking."""

        if self._handle is None:
            raise ValueError("journal is closed")
        return os.pread(self._handle.fileno(), end - start, start)

    def lines(self, offset: int = 0) -> Iterator[Tuple[int, int, bytes]]:
        """Yield ``(start, end, line)`` for each complete line past *offset*.

        ``line`` is the raw bytes, newline included; ``end`` is where the
        next line starts.  A torn trailing line (no newline terminator yet)
        is not yielded, so a caller resuming from the last ``end`` picks it
        up once the repairing writer terminates it.
        """

        try:
            reader = open(self.path, "rb")
        except OSError:
            return
        with reader:
            reader.seek(offset)
            start = offset
            for raw in reader:
                if not raw.endswith(b"\n"):
                    return  # torn tail: not yet terminated, do not consume
                end = start + len(raw)
                yield start, end, raw
                start = end

    # ---------------------------------------------------------------- cleanup

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "VerdictJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

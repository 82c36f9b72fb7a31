"""Append-only JSONL journal — the verdict store's source of truth.

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
        # readable for the torn-tail check.
        self._handle: Optional[IO[bytes]] = open(self.path, "a+b")

    # ------------------------------------------------------------------ write

    def append(self, record: dict) -> Tuple[int, int]:
        """Append one record; returns its ``(start, end)`` byte offsets.

        Both are read under the lock, so ``start`` equals the journal size
        just before this append (after any torn-tail repair): a caller that
        knew that size can tell no other writer appended in between.
        """

        if self._handle is None:
            raise ValueError("journal is closed")
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        data = line.encode("utf-8") + b"\n"
        handle = self._handle
        self._lock(handle)
        try:
            self._repair_torn_tail(handle)
            handle.seek(0, os.SEEK_END)
            handle.write(data)
            handle.flush()
            end = handle.tell()
            return end - len(data), end
        finally:
            self._unlock(handle)

    def _repair_torn_tail(self, handle: IO[bytes]) -> None:
        # A torn line (writer killed mid-append) means the file does not end
        # with a newline.  Terminate it so the garbage stays confined to one
        # line that readers skip, instead of merging with the next record.
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) != b"\n":
            handle.seek(0, os.SEEK_END)
            handle.write(b"\n")
            handle.flush()

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

    def replay(self, offset: int = 0) -> Iterator[Tuple[int, str, dict]]:
        """Yield ``(end_offset, line, record)`` for each intact record past *offset*.

        ``line`` is the record's text as stored, without its newline.

        A torn trailing line (no newline terminator yet) is left alone — its
        offset is not consumed, so a later replay picks it up once the
        repairing writer terminates it.  Unparseable *complete* lines (the
        repaired remains of a torn write) are skipped but their bytes are
        consumed.
        """

        try:
            reader = open(self.path, "rb")
        except OSError:
            return
        with reader:
            reader.seek(offset)
            position = offset
            for raw in reader:
                position += len(raw)
                if not raw.endswith(b"\n"):
                    return  # torn tail: not yet terminated, do not consume
                stripped = raw.strip()
                if not stripped:
                    continue
                try:
                    line = stripped.decode("utf-8")
                    record = json.loads(line)
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue  # repaired torn line: consume and ignore
                if isinstance(record, dict):
                    yield position, line, record

    # ---------------------------------------------------------------- cleanup

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "VerdictJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""The durable verdict store front end.

``VerdictStore`` combines the append-only journal (its only on-disk
artifact) and an in-memory key index built from it behind two
operations:

* ``lookup(key)`` — a dict probe for whether an identically-configured
  run already verified this candidate, then one read of its line.
* ``record(key, run)`` — durably append the outcome of one model-checker
  run.

Keys (:func:`candidate_key`) are content hashes over three components:

* **system signature** — protocol name plus the structural surface of
  the built transition system (rule/invariant/coverage names, initial
  state count, optional hooks).  Two differently-shaped systems never
  share verdicts even under the same name.
* **flags signature** — every configuration knob that can change a
  *verdict or its stored side effects* (pruning, conflict
  generalisation).
  Knobs that only change performance or reporting (prefix reuse,
  telemetry) are excluded so runs can share verdicts across them.
* **candidate assignment** — *name-keyed* ``(hole name, action index)``
  pairs, sorted by name.  Hole discovery order differs across backends
  and schedules; names do not.

Records carry everything the engine needs to replay a verdict without a
model check: the full run stats, executed holes, the generalised failure
pattern (so pruning tables grow identically), holes discovered *during*
the run (so lazy discovery replays), and the visited-state fingerprint
when one was computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.store.journal import VerdictJournal
from repro.store.projection import JournalIndex

JOURNAL_NAME = "journal.jsonl"

Assignment = Tuple[Tuple[str, int], ...]


def _digest(payload: Any) -> str:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def system_signature(system: Any) -> str:
    """Structural hash of a built transition system (duck-typed).

    Rule/invariant/coverage names capture the replica count and protocol
    shape (rules are replicated per replica index); the canonicaliser tag
    distinguishes symmetry-reduced builds from identity builds, since the
    two produce different state counts and fingerprints.
    """

    canonicalize = getattr(system, "canonicalize", None)
    canon_tag = (
        ""
        if canonicalize is None
        else f"{type(canonicalize).__name__}:{getattr(canonicalize, '__qualname__', '')}"
    )
    deadlock = getattr(system, "deadlock", None)
    deadlock_tag = (
        ""
        if deadlock is None
        else (
            f"{getattr(getattr(deadlock, 'mode', None), 'name', '')}"
            f":{getattr(deadlock, 'quiescent', None) is not None}"
        )
    )
    payload = {
        "name": getattr(system, "name", ""),
        "rules": [rule.name for rule in getattr(system, "rules", ())],
        "invariants": [inv.name for inv in getattr(system, "invariants", ())],
        "coverage": sorted(
            getattr(goal, "name", str(goal)) for goal in getattr(system, "coverage", ())
        ),
        "canonicalize": canon_tag,
        "deadlock": deadlock_tag,
    }
    return _digest(payload)


def flags_signature(config: Any) -> str:
    """Hash of every configuration knob that can change a stored verdict."""

    payload = {
        "pruning": bool(getattr(config, "pruning", True)),
        "generalise": bool(getattr(config, "generalise_active", False)),
    }
    return _digest(payload)


def candidate_key(system_sig: str, flags_sig: str, assignment: Assignment) -> str:
    """The store key of one candidate.

    Hashes exactly the text ``_digest`` produces for ``{"system":
    system_sig, "flags": flags_sig, "assignment": [[name, digit], ...]}``
    (sorted keys, compact separators, ASCII escapes), written out
    directly: keys must stay byte-identical for existing stores to keep
    hitting, and this runs once per candidate.
    """

    pairs = ",".join(
        f"[{_json_string(name)},{int(digit)}]" for name, digit in sorted(assignment)
    )
    text = (
        f'{{"assignment":[{pairs}],"flags":{_json_string(flags_sig)},'
        f'"system":{_json_string(system_sig)}}}'
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass
class StoredRun:
    """The replayable outcome of one model-checker run."""

    verdict: str
    failure_kind: Optional[str] = None
    message: str = ""
    stats: Dict[str, Any] = field(default_factory=dict)
    wildcard_encountered: bool = False
    executed: Tuple[str, ...] = ()
    unmet_coverage: Tuple[str, ...] = ()
    fingerprint: Optional[str] = None
    # Generalised failure pattern as (position, digit) constraints; None means
    # "no pattern stored", () means the empty (inherent-failure) pattern.
    pattern: Optional[Tuple[Tuple[int, int], ...]] = None
    # Holes discovered during this run, in discovery order: (name, action names).
    new_holes: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict,
            "failure_kind": self.failure_kind,
            "message": self.message,
            "stats": dict(self.stats),
            "wildcard_encountered": self.wildcard_encountered,
            "executed": list(self.executed),
            "unmet_coverage": list(self.unmet_coverage),
            "fingerprint": self.fingerprint,
            "pattern": (
                None
                if self.pattern is None
                else [[int(pos), int(digit)] for pos, digit in self.pattern]
            ),
            "new_holes": [
                [name, list(actions)] for name, actions in self.new_holes
            ],
        }

    @classmethod
    def from_record(cls, record: dict) -> "StoredRun":
        pattern = record.get("pattern")
        return cls(
            verdict=str(record.get("verdict", "")),
            failure_kind=record.get("failure_kind"),
            message=str(record.get("message", "")),
            stats=dict(record.get("stats", {})),
            wildcard_encountered=bool(record.get("wildcard_encountered", False)),
            executed=tuple(record.get("executed", ())),
            unmet_coverage=tuple(record.get("unmet_coverage", ())),
            fingerprint=record.get("fingerprint"),
            pattern=(
                None
                if pattern is None
                else tuple((int(pos), int(digit)) for pos, digit in pattern)
            ),
            new_holes=tuple(
                (str(name), tuple(str(action) for action in actions))
                for name, actions in record.get("new_holes", ())
            ),
        )


class VerdictStore:
    """Durable candidate-verdict memo: the journal plus a key index over it."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        os.makedirs(self.path, exist_ok=True)
        # One mutex serialises lookups and records: the journal handle's
        # seek/write sequence must not interleave within a process
        # (cross-process interleaving is handled by flock).
        self._mutex = threading.Lock()
        self.journal = VerdictJournal(os.path.join(self.path, JOURNAL_NAME))
        self.index = JournalIndex()
        self.index.catch_up(self.journal)

    # ------------------------------------------------------------------- read

    def lookup(self, key: str) -> Optional[StoredRun]:
        """The stored run under *key* (see :func:`candidate_key`), if any."""

        with self._mutex:
            span = self.index.get(key)
            # The index holds this store's own records; a cheap stat tells
            # whether another writer has appended since the last catch-up.
            if span is None and self.journal.size() > self.index.offset:
                self.index.catch_up(self.journal)
                span = self.index.get(key)
            if span is None:
                return None
            line = self.journal.read(*span)
        # A span whose line is torn or holds another key is a miss, never
        # a wrong verdict: the candidate is checked and recorded again.
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        return StoredRun.from_record(record)

    def __len__(self) -> int:
        """Distinct keys in the journal, other writers' records included."""

        with self._mutex:
            self.index.catch_up(self.journal)
            return len(self.index)

    # ------------------------------------------------------------------ write

    def record(self, key: str, run: StoredRun) -> None:
        """Durably append *run* under *key*; returns once it is flushed."""

        record = {"key": key}
        record.update(run.to_record())
        with self._mutex:
            start, end = self.journal.append(record)
            self.index.add(key, start, end)

    # ---------------------------------------------------------------- cleanup

    def close(self) -> None:
        with self._mutex:
            self.journal.close()

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_store(path: str) -> VerdictStore:
    """Open (creating if needed) the verdict store rooted at *path*."""

    return VerdictStore(path)


def merge_assignment(
    holes: Sequence[Any], digits: Iterable[int]
) -> Assignment:
    """Name-key a positional digit vector against a hole snapshot."""

    pairs: List[Tuple[str, int]] = []
    for position, digit in enumerate(digits):
        pairs.append((holes[position].name, int(digit)))
    return tuple(sorted(pairs))

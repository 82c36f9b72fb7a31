"""The durable verdict store front end.

``VerdictStore`` combines the append-only journal (its only on-disk
artifact) and an in-memory key index built from it behind two
operations:

* ``lookup(key)`` — a dict probe for whether an identically-configured
  run already verified this candidate, then one read and one parse of
  its line.
* ``record(key, record)`` — durably append the outcome of one
  model-checker run.

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

A record is one JSON object per journal line, built and read by the
engine (:mod:`repro.core.engine`).  It carries everything the engine
needs to replay a verdict without a model check: the full run stats,
executed holes, the generalised failure pattern (so pruning tables grow
identically), holes discovered *during* the run (so lazy discovery
replays), and the visited-state fingerprint when one was computed.
The engine builds a key once per hole list (:func:`candidate_keyer`),
not once per candidate.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

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
    (sorted keys, compact separators, ASCII escapes): keys must stay
    byte-identical for existing stores to keep hitting.
    """

    pairs = sorted(assignment)
    names = [name for name, _digit in pairs]
    return candidate_keyer(system_sig, flags_sig, names)(
        [digit for _name, digit in pairs]
    )


def candidate_keyer(
    system_sig: str, flags_sig: str, names: Sequence[str]
) -> Callable[[Sequence[int]], str]:
    """:func:`candidate_key` of digit vectors over holes named *names*.

    ``keyer(digits)`` keys the candidate that gives ``names[i]`` action
    ``digits[i]``.  The name sort, the escaped names and the fixed text
    around the digits are worked out here, once per hole list, so a
    candidate costs one ``%`` format and one hash.  Names are unique, as
    a hole registry's are.
    """

    order = sorted(range(len(names)), key=names.__getitem__)

    def quoted(text: str) -> str:
        return _json_string(text).replace("%", "%%")

    pairs = ",".join(f"[{quoted(names[position])},%d]" for position in order)
    template = (
        f'{{"assignment":[{pairs}],"flags":{quoted(flags_sig)},'
        f'"system":{quoted(system_sig)}}}'
    )
    sha256 = hashlib.sha256
    if not order:
        key = sha256((template % ()).encode("ascii")).hexdigest()
        return lambda digits: key
    # One position makes itemgetter return the bare digit, which ``%``
    # formats as its only argument.
    pick = itemgetter(*order)
    return lambda digits: sha256(
        (template % pick(digits)).encode("ascii")
    ).hexdigest()


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

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The record stored under *key* (see :func:`candidate_key`), if any.

        The record is the journal line, parsed: the fields
        :meth:`record` was given, plus ``key``.  Nothing parsed is kept.
        """

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
            record = json.loads(line.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError included
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        return record

    def __len__(self) -> int:
        """Distinct keys in the journal, other writers' records included."""

        with self._mutex:
            self.index.catch_up(self.journal)
            return len(self.index)

    # ------------------------------------------------------------------ write

    def record(self, key: str, record: Dict[str, Any]) -> None:
        """Durably append *record* under *key*; returns once it is flushed.

        *record* holds JSON values (tuples write as arrays); the journal
        line is the record with ``key`` added, in canonical form (see
        :func:`~repro.store.journal.record_line`).
        """

        with self._mutex:
            start, end = self.journal.append({**record, "key": key})
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

"""Durable cross-run verdict store: one journal and a key index over it.

Synthesis re-verifies the same candidates over and over: repeated CLI
runs, overlapping ablation runs, warm benchmark passes, and distributed
workers all dispatch model-checker runs whose verdicts were already
computed somewhere.  This package memoises those verdicts *durably*:

* :mod:`repro.store.journal` — an append-only ``journal.jsonl`` is the
  store's only file.  Appends are atomic under an advisory file lock,
  and a torn trailing line (a killed writer) is detected and repaired.
* :mod:`repro.store.projection` — :class:`JournalIndex`, an in-memory
  map from key to the byte span of its latest journal line, built when
  a store opens and grown by appends and catch-ups.  A lookup is a dict
  probe plus one read of that span.
* :mod:`repro.store.store` — :class:`VerdictStore` front end: verdicts
  are keyed by ``(system signature, flags signature, candidate
  assignment)`` where the assignment is *name-keyed* (hole name ->
  action index), so lookups are independent of hole discovery order
  across backends and processes.

The engine integration (what is stored for one model-checker run and how
a hit replays) lives in :mod:`repro.core.engine`; this package knows
nothing about transition systems beyond their signature surface.
"""

from repro.store.journal import VerdictJournal
from repro.store.projection import JournalIndex
from repro.store.store import (
    VerdictStore,
    candidate_key,
    candidate_keyer,
    flags_signature,
    open_store,
    system_signature,
)

__all__ = [
    "JournalIndex",
    "VerdictJournal",
    "VerdictStore",
    "candidate_key",
    "candidate_keyer",
    "flags_signature",
    "open_store",
    "system_signature",
]

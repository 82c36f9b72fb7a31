"""Pinned failure-pattern list and firing work of sequential msi-small.

The ordered list of failure patterns a run records is the sharpest
summary of the synthesis path: it moves with any change to hole
discovery order, conflict extraction, the prefix cache's seam or the
enumeration order, even when the solution set does not.  The values
below are the Table I row's: 4,249 candidates evaluated, 3,183 failure
patterns, 126 solutions.  The firing count pins the warm kernel path:
memo hits read digits by position and seams re-fire only cut rules.
"""

import hashlib

import pytest

from repro.core.engine import SynthesisConfig, SynthesisEngine
from repro.protocols.catalog import SKELETON_BUILDERS

PATTERN_LIST_SHA256_16 = "e7fc168e3444939e"


@pytest.fixture(scope="module")
def msi_small():
    system = SKELETON_BUILDERS["msi-small"](2)
    engine = SynthesisEngine(system, SynthesisConfig())
    report = engine.run()
    counters = system.packed_runtime().counters()
    return report, engine.core.fail_table, counters


def test_table1_counts(msi_small):
    report, fail_table, _ = msi_small
    assert report.evaluated == 4249
    assert len(report.solutions) == 126
    assert len(fail_table) == 3183


def test_pattern_list_is_pinned(msi_small):
    _, fail_table, _ = msi_small
    listing = repr(fail_table.constraints_since(0)).encode()
    assert hashlib.sha256(listing).hexdigest()[:16] == PATTERN_LIST_SHA256_16


def test_firing_work_is_bounded(msi_small):
    # Every PackedRuntime.fire call is a memo hit or a miss; a wildcard
    # cut is a None return, so the run completing means none escaped.
    _, _, counters = msi_small
    fires = counters["pack_fire_memo_hits"] + counters["pack_fire_memo_misses"]
    assert fires <= 100_000

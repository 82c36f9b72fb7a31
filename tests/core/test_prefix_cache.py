"""Unit tests for the prefix-exploration cache and when a core builds one."""

import pytest

from repro.core.engine import PrefixCache, SynthesisConfig, SynthesisCore
from repro.protocols.toy import build_figure2_skeleton


class TestPrefixCache:
    def test_lookup_miss_vs_negative_entry(self):
        cache = PrefixCache()
        assert cache.lookup((1,)) == (False, None)
        cache.store((1,), None)  # negative entry: prefix known to fail
        assert cache.lookup((1,)) == (True, None)

    def test_lru_eviction_order(self):
        cache = PrefixCache(capacity=2)
        cache.store((1,), None)
        cache.store((2,), None)
        cache.lookup((1,))  # refresh (1,)
        cache.store((3,), None)  # evicts (2,)
        assert cache.lookup((2,)) == (False, None)
        assert cache.lookup((1,))[0] and cache.lookup((3,))[0]
        assert len(cache) == 2

    def test_counters(self):
        cache = PrefixCache()
        cache.note_hit(10)
        cache.note_hit(5)
        cache.note_build()
        assert cache.counters() == (2, 1, 15)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PrefixCache(capacity=0)


class TestConfigGating:
    def test_active_by_default(self):
        system = build_figure2_skeleton()
        assert SynthesisCore(system, SynthesisConfig()).prefix_cache is not None

    def test_inactive_without_pruning(self):
        # Without wildcard semantics a prefix run cannot stand in for its
        # extensions, so the naive baseline explores every candidate cold.
        system = build_figure2_skeleton()
        assert (
            SynthesisCore(system, SynthesisConfig(pruning=False)).prefix_cache
            is None
        )

    def test_core_adopts_caller_cache(self):
        system = build_figure2_skeleton()
        shared = PrefixCache()
        core = SynthesisCore(system, SynthesisConfig(), prefix_cache=shared)
        assert core.prefix_cache is shared
        # ... but never without pruning.
        core = SynthesisCore(
            system, SynthesisConfig(pruning=False), prefix_cache=shared
        )
        assert core.prefix_cache is None

"""Unit tests for the prefix-exploration cache and its config gating."""

import pytest

from repro.core.engine import PrefixCache, SynthesisConfig, SynthesisCore
from repro.mc.kernel import ExplorationLimits
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
        assert SynthesisConfig().prefix_reuse_active

    def test_inactive_without_pruning(self):
        assert not SynthesisConfig(pruning=False).prefix_reuse_active

    def test_inactive_when_disabled(self):
        assert not SynthesisConfig(prefix_reuse=False).prefix_reuse_active

    def test_inactive_under_exploration_limits(self):
        # A truncated exploration's verdict depends on visit order, which
        # resumption changes — the cache must stand down.
        config = SynthesisConfig(limits=ExplorationLimits(max_states=100))
        assert not config.prefix_reuse_active
        config = SynthesisConfig(limits=ExplorationLimits(max_depth=3))
        assert not config.prefix_reuse_active

    def test_empty_limits_keep_cache_active(self):
        assert SynthesisConfig(limits=ExplorationLimits()).prefix_reuse_active

    def test_generalisation_gated_like_the_cache(self):
        # A generalised pattern promises the sibling *contains* the
        # counterexample, not that a truncated run reaches it in budget —
        # so exploration limits stand generalisation down too.
        assert SynthesisConfig().generalise_active
        assert not SynthesisConfig(generalise_conflicts=False).generalise_active
        assert not SynthesisConfig(
            limits=ExplorationLimits(max_states=10)
        ).generalise_active
        assert SynthesisConfig(limits=ExplorationLimits()).generalise_active

    def test_generalisation_needs_pruning(self):
        # Without pruning no pattern is recorded, so generalising (and the
        # kernel's hole-path tracking that feeds it) would be dead work.
        config = SynthesisConfig(pruning=False)
        assert not config.generalise_active
        status = {s.name: s for s in config.resolved_accelerations()}
        generalise = status["generalise_conflicts"]
        assert generalise.requested and not generalise.active
        assert generalise.reason == "pruning is off"
        assert status["prefix_reuse"].reason == "pruning is off"
        limited = SynthesisConfig(
            pruning=False, limits=ExplorationLimits(max_states=10)
        )
        reasons = {s.name: s.reason for s in limited.resolved_accelerations()}
        assert reasons["generalise_conflicts"] == "exploration limits are set"

    def test_core_builds_cache_only_when_active(self):
        system = build_figure2_skeleton()
        assert SynthesisCore(system, SynthesisConfig()).prefix_cache is not None
        assert (
            SynthesisCore(system, SynthesisConfig(prefix_reuse=False)).prefix_cache
            is None
        )

    def test_core_adopts_caller_cache(self):
        system = build_figure2_skeleton()
        shared = PrefixCache()
        core = SynthesisCore(system, SynthesisConfig(), prefix_cache=shared)
        assert core.prefix_cache is shared
        # ... but never against the config's wishes.
        core = SynthesisCore(
            system, SynthesisConfig(prefix_reuse=False), prefix_cache=shared
        )
        assert core.prefix_cache is None

"""Content-addressed trace cache: keys, hits, sharing, LRU eviction."""

import dataclasses

import numpy as np
import pytest

from repro.packets.generator import BackboneConfig, generate_backbone
from repro.packets.trace import Trace
from repro.parallel.cache import (
    TraceCache,
    config_key,
    trace_cache,
)

CONFIG = BackboneConfig(duration=2.0, pps=800.0, seed=3)


class TestConfigKey:
    def test_equal_configs_equal_keys(self):
        assert config_key(CONFIG) == config_key(
            BackboneConfig(duration=2.0, pps=800.0, seed=3)
        )

    def test_any_field_change_changes_key(self):
        base = config_key(CONFIG)
        assert config_key(dataclasses.replace(CONFIG, seed=4)) != base
        assert config_key(dataclasses.replace(CONFIG, pps=801.0)) != base
        assert config_key(dataclasses.replace(CONFIG, tcp_fraction=0.8)) != base

    def test_salt_separates_namespaces(self):
        assert config_key(CONFIG) != config_key(CONFIG, salt="attacked")

    def test_key_is_stable_across_processes(self):
        # stable_hash is seed-stable; the key must not depend on object
        # identity or PYTHONHASHSEED.
        assert config_key(CONFIG) == config_key(CONFIG)


class TestTraceCache:
    def test_get_or_generate_caches(self):
        from repro.packets.generator import _generate_backbone

        cache = TraceCache()

        def regenerated_on_a_hit():
            raise AssertionError("regenerated on a hit")

        first = cache.get_or_generate(CONFIG, lambda: _generate_backbone(CONFIG))
        second = cache.get_or_generate(CONFIG, regenerated_on_a_hit)
        assert np.array_equal(first.array, second.array)
        assert cache.hits == 1 and cache.misses == 1
        # The packet array is shared and frozen; side tables are fresh
        # lists, so a caller appending cannot corrupt the cached entry.
        assert second.array is first.array
        assert not second.array.flags.writeable
        assert second.qnames is not first.qnames

    def test_lru_eviction(self):
        cache = TraceCache(max_entries=2)
        for seed in (1, 2, 3):
            cfg = dataclasses.replace(CONFIG, seed=seed)
            cache.get_or_generate(cfg, Trace.empty)
        assert len(cache) == 2
        # seed=1 was evicted; fetching it is a miss again
        misses = cache.misses
        cache.get_or_generate(
            dataclasses.replace(CONFIG, seed=1), Trace.empty
        )
        assert cache.misses == misses + 1


class TestGeneratorIntegration:
    def test_generate_backbone_hits_cache(self):
        trace_cache().clear()
        cfg = dataclasses.replace(CONFIG, seed=91)
        first = generate_backbone(cfg)
        hits = trace_cache().hits
        second = generate_backbone(dataclasses.replace(CONFIG, seed=91))
        assert trace_cache().hits == hits + 1
        assert second.array is first.array  # shared, not regenerated
        assert np.array_equal(first.array, second.array)

    def test_different_config_misses(self):
        trace_cache().clear()
        a = generate_backbone(dataclasses.replace(CONFIG, seed=92))
        b = generate_backbone(dataclasses.replace(CONFIG, seed=93))
        assert trace_cache().hits == 0
        assert not np.array_equal(a.array, b.array)

    def test_cached_trace_is_immutable(self):
        trace_cache().clear()
        trace = generate_backbone(dataclasses.replace(CONFIG, seed=94))
        with pytest.raises(ValueError):
            trace.array["sip"] = 0

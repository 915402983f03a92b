"""LRU plan-cache behavior."""

from repro.service import LRUCache


class TestLRUCache:
    def test_get_put_roundtrip(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=7) == 7

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now least-recent
        cache.put("c", 3)       # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_overwrite_does_not_grow(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_stats_and_hit_rate(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("b")
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_zero_capacity_disables_cache(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_contains_and_clear(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert "a" in cache
        cache.clear()
        assert "a" not in cache

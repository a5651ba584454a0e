"""Result cache: keying, LRU bounds, accounting, fingerprints."""

import pytest

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.errors import ConfigurationError
from repro.kernel.functional import execute_chunked
from repro.serve import (CacheEntry, ResultCache, checksum_sources,
                         fingerprint_fields)
from repro.tune import serve_config


def entry(tag="a"):
    return CacheEntry(checksum=tag, sources=None)  # sources unused here


class TestFingerprints:
    def test_identical_inputs_collide(self):
        grid = Grid(6, 9, 5)
        one = fingerprint_fields(random_wind(grid, seed=3))
        two = fingerprint_fields(random_wind(grid, seed=3))
        assert one == two

    def test_different_seeds_separate(self):
        grid = Grid(6, 9, 5)
        assert (fingerprint_fields(random_wind(grid, seed=3))
                != fingerprint_fields(random_wind(grid, seed=4)))

    def test_dims_are_part_of_the_key(self):
        one = fingerprint_fields(random_wind(Grid(6, 9, 5), seed=3))
        two = fingerprint_fields(random_wind(Grid(6, 9, 6), seed=3))
        assert one != two

    def test_checksum_is_bit_exact(self):
        grid = Grid(6, 9, 5)
        fields = random_wind(grid, seed=1, magnitude=2.0)
        config = serve_config(grid)
        first = checksum_sources(execute_chunked(config, fields))
        second = checksum_sources(execute_chunked(config, fields))
        assert first == second


class TestLRU:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("fp", "functional") is None
        cache.put("fp", "functional", entry())
        assert cache.get("fp", "functional").checksum == "a"
        assert cache.hits == 1 and cache.misses == 1

    def test_mode_is_part_of_the_key(self):
        cache = ResultCache(capacity=4)
        cache.put("fp", "functional", entry("functional-entry"))
        assert cache.get("fp", "exact") is None
        assert cache.get("fp", "functional").checksum == "functional-entry"

    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "functional", entry("a"))
        cache.put("b", "functional", entry("b"))
        cache.get("a", "functional")          # refresh a
        cache.put("c", "functional", entry("c"))  # evicts b
        assert cache.get("b", "functional") is None
        assert cache.get("a", "functional") is not None
        assert cache.evictions == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", "functional", entry())
        assert cache.get("a", "functional") is None
        assert len(cache) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            ResultCache(capacity=-1)

    def test_to_dict_reports_counters(self):
        cache = ResultCache(capacity=2)
        cache.get("a", "functional")
        cache.put("a", "functional", entry())
        cache.get("a", "functional")
        assert cache.to_dict() == {
            "capacity": 2, "entries": 1, "hits": 1, "misses": 1,
            "evictions": 0,
        }

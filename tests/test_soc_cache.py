"""Tests for the cache simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.soc.cache import Cache, CacheHierarchy, lines_of_range
from repro.soc.perf import PerfCounters
from repro.soc.timing import TimingModel


class TestCacheBasics:
    def test_geometry(self):
        cache = Cache(32 * 1024, line_size=32, associativity=4)
        assert cache.num_sets == 256

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(1000, line_size=32, associativity=4)

    def test_cold_miss_then_hit(self):
        cache = Cache(1024, 32, 2)
        assert not cache.access_line(5)
        assert cache.access_line(5)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self):
        # 2-way set: third distinct tag in a set evicts the LRU one.
        cache = Cache(128, 32, 2)  # 2 sets
        lines = [0, 2, 4]  # all map to set 0
        for line in lines:
            cache.access_line(line)
        assert not cache.contains_line(0)
        assert cache.contains_line(2)
        assert cache.contains_line(4)

    def test_lru_refresh_on_hit(self):
        cache = Cache(128, 32, 2)
        cache.access_line(0)
        cache.access_line(2)
        cache.access_line(0)   # refresh 0
        cache.access_line(4)   # evicts 2, not 0
        assert cache.contains_line(0)
        assert not cache.contains_line(2)

    def test_batch_counts_match_single(self):
        a = Cache(512, 32, 2)
        b = Cache(512, 32, 2)
        lines = [1, 2, 3, 1, 2, 9, 1, 17, 1]
        for line in lines:
            a.access_line(line)
        hits, misses = b.access_lines(lines)
        assert (hits, misses) == (a.hits, a.misses)

    def test_reset(self):
        cache = Cache(512, 32, 2)
        cache.access_line(1)
        cache.reset()
        assert cache.occupancy() == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_a_way_array_must_fit_the_cache(self):
        """The C state machines index installed ways by set and way, so
        a stored plan's way array of another length never gets in."""
        import numpy as np

        from repro.soc.cache import _export_ways, install_ways

        cache = Cache(512, 32, 2)  # 8 sets x 2 ways
        with pytest.raises(ValueError, match="does not fit"):
            install_ways(cache, np.full(3, -1))
        ways = np.full(16, -1)
        ways[7 * 2] = 7  # line 7: set 7, MRU way
        install_ways(cache, ways)
        assert cache.contains_line(7) and _export_ways(cache).size == 16


class TestLinesOfRange:
    def test_single_line(self):
        assert list(lines_of_range(0, 4, 32)) == [0]

    def test_straddles_boundary(self):
        assert list(lines_of_range(30, 4, 32)) == [0, 1]

    def test_exact_line(self):
        assert list(lines_of_range(32, 32, 32)) == [1]

    def test_empty(self):
        assert list(lines_of_range(10, 0, 32)) == []


class TestHierarchy:
    def test_l2_catches_l1_evictions(self):
        timing = TimingModel()
        hierarchy = CacheHierarchy(
            timing,
            l1=Cache(128, 32, 2, "L1"),
            l2=Cache(1024, 32, 4, "L2"),
        )
        counters = PerfCounters()
        hierarchy.touch_lines([0, 2, 4], counters)   # 0 evicted from L1
        assert counters.cache_misses == 3
        assert counters.l2_misses == 3
        hierarchy.touch_lines([0], counters)         # L1 miss, L2 hit
        assert counters.cache_misses == 4
        assert counters.l2_misses == 3

    def test_miss_penalties_charged(self):
        timing = TimingModel()
        hierarchy = CacheHierarchy(timing)
        counters = PerfCounters()
        penalty = hierarchy.touch_lines([1000], counters)
        assert penalty == (timing.l1_miss_penalty_cycles
                           + timing.l2_miss_penalty_cycles)
        assert hierarchy.touch_lines([1000], counters) == \
            timing.l1_hit_extra_cycles

    def test_line_size_mismatch_rejected(self):
        timing = TimingModel()
        with pytest.raises(ValueError):
            CacheHierarchy(timing, l1=Cache(128, 32, 2),
                           l2=Cache(1024, 64, 4))


@settings(max_examples=50)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
def test_hits_plus_misses_equals_accesses(lines):
    cache = Cache(1024, 32, 2)
    cache.access_lines(lines)
    assert cache.hits + cache.misses == len(lines)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 500), min_size=1, max_size=300))
def test_occupancy_bounded_by_capacity(lines):
    cache = Cache(512, 32, 2)  # 16 lines capacity
    cache.access_lines(lines)
    assert cache.occupancy() <= 16
    assert cache.occupancy() <= len(set(lines))


@settings(max_examples=50)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=100))
def test_small_working_set_never_evicted(lines):
    # 31 distinct lines spread over 256 sets with 4 ways: no conflicts.
    cache = Cache(32 * 1024, 32, 4)
    cache.access_lines(lines)
    assert cache.misses == len({line for line in lines})


@settings(max_examples=30)
@given(
    lines=st.lists(st.integers(0, 100), min_size=1, max_size=200),
    split=st.integers(1, 199),
)
def test_batch_split_invariance(lines, split):
    whole = Cache(512, 32, 2)
    parts = Cache(512, 32, 2)
    whole.access_lines(lines)
    parts.access_lines(lines[:split])
    parts.access_lines(lines[split:])
    assert (whole.hits, whole.misses) == (parts.hits, parts.misses)

"""Tests for the set-associative cache."""

import pytest

from repro.config.cache import CacheConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.coherence import MESIState


def tiny_cache(assoc=2, sets=4):
    return SetAssociativeCache(
        CacheConfig("T", sets * assoc * 64, assoc, latency=1)
    )


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(5, cycle=0) is None
        cache.insert(5, MESIState.E, cycle=1)
        assert cache.lookup(5, cycle=2) == MESIState.E

    def test_peek_does_not_count(self):
        cache = tiny_cache()
        cache.insert(5, MESIState.M, cycle=0)
        before = cache.stats.tag_accesses
        assert cache.peek(5) == MESIState.M
        assert cache.peek(6) is None
        assert cache.stats.tag_accesses == before

    def test_hit_miss_counters(self):
        cache = tiny_cache()
        cache.lookup(1, 0)
        cache.insert(1, MESIState.S, 0)
        cache.lookup(1, 1)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.tag_accesses == 2

    def test_insert_existing_updates_state(self):
        cache = tiny_cache()
        cache.insert(1, MESIState.S, 0)
        victim = cache.insert(1, MESIState.M, 1)
        assert victim is None
        assert cache.peek(1) == MESIState.M
        assert cache.occupancy() == 1


class TestLruEviction:
    def test_evicts_least_recently_used(self):
        cache = tiny_cache(assoc=2, sets=1)
        cache.insert(0, MESIState.E, cycle=0)
        cache.insert(1, MESIState.E, cycle=1)
        cache.lookup(0, cycle=2)  # touch 0 so 1 is LRU
        victim = cache.insert(2, MESIState.E, cycle=3)
        assert victim == (1, MESIState.E)
        assert cache.peek(0) is not None
        assert cache.peek(1) is None

    def test_dirty_eviction_reported_with_state(self):
        cache = tiny_cache(assoc=1, sets=1)
        cache.insert(0, MESIState.M, cycle=0)
        victim = cache.insert(1, MESIState.E, cycle=1)
        assert victim == (0, MESIState.M)
        assert cache.stats.dirty_evictions == 1

    def test_occupancy_never_exceeds_associativity(self):
        cache = tiny_cache(assoc=2, sets=1)
        for block in range(10):
            cache.insert(block, MESIState.E, cycle=block)
        assert cache.occupancy() == 2

    def test_different_sets_do_not_conflict(self):
        cache = tiny_cache(assoc=1, sets=4)
        for block in range(4):  # blocks 0..3 map to distinct sets
            assert cache.insert(block, MESIState.E, cycle=block) is None
        assert cache.occupancy() == 4


class TestStateManagement:
    def test_set_state(self):
        cache = tiny_cache()
        cache.insert(3, MESIState.E, 0)
        cache.set_state(3, MESIState.M)
        assert cache.peek(3) == MESIState.M

    def test_set_state_missing_raises(self):
        with pytest.raises(KeyError):
            tiny_cache().set_state(3, MESIState.M)

    def test_invalidate_returns_prior_state(self):
        cache = tiny_cache()
        cache.insert(3, MESIState.M, 0)
        assert cache.invalidate(3) == MESIState.M
        assert cache.peek(3) is None
        assert cache.stats.invalidations == 1

    def test_invalidate_absent_returns_none(self):
        cache = tiny_cache()
        assert cache.invalidate(3) is None
        assert cache.stats.invalidations == 0


class TestPrefetchedFlag:
    def test_prefetched_tracking(self):
        cache = tiny_cache()
        cache.insert(7, MESIState.M, 0, prefetched=True)
        assert cache.was_prefetched(7)
        cache.clear_prefetched(7)
        assert not cache.was_prefetched(7)

    def test_prefetch_fill_counter(self):
        cache = tiny_cache()
        cache.insert(7, MESIState.M, 0, prefetched=True)
        cache.insert(8, MESIState.M, 0)
        assert cache.stats.prefetch_fills == 1

    def test_demand_insert_over_prefetched_keeps_flag(self):
        cache = tiny_cache()
        cache.insert(7, MESIState.S, 0, prefetched=True)
        cache.insert(7, MESIState.M, 1)  # upgrade, not prefetched
        assert cache.was_prefetched(7)

    def test_resident_blocks_lists_all(self):
        cache = tiny_cache()
        cache.insert(1, MESIState.E, 0)
        cache.insert(2, MESIState.E, 0)
        assert sorted(cache.resident_blocks()) == [1, 2]


class TestSetsOnFirstTouch:
    """Sets exist only once touched; behaviour matches eager sets."""

    def test_new_cache_builds_no_sets(self):
        cache = SetAssociativeCache(CacheConfig("L3", 16 * 1024 * 1024, 16, latency=40))
        assert len(cache._sets) == 0
        assert cache.occupancy() == 0 and cache.resident_blocks() == []

    def test_lookup_on_untouched_set_is_a_counted_miss(self):
        cache = tiny_cache(assoc=2, sets=4)
        assert cache.lookup(7, cycle=0) is None
        assert cache.lookup_line(6, cycle=0) is None
        assert cache.stats.misses == 2 and cache.stats.tag_accesses == 2
        assert cache.occupancy() == 0

    def test_peek_and_invalidate_on_absent_sets(self):
        cache = tiny_cache(assoc=2, sets=4)
        cache.insert(1, MESIState.E, cycle=0)
        assert cache.peek(2) is None
        assert not cache.was_prefetched(3)
        cache.clear_prefetched(3)
        assert cache.invalidate(2) is None
        assert cache.stats.invalidations == 0
        assert cache.resident_blocks() == [1]

    def test_eviction_order_unchanged_across_sets(self):
        cache = tiny_cache(assoc=2, sets=4)
        # Touch set 3 before set 1: per-set LRU order must not care.
        for cycle, block in enumerate((3, 7, 1, 5)):
            cache.insert(block, MESIState.E, cycle)
        cache.lookup(3, cycle=10)  # 7 becomes set 3's LRU line
        assert cache.insert(11, MESIState.E, cycle=11) == (7, MESIState.E)
        assert cache.insert(9, MESIState.E, cycle=12) == (1, MESIState.E)
        assert cache.resident_blocks() == [5, 9, 3, 11]  # set-index order
        assert cache.stats.evictions == 2

    def test_deepcopy_is_independent(self):
        import copy

        cache = tiny_cache(assoc=2, sets=4)
        cache.insert(1, MESIState.E, 0, prefetched=True)
        cache.insert(5, MESIState.M, 1)
        clone = copy.deepcopy(cache)
        assert clone.resident_blocks() == cache.resident_blocks()
        assert clone.stats == cache.stats and clone.stats is not cache.stats
        clone.set_state(1, MESIState.M)
        clone.clear_prefetched(1)
        assert clone.insert(9, MESIState.E, 2) == (1, MESIState.M)
        assert cache.peek(1) == MESIState.E and cache.was_prefetched(1)
        assert cache.resident_blocks() == [1, 5]
        assert cache.stats.evictions == 0

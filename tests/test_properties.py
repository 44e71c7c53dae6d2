"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.cache import CacheConfig
from repro.config.system import SpbConfig
from repro.core.spb import SpbDetector
from repro.core.store_buffer import StoreBuffer, StoreBufferEntry
from repro.memory.block import (
    block_of,
    blocks_preceding_in_page,
    blocks_remaining_in_page,
    page_of,
)
from repro.memory.cache import SetAssociativeCache
from repro.memory.coherence import Directory, MESIState
from repro.memory.mshr import MSHRFile
from repro.prefetch.stats import PrefetchOutcomeTracker

addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)
blocks = st.integers(min_value=0, max_value=(1 << 40) - 1)


class TestBlockProperties:
    @given(addresses)
    def test_burst_targets_stay_in_page(self, addr):
        page = page_of(addr)
        for block in blocks_remaining_in_page(addr):
            assert page_of(block * 64) == page
            assert block > block_of(addr)

    @given(addresses)
    def test_backward_targets_stay_in_page(self, addr):
        page = page_of(addr)
        for block in blocks_preceding_in_page(addr):
            assert page_of(block * 64) == page
            assert block < block_of(addr)

    @given(addresses)
    def test_forward_and_backward_cover_page_exactly_once(self, addr):
        me = block_of(addr)
        covered = set(blocks_remaining_in_page(addr))
        covered |= set(blocks_preceding_in_page(addr))
        covered.add(me)
        page_start = page_of(addr) * 64
        assert covered == set(range(page_start, page_start + 64))


class TestCacheProperties:
    @given(st.lists(blocks, min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_occupancy_bounded_by_geometry(self, inserts):
        cache = SetAssociativeCache(CacheConfig("T", 8 * 64 * 2, 2, latency=1))
        for cycle, block in enumerate(inserts):
            cache.insert(block, MESIState.E, cycle)
        assert cache.occupancy() <= 8 * 2
        for cache_set in cache._sets.values():
            assert len(cache_set) <= 2

    @given(st.lists(blocks, min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_inserted_block_is_resident_until_evicted(self, inserts):
        cache = SetAssociativeCache(CacheConfig("T", 4 * 64 * 2, 2, latency=1))
        resident = set()
        for cycle, block in enumerate(inserts):
            victim = cache.insert(block, MESIState.E, cycle)
            resident.add(block)
            if victim is not None:
                resident.discard(victim[0])
        assert set(cache.resident_blocks()) == resident

    @given(st.lists(blocks, min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_stats_balance(self, inserts):
        cache = SetAssociativeCache(CacheConfig("T", 4 * 64 * 2, 2, latency=1))
        for cycle, block in enumerate(inserts):
            cache.insert(block, MESIState.M, cycle)
        assert cache.occupancy() == cache.stats.insertions - cache.stats.evictions


class TestStoreBufferProperties:
    @given(st.lists(blocks, min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_fifo_order_preserved(self, push_blocks):
        sb = StoreBuffer(len(push_blocks))
        for i, block in enumerate(push_blocks):
            sb.push(StoreBufferEntry(block, block * 64, 8, pc=i, commit_cycle=i))
        drained = [sb.pop().block for _ in range(len(push_blocks))]
        assert drained == push_blocks

    @given(st.lists(st.tuples(blocks, st.booleans()), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_forwarding_matches_contents(self, events):
        sb = StoreBuffer(1000)
        model: list[int] = []
        for block, do_pop in events:
            if do_pop and model:
                sb.pop()
                model.pop(0)
            else:
                sb.push(StoreBufferEntry(block, block * 64, 8, 0, 0))
                model.append(block)
            probe = block
            assert sb.forwards(probe) == (probe in model)

    @given(st.lists(blocks, min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_occupancy_equals_pushes_minus_drains(self, push_blocks):
        sb = StoreBuffer(100)
        for block in push_blocks:
            sb.push(StoreBufferEntry(block, block * 64, 8, 0, 0))
        drains = len(push_blocks) // 2
        for _ in range(drains):
            sb.pop()
        assert len(sb) == sb.stats.pushes - sb.stats.drains


class TestSpbDetectorProperties:
    @given(st.lists(blocks, min_size=1, max_size=500))
    @settings(max_examples=50)
    def test_counter_stays_in_hardware_range(self, stream):
        detector = SpbDetector(SpbConfig(check_interval=8))
        for block in stream:
            detector.observe(block)
            assert 0 <= detector.counter <= detector.config.counter_max
            assert 0 <= detector.store_count <= detector.config.check_interval

    @given(st.integers(min_value=0, max_value=1 << 30),
           st.integers(min_value=8, max_value=64))
    @settings(max_examples=30)
    def test_dense_run_always_detected(self, start_block, n):
        detector = SpbDetector(SpbConfig(check_interval=n))
        triggered = False
        for i in range(4 * (n + 1) * 8):
            fwd, _ = detector.observe(start_block + i // 8)
            triggered = triggered or fwd
        assert triggered

    @given(st.lists(blocks, min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_windows_account_for_all_stores(self, stream):
        detector = SpbDetector(SpbConfig(check_interval=8))
        for block in stream:
            detector.observe(block)
        assert detector.stats.stores_observed == len(stream)
        assert detector.stats.bursts_triggered <= detector.stats.windows_checked


class TestMshrProperties:
    @given(st.lists(st.tuples(blocks, st.booleans()), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_outstanding_never_negative_and_completion_future(self, requests):
        mshr = MSHRFile(8)
        cycle = 0
        for block, prefetch in requests:
            done = mshr.allocate(block, cycle, 20, prefetch=prefetch)
            assert done > cycle
            assert mshr.outstanding(cycle) >= 1
            cycle += 3

    @given(st.lists(blocks, min_size=2, max_size=50))
    @settings(max_examples=50)
    def test_coalescing_idempotent(self, request_blocks):
        mshr = MSHRFile(64)
        first: dict[int, int] = {}
        for block in request_blocks:
            done = mshr.allocate(block, 0, 100)
            if block in first:
                assert done == first[block]
            else:
                first[block] = done


class TestDirectoryProperties:
    @given(st.lists(st.tuples(st.integers(0, 3), blocks, st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_single_owner_invariant(self, ops):
        directory = Directory(num_cores=4)
        for core, block, is_write in ops:
            if is_write:
                directory.handle_getx(core, block)
            else:
                directory.handle_gets(core, block)
            owner = directory.owner_of(block)
            sharers = directory.sharers_of(block)
            # An owned block has no sharer set; a shared block has no owner.
            assert owner is None or not sharers
            if is_write:
                assert directory.owner_of(block) == core


class TestTrackerProperties:
    @given(st.lists(st.tuples(blocks, st.sampled_from(["issue", "demand", "remove"])),
                    min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_outcomes_conserve_issues(self, events):
        tracker = PrefetchOutcomeTracker()
        issued = set()
        count = 0
        for block, kind in events:
            if kind == "issue":
                if block not in issued:
                    count += 1
                    issued.add(block)
                tracker.on_prefetch_issued(block, completion=50, cycle=0)
            elif kind == "demand":
                tracker.on_demand_store(block, cycle=100)
                issued.discard(block)
            else:
                tracker.on_removed(block)
                issued.discard(block)
        outcomes = tracker.finalize()
        assert outcomes.issued == count

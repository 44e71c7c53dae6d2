"""Unit tests for prefix sharing (repro.sim.prefix) and the copies it makes.

The end-to-end proof that forked cells equal unshared runs lives in
``tests/test_differential.py`` (forked-group matrix and fuzzer); these
tests pin the pieces: the fork point, the prefix key, the run order, the
pause/resume of the fast engine and the independence of deep copies.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.config.system import SpbConfig, SystemConfig
from repro.isa.trace import Trace
from repro.isa.uop import MicroOp, OpKind
from repro.memory.coherence import Directory, MESIState
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mshr import MSHRFile
from repro.sim.prefix import (
    first_store,
    fork_order,
    prefix_key,
    retarget,
    waits_for_stores,
)
from repro.sim.single import new_pipeline, result_of
from repro.workloads.spec import spec2017


def fast(sb=56, policy="at-commit", **kwargs) -> SystemConfig:
    return SystemConfig.skylake(sb_entries=sb, store_prefetch=policy, **kwargs).with_engine(
        "fast"
    )


class TestFirstStore:
    def test_storeless_trace(self):
        trace = Trace([MicroOp(OpKind.INT_ALU, pc=4)] * 5)
        assert first_store(trace) == 5

    def test_first_store_index(self):
        ops = [MicroOp(OpKind.LOAD, pc=4, addr=64, size=8)] * 3
        ops.append(MicroOp(OpKind.STORE, pc=8, addr=128, size=8))
        assert first_store(Trace(ops)) == 3

    def test_real_workload(self):
        assert first_store(spec2017("bwaves", length=6_000, seed=1)) == 4_401
        assert first_store(spec2017("mcf", length=2_000, seed=1)) == 2_000


class TestPrefixKey:
    def test_sb_size_is_masked(self):
        assert prefix_key(fast(sb=14)) == prefix_key(fast(sb=56))

    def test_policies_waiting_for_stores_share_a_key(self):
        keys = {prefix_key(fast(policy=p)) for p in ("none", "at-commit", "spb", "ideal")}
        assert len(keys) == 1
        assert prefix_key(fast(spb=SpbConfig(check_interval=24))) == prefix_key(fast())

    def test_at_execute_keeps_its_policy(self):
        assert not waits_for_stores("at-execute")
        assert prefix_key(fast(policy="at-execute")) != prefix_key(fast())
        assert prefix_key(fast(14, "at-execute")) == prefix_key(fast(56, "at-execute"))

    def test_everything_else_stays_in_the_key(self):
        base = fast()
        coalescing = replace(base, core=replace(base.core, sb_coalescing=True))
        assert prefix_key(coalescing) != prefix_key(base)
        assert prefix_key(fast(cache_prefetcher="none")) != prefix_key(base)
        assert prefix_key(base.with_engine("reference")) == prefix_key(base)


class TestForkOrder:
    def test_shared_keys_run_back_to_back(self):
        order = fork_order(["a", "b", "a", None, "b", "a"])
        assert order == [0, 2, 5, 1, 4, 3]

    def test_none_never_forks(self):
        assert fork_order([None, None]) == [0, 1]


class TestPauseAndResume:
    @pytest.mark.parametrize("pause_before", [0, 3, 1_000, 4_401, 6_000])
    def test_resumed_run_equals_uninterrupted(self, pause_before):
        trace = spec2017("bwaves", length=6_000, seed=1)
        config = fast(sb=14)
        whole = new_pipeline(trace, config, 7)
        whole.run()
        paused = new_pipeline(trace, config, 7)
        paused.run(pause_before=pause_before)
        assert paused._ip <= pause_before  # µop pause_before not dispatched
        paused.run()
        assert result_of(paused) == result_of(whole)

    @pytest.mark.parametrize("length", [0, 2_000], ids=["empty", "storeless"])
    @pytest.mark.parametrize("at", ["start", "end"])
    def test_pause_without_a_store(self, length, at):
        """No fork point inside the trace: the pause still returns and
        resumes exactly (an empty trace runs no cycle either way)."""
        trace = spec2017("mcf", length=length, seed=1) if length else Trace([])
        config = fast(sb=14)
        whole = new_pipeline(trace, config, 7)
        whole.run()
        paused = new_pipeline(trace, config, 7)
        paused.run(pause_before=0 if at == "start" else first_store(trace))
        assert paused._ip <= first_store(trace)
        paused.run()
        assert result_of(paused) == result_of(whole)
        assert (whole.stats.cycles == 0) == (length == 0)

    def test_pause_is_at_the_top_of_the_fork_cycle(self):
        trace = spec2017("bwaves", length=6_000, seed=1)
        pipeline = new_pipeline(trace, fast(), 7)
        pipeline.run(pause_before=first_store(trace))
        width = pipeline.width
        assert first_store(trace) - width < pipeline._ip <= first_store(trace)
        assert pipeline._sq_occupancy == 0 and len(pipeline.sb) == 0

    def test_copy_runs_like_the_original(self):
        trace = spec2017("bwaves", length=6_000, seed=1)
        original = new_pipeline(trace, fast(), 7)
        original.run(pause_before=first_store(trace))
        clone = copy.deepcopy(original)
        assert clone.trace is original.trace and clone._ops is original._ops
        assert clone.hierarchy is not original.hierarchy
        assert clone.engine.hierarchy is clone.hierarchy
        assert clone.hierarchy.prefetch_tracker is clone.engine.tracker
        clone.run()
        original.run()
        assert result_of(clone) == result_of(original)

    def test_retarget_refuses_an_engine_that_acted(self):
        trace = spec2017("bwaves", length=6_000, seed=1)
        pipeline = new_pipeline(trace, fast(), 7)
        pipeline.run()  # past the fork point: stores committed
        with pytest.raises(RuntimeError, match="fork point"):
            retarget(pipeline, fast(sb=14, policy="spb"))


class TestDeepCopies:
    def test_mshr_copy_is_independent(self):
        mshr = MSHRFile(1)
        mshr.allocate(1, cycle=0, service_latency=10)
        assert mshr.allocate(2, cycle=0, service_latency=10, prefetch=True) == 20
        clone = copy.deepcopy(mshr)
        assert clone.promote(2, cycle=1) == 11  # queued prefetch restarts
        assert clone.stats.promotions == 1
        assert mshr.stats.promotions == 0 and mshr._by_block[2].prefetch
        assert mshr.in_flight(2, cycle=1) == 20
        clone.allocate(3, cycle=30, service_latency=5)
        assert 3 not in mshr._by_block and mshr.outstanding(0) == 1

    def test_directory_copy_is_independent(self):
        directory = Directory(2)
        directory.handle_gets(0, 7)
        directory.handle_gets(1, 7)
        clone = copy.deepcopy(directory)
        clone.handle_getx(0, 7)
        assert clone.owner_of(7) == 0 and not clone.sharers_of(7)
        assert directory.sharers_of(7) == {0, 1}
        assert directory.stats.getx_requests == 0

    def test_hierarchy_copy_registers_its_own_hooks(self):
        hierarchy = MemoryHierarchy(SystemConfig().caches)
        hierarchy.load(5, cycle=0)
        clone = copy.deepcopy(hierarchy)
        assert clone.uncore is not hierarchy.uncore
        hook = clone.uncore._invalidate_hooks[clone.core_id]()
        assert hook.__self__ is clone
        assert hierarchy.uncore._invalidate_hooks[0]().__self__ is hierarchy
        hook(5)  # a back-invalidation reaches the copy only
        assert clone.l1d.peek(5) is None
        assert hierarchy.l1d.peek(5) in (MESIState.E, MESIState.S)

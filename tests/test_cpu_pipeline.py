"""Tests for the out-of-order pipeline model."""

import pytest

from repro.config import SystemConfig
from repro.core.policies import build_store_prefetch_engine
from repro.cpu.pipeline import Pipeline
from repro.isa.trace import Trace
from repro.isa.uop import MicroOp, OpKind
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch import build_prefetcher
from repro.sim.fastpath import FastPipeline

from tests.conftest import make_store_run


def run_pipeline(ops, config=None, policy=None):
    config = config or SystemConfig()
    if policy is not None:
        config = config.with_policy(policy)
    hierarchy = MemoryHierarchy(
        config.caches, prefetcher=build_prefetcher(config.cache_prefetcher)
    )
    engine = build_store_prefetch_engine(config.store_prefetch, hierarchy, config.spb)
    pipeline = Pipeline(config, Trace(ops), hierarchy, engine)
    stats = pipeline.run()
    return pipeline, stats


class TestBasicExecution:
    def test_commits_every_uop(self):
        ops = [MicroOp(OpKind.INT_ALU, pc=i) for i in range(100)]
        _, stats = run_pipeline(ops)
        assert stats.committed_uops == 100

    def test_ipc_bounded_by_width(self):
        ops = [MicroOp(OpKind.INT_ALU, pc=i) for i in range(1000)]
        _, stats = run_pipeline(ops)
        assert 0 < stats.ipc <= 4.0

    def test_independent_alus_reach_full_width(self):
        ops = [MicroOp(OpKind.INT_ALU, pc=i) for i in range(4000)]
        _, stats = run_pipeline(ops)
        assert stats.ipc > 3.0

    def test_dependency_chain_serialises(self):
        chained = [
            MicroOp(OpKind.INT_DIV, pc=i, dep_distance=1) for i in range(200)
        ]
        _, chained_stats = run_pipeline(chained)
        parallel = [MicroOp(OpKind.INT_DIV, pc=i) for i in range(200)]
        _, parallel_stats = run_pipeline(parallel)
        assert chained_stats.cycles > 3 * parallel_stats.cycles

    def test_empty_trace_finishes(self):
        _, stats = run_pipeline([])
        assert stats.committed_uops == 0

    def test_done_after_run(self):
        pipeline, _ = run_pipeline([MicroOp(OpKind.INT_ALU)])
        assert pipeline.done()


class TestStores:
    def test_store_counts(self):
        _, stats = run_pipeline(make_store_run(0x1000, 16))
        assert stats.committed_stores == 16

    def test_sb_drains_completely(self):
        pipeline, _ = run_pipeline(make_store_run(0x1000, 100))
        assert pipeline.sb.is_empty
        assert pipeline.sb.stats.drains == 100

    def test_store_without_prefetch_serialises(self):
        # Eight pages of stores with no prefetching: each block miss is
        # exposed at the SB head.
        none_stats = run_pipeline(make_store_run(0x1000, 256), policy="none")[1]
        commit_stats = run_pipeline(make_store_run(0x1000, 256), policy="at-commit")[1]
        assert none_stats.cycles > commit_stats.cycles

    def test_small_sb_stalls_more(self):
        ops = make_store_run(0x1000, 512)
        big = run_pipeline(ops, SystemConfig.skylake(sb_entries=56))[1]
        small = run_pipeline(ops, SystemConfig.skylake(sb_entries=14))[1]
        assert small.sb_stall_cycles > big.sb_stall_cycles
        assert small.cycles >= big.cycles

    def test_ideal_sb_never_stalls(self):
        _, stats = run_pipeline(make_store_run(0x1000, 512), policy="ideal")
        assert stats.sb_stall_cycles == 0

    def test_sb_stall_attributed_to_store_pc(self):
        ops = make_store_run(0x1000, 512, pc=0xBEEF)
        _, stats = run_pipeline(ops, SystemConfig.skylake(sb_entries=14))
        assert stats.sb_stall_cycles > 0
        assert set(stats.sb_stall_by_pc) == {0xBEEF}
        assert sum(stats.sb_stall_by_pc.values()) == stats.sb_stall_cycles


class TestLoads:
    def test_load_forwarding_from_sb(self):
        # A load right after stores to the same block forwards from the SB.
        ops = make_store_run(0x1000, 4)
        ops.append(MicroOp(OpKind.LOAD, pc=0x99, addr=0x1000, size=8))
        pipeline, stats = run_pipeline(ops)
        assert pipeline.sb.stats.forwarding_hits >= 1

    def test_load_miss_latency_counted(self):
        ops = [MicroOp(OpKind.LOAD, pc=1, addr=0x100000, size=8)]
        _, stats = run_pipeline(ops)
        assert stats.load_wait_cycles > 200  # DRAM-bound

    def test_warm_load_is_fast(self):
        ops = [
            MicroOp(OpKind.LOAD, pc=1, addr=0x100000, size=8),
            MicroOp(OpKind.NOP, pc=2, dep_distance=1),
            MicroOp(OpKind.LOAD, pc=3, addr=0x100000, size=8, dep_distance=1),
        ]
        _, stats = run_pipeline(ops)
        # Second load hits L1: total wait is one miss (plus its TLB walk)
        # and one hit.
        assert stats.load_wait_cycles < 360


class TestBranches:
    def test_mispredict_injects_wrong_path(self):
        ops = [MicroOp(OpKind.BRANCH, pc=1, mispredicted=True)]
        _, stats = run_pipeline(ops)
        assert stats.mispredicted_branches == 1
        assert stats.wrong_path_uops > 0

    def test_mispredict_stalls_frontend(self):
        ops = [MicroOp(OpKind.BRANCH, pc=1, mispredicted=True)]
        ops += [MicroOp(OpKind.INT_ALU, pc=2) for _ in range(8)]
        _, stats = run_pipeline(ops)
        assert stats.stalls.frontend > 0

    def test_correct_branches_cost_nothing_extra(self):
        ops = [MicroOp(OpKind.BRANCH, pc=i) for i in range(100)]
        _, stats = run_pipeline(ops)
        assert stats.wrong_path_uops == 0
        assert stats.stalls.frontend == 0

    def test_load_dependent_branch_resolves_slowly(self):
        fast = [
            MicroOp(OpKind.BRANCH, pc=1, mispredicted=True),
            MicroOp(OpKind.INT_ALU, pc=2),
        ]
        slow = [
            MicroOp(OpKind.LOAD, pc=1, addr=0x200000, size=8),
            MicroOp(OpKind.BRANCH, pc=2, mispredicted=True, dep_distance=1),
            MicroOp(OpKind.INT_ALU, pc=3),
        ]
        _, fast_stats = run_pipeline(fast)
        _, slow_stats = run_pipeline(slow)
        assert slow_stats.wrong_path_uops >= fast_stats.wrong_path_uops


class TestResourceLimits:
    def test_load_queue_limits_dispatch(self):
        config = SystemConfig()
        ops = [
            MicroOp(OpKind.LOAD, pc=i, addr=0x400000 + 64 * i, size=8)
            for i in range(300)
        ]
        _, stats = run_pipeline(ops, config)
        assert stats.stalls.load_queue_full > 0

    def test_rob_fills_behind_slow_head(self):
        ops = [MicroOp(OpKind.LOAD, pc=0, addr=0x800000, size=8)]
        ops += [MicroOp(OpKind.INT_ALU, pc=i + 1) for i in range(400)]
        _, stats = run_pipeline(ops)
        assert stats.stalls.rob_full > 0

    def test_exec_stall_with_l1d_miss_pending(self):
        ops = [MicroOp(OpKind.LOAD, pc=0, addr=0x800000, size=8)]
        ops += [MicroOp(OpKind.INT_ALU, pc=1, dep_distance=1)]
        _, stats = run_pipeline(ops)
        assert stats.exec_stall_l1d_pending > 0


class TestSmtPartitioning:
    def test_smt4_behaves_like_quarter_sb(self):
        ops = make_store_run(0x1000, 512)
        smt4 = SystemConfig(core=SystemConfig().core.with_smt(4))
        quarter = SystemConfig.skylake(sb_entries=14)
        _, smt_stats = run_pipeline(ops, smt4)
        _, quarter_stats = run_pipeline(ops, quarter)
        assert smt_stats.cycles == quarter_stats.cycles


class TestDeterminism:
    def test_same_trace_same_result(self):
        ops = make_store_run(0x1000, 128)
        _, a = run_pipeline(ops, policy="spb")
        _, b = run_pipeline(ops, policy="spb")
        assert a.cycles == b.cycles
        assert a.committed_uops == b.committed_uops

    @pytest.mark.parametrize(
        "pipeline_class", [Pipeline, FastPipeline], ids=lambda cls: cls.__name__
    )
    def test_runaway_guard(self, pipeline_class):
        config = SystemConfig()
        trace = Trace(make_store_run(0x1000, 64))
        for limit in (10, -1):
            hierarchy = MemoryHierarchy(config.caches)
            engine = build_store_prefetch_engine("none", hierarchy)
            stuck = pipeline_class(config, trace, hierarchy, engine)
            with pytest.raises(RuntimeError, match=f"exceeded {limit} cycles") as excinfo:
                stuck.run(max_cycles=limit)
            if pipeline_class is FastPipeline:
                assert excinfo.traceback[-1].name == "cycle_kernel"

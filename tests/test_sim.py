"""Tests for the simulation runner, results cache and sweeps."""

import pytest

from repro import ResultsCache, SystemConfig, simulate, spec2017
from repro.config.system import StorePrefetchPolicy
from repro.sim.sweep import (
    geomean,
    normalized_performance,
    policy_sweep,
    sb_size_sweep,
)


class TestSimulate:
    def test_result_fields_populated(self):
        result = simulate(spec2017("gcc", length=10_000), SystemConfig())
        assert result.workload == "gcc"
        assert result.policy == "at-commit"
        assert result.sb_entries == 56
        assert result.cycles > 0
        assert result.pipeline.committed_uops == 10_000
        assert result.energy is not None

    def test_detector_stats_only_for_spb(self):
        trace = spec2017("gcc", length=5_000)
        spb = simulate(trace, SystemConfig().with_policy("spb"))
        base = simulate(trace, SystemConfig())
        assert spb.detector_stats is not None
        assert base.detector_stats is None

    def test_deterministic(self):
        trace = spec2017("bwaves", length=10_000)
        a = simulate(trace, SystemConfig())
        b = simulate(trace, SystemConfig())
        assert a.cycles == b.cycles
        assert a.traffic.l1_miss_requests == b.traffic.l1_miss_requests

    def test_sb_entries_reports_per_thread_size(self):
        cfg = SystemConfig(core=SystemConfig().core.with_smt(2))
        result = simulate(spec2017("gcc", length=5_000), cfg)
        assert result.sb_entries == 28


class TestWarmup:
    def test_measures_only_the_remainder(self):
        trace = spec2017("bwaves", length=20_000)
        result = simulate(trace, SystemConfig(), warmup=5_000)
        assert result.pipeline.committed_uops == 15_000

    def test_warm_run_not_slower_than_cold_remainder(self):
        from repro.isa.trace import Trace

        trace = spec2017("bwaves", length=20_000)
        rest = Trace(list(trace)[5_000:], name="rest", regions=trace.regions)
        cold = simulate(rest, SystemConfig())
        warm = simulate(trace, SystemConfig(), warmup=5_000)
        assert warm.cycles <= cold.cycles * 1.02

    def test_counters_reset_after_warmup(self):
        trace = spec2017("gcc", length=10_000)
        full = simulate(trace, SystemConfig())
        warm = simulate(trace, SystemConfig(), warmup=5_000)
        assert warm.traffic.demand_loads < full.traffic.demand_loads

    def test_warmup_larger_than_trace_is_ignored(self):
        trace = spec2017("gcc", length=5_000)
        result = simulate(trace, SystemConfig(), warmup=10_000)
        assert result.pipeline.committed_uops == 5_000


class TestResultsCache:
    def test_caches_by_config(self):
        cache = ResultsCache()
        cfg = SystemConfig()
        a = cache.get(spec2017, "gcc", 5_000, cfg)
        b = cache.get(spec2017, "gcc", 5_000, cfg)
        assert a is b
        assert len(cache) == 1

    def test_distinct_configs_not_shared(self):
        cache = ResultsCache()
        cache.get(spec2017, "gcc", 5_000, SystemConfig())
        cache.get(spec2017, "gcc", 5_000, SystemConfig().with_sb(14))
        assert len(cache) == 2

    def test_distinct_lengths_not_shared(self):
        cache = ResultsCache()
        cache.get(spec2017, "gcc", 5_000, SystemConfig())
        cache.get(spec2017, "gcc", 6_000, SystemConfig())
        assert len(cache) == 2

    def test_clear(self):
        cache = ResultsCache()
        cache.get(spec2017, "gcc", 5_000, SystemConfig())
        cache.clear()
        assert len(cache) == 0


class TestGeomean:
    def test_basic(self):
        assert abs(geomean([1.0, 4.0]) - 2.0) < 1e-9

    def test_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_empty_is_zero(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        with pytest.warns(RuntimeWarning, match="geomean dropped 1"):
            assert geomean([0.0, 2.0, 8.0]) == pytest.approx(4.0)


class TestSweeps:
    def test_policy_sweep_shape(self):
        cache = ResultsCache()
        results = policy_sweep(
            cache, spec2017, ["gcc", "bwaves"], sb_entries=28,
            policies=["at-commit", "spb"], length=5_000,
        )
        assert set(results) == {"gcc", "bwaves"}
        assert set(results["gcc"]) == {"at-commit", "spb"}

    def test_sb_size_sweep_shape(self):
        cache = ResultsCache()
        results = sb_size_sweep(
            cache, spec2017, ["gcc"], sb_sizes=[14, 56],
            policy="at-commit", length=5_000,
        )
        assert set(results["gcc"]) == {14, 56}
        assert results["gcc"][14].sb_entries == 14

    def test_sweeps_share_cache(self):
        cache = ResultsCache()
        policy_sweep(cache, spec2017, ["gcc"], 56, ["at-commit"], 5_000)
        before = len(cache)
        sb_size_sweep(cache, spec2017, ["gcc"], [56], "at-commit", 5_000)
        assert len(cache) == before  # same (app, config) reused

    def test_normalized_performance(self):
        cache = ResultsCache()
        ideal_cfg = SystemConfig.skylake(sb_entries=1024, store_prefetch="ideal")
        ideal = {"gcc": cache.get(spec2017, "gcc", 5_000, ideal_cfg)}
        base = {"gcc": cache.get(spec2017, "gcc", 5_000, SystemConfig())}
        norm = normalized_performance(base, ideal)
        assert 0 < norm["gcc"] <= 1.05

    def test_policy_enum_accepted(self):
        cache = ResultsCache()
        results = policy_sweep(
            cache, spec2017, ["gcc"], 56,
            policies=[StorePrefetchPolicy.AT_COMMIT], length=5_000,
        )
        assert "at-commit" in results["gcc"]


class TestSplitWarmup:
    """The shared warm-up slicer both engines must go through."""

    def test_splits_at_the_boundary(self):
        from repro.sim.runner import split_warmup

        trace = spec2017("gcc", length=4_000)
        warm, rest = split_warmup(trace, 1_500)
        assert len(warm) == 1_500
        assert len(rest) == 2_500
        assert list(warm) + list(rest) == list(trace)
        assert warm.name == rest.name == trace.name

    def test_zero_warmup_is_single_slice(self):
        from repro.sim.runner import split_warmup

        trace = spec2017("gcc", length=1_000)
        warm, rest = split_warmup(trace, 0)
        assert warm is None
        assert rest is trace

    def test_warmup_covering_whole_trace_is_single_slice(self):
        # The single-slice edge case: a warm-up as long as (or longer than)
        # the trace would leave nothing to measure, so the run is measured
        # end to end instead.
        from repro.sim.runner import split_warmup

        trace = spec2017("gcc", length=1_000)
        for warmup in (1_000, 5_000):
            warm, rest = split_warmup(trace, warmup)
            assert warm is None
            assert rest is trace

    def test_negative_warmup_is_single_slice(self):
        from repro.sim.runner import split_warmup

        trace = spec2017("gcc", length=500)
        warm, rest = split_warmup(trace, -3)
        assert warm is None
        assert rest is trace

    def test_single_slice_edge_identical_across_engines(self):
        # warmup == len(trace) must behave identically on both engines
        # (neither may "run the warm-up then measure nothing").
        trace = spec2017("bwaves", length=2_000)
        for engine in ("reference", "fast"):
            result = simulate(trace, SystemConfig(engine=engine), warmup=2_000)
            assert result.pipeline.committed_uops == 2_000


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SystemConfig(engine="turbo")

    def test_with_engine_returns_modified_copy(self):
        base = SystemConfig.skylake()
        fast = base.with_engine("fast")
        assert base.engine == "reference"
        assert fast.engine == "fast"
        assert fast.with_engine("reference") == base

    def test_cache_key_is_engine_independent(self):
        # Both engines compute the same result, so they must share
        # results-cache and on-disk store entries.
        base = SystemConfig.skylake(sb_entries=14)
        assert base.cache_key() == base.with_engine("fast").cache_key()
        assert base.cache_key() != base.with_sb(56).cache_key()

    def test_pipeline_class_mapping(self):
        from repro.cpu.pipeline import Pipeline
        from repro.sim.fastpath import FastPipeline, pipeline_class

        assert pipeline_class("reference") is Pipeline
        assert pipeline_class("fast") is FastPipeline
        with pytest.raises(ValueError):
            pipeline_class("turbo")

    def test_fast_engine_used_by_simulate(self):
        trace = spec2017("exchange2", length=2_000)
        ref = simulate(trace, SystemConfig.skylake(sb_entries=14))
        fast = simulate(
            trace, SystemConfig.skylake(sb_entries=14, engine="fast")
        )
        assert ref.cycles == fast.cycles
        assert ref.pipeline == fast.pipeline


class TestSharedTraceWork:
    def test_fast_arrays_computed_once_per_trace(self):
        from repro.sim.fastpath import uop_arrays

        trace = spec2017("bwaves", length=2_000)
        config = SystemConfig.skylake(sb_entries=14, engine="fast")
        first = simulate(trace, config)
        arrays = uop_arrays(trace, config.caches.block_bytes)
        second = simulate(trace, config.with_policy("spb"))
        assert uop_arrays(trace, config.caches.block_bytes) is arrays
        assert uop_arrays(trace, 2 * config.caches.block_bytes) is not arrays
        # Shared arrays are read-only: re-running the first cell on them
        # reproduces it exactly.
        assert simulate(trace, config) == first
        assert second != first


class TestNoReferenceCycles:
    """A finished run must be freed by reference counting alone.

    The uncore holds its cores' coherence hooks; held strongly, every run
    would leave its hierarchies in a cycle that only the cyclic garbage
    collector frees, and dead hierarchies pile up between collections.
    """

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_simulate(self, engine):
        import gc

        trace = spec2017("bwaves", length=2_000)
        config = SystemConfig.skylake(
            sb_entries=14, store_prefetch="spb", engine=engine
        )
        gc.collect()
        simulate(trace, config)
        assert gc.collect() == 0

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_simulate_multicore(self, engine):
        import gc

        from repro import parsec
        from repro.sim.runner import simulate_multicore

        traces = parsec("dedup", threads=4, length=1_500)
        config = SystemConfig.skylake(
            sb_entries=14, store_prefetch="spb", num_cores=4, engine=engine
        )
        gc.collect()
        simulate_multicore(traces, config)
        assert gc.collect() == 0

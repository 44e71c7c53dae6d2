"""Building one single-core system and assembling its result.

Shared by :func:`repro.sim.runner.simulate` and the prefix sharing in
:mod:`repro.sim.prefix`, so a forked cell is built and reported by exactly
the code an unshared run uses.
"""

from __future__ import annotations

from repro.config.system import SystemConfig
from repro.core.policies import SpbPrefetch, build_store_prefetch_engine
from repro.cpu.pipeline import Pipeline
from repro.energy.model import EnergyModel
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch import build_prefetcher
from repro.sim.fastpath import pipeline_class
from repro.stats.result import SimResult
from repro.stats.topdown import TopDownMetrics


def new_system(config: SystemConfig):
    """A fresh single-core memory hierarchy and store-prefetch engine."""
    hierarchy = MemoryHierarchy(
        config.caches, prefetcher=build_prefetcher(config.cache_prefetcher)
    )
    engine = build_store_prefetch_engine(config.store_prefetch, hierarchy, config.spb)
    return hierarchy, engine


def new_pipeline(trace: Trace, config: SystemConfig, seed: int) -> Pipeline:
    """A new single-core system for ``config``, ready to run ``trace``."""
    hierarchy, engine = new_system(config)
    return pipeline_class(config.engine)(config, trace, hierarchy, engine, seed=seed)


def result_of(pipeline: Pipeline) -> SimResult:
    """The :class:`SimResult` of a finished single-core run."""
    config, trace = pipeline.config, pipeline.trace
    hierarchy, engine, stats = pipeline.hierarchy, pipeline.engine, pipeline.stats
    outcomes = engine.tracker.finalize()
    detector_stats = engine.detector.stats if isinstance(engine, SpbPrefetch) else None
    result = SimResult(
        workload=trace.name,
        config_key=config.cache_key(),
        policy=config.store_prefetch.value,
        sb_entries=config.core.store_buffer_per_thread,
        pipeline=stats,
        topdown=TopDownMetrics.from_stats(stats, config.core.width),
        traffic=hierarchy.traffic,
        l1_stats=hierarchy.l1d.stats,
        l2_stats=hierarchy.l2.stats,
        l3_stats=hierarchy.uncore.l3.stats,
        prefetch_outcomes=outcomes,
        sb_stats=pipeline.sb.stats,
        engine_stats=engine.stats,
        detector_stats=detector_stats,
    )
    result.energy = EnergyModel().evaluate(result)
    result.extras["regions"] = stats.stalls_by_region(trace.region_of)
    result.extras["l1_mshr"] = hierarchy.l1_mshr.stats
    return result

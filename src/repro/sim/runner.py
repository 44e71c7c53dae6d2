"""Top-level simulation entry points.

``simulate`` runs one workload trace through one system configuration and
returns a :class:`SimResult`; ``simulate_multicore`` does the same for a
multi-threaded workload.  Because every experiment in the paper compares the
same workloads across many configurations, :class:`ResultsCache` memoises
runs by content key (:attr:`repro.campaign.Job.key`) so benchmark files can
share work.
"""

from __future__ import annotations

from typing import Sequence

from repro.config.system import SystemConfig
from repro.core.policies import SpbPrefetch
from repro.core.spb import SpbStats
from repro.isa.trace import Trace
from repro.memory.cache import CacheStats
from repro.memory.dram import DramStats
from repro.memory.hierarchy import MemoryHierarchy, TrafficStats
from repro.memory.mshr import MSHRStats
from repro.memory.tlb import TLBStats
from repro.multicore.system import MulticoreResult, MulticoreSystem
from repro.prefetch.stats import PrefetchOutcomeTracker
from repro.sim.fastpath import pipeline_class
from repro.sim.prefix import PrefixShare, can_fork
from repro.sim.single import new_system, result_of
from repro.stats.result import SimResult


def split_warmup(trace: Trace, warmup: int) -> tuple[Trace | None, Trace]:
    """Split ``trace`` into its warm-up slice and the measured remainder.

    This is the single source of truth for warm-up slicing: every engine
    (reference and fast) measures exactly the same µops because both go
    through this helper.  A non-positive ``warmup`` or one that covers the
    whole trace yields no warm-up slice (the run is measured end to end) —
    the single-slice edge case.
    """
    if warmup <= 0 or warmup >= len(trace):
        return None, trace
    ops = list(trace)  # materialise once; both halves share the list
    warm = Trace(ops[:warmup], name=trace.name, regions=trace.regions)
    rest = Trace(ops[warmup:], name=trace.name, regions=trace.regions)
    return warm, rest


def _reset_measurement_state(hierarchy: MemoryHierarchy, engine) -> None:
    """Zero every statistics counter while keeping architectural state.

    Used between the warm-up and measured portions of a run: caches, TLB,
    directory contents and the SPB detector's registers survive; the
    counters start fresh, mirroring the paper's "statistics are gathered
    after a brief warm-up of the caches".
    """
    hierarchy.traffic = TrafficStats()
    hierarchy.l1d.stats = CacheStats()
    hierarchy.l2.stats = CacheStats()
    hierarchy.l1_mshr.stats = MSHRStats()
    if hierarchy.tlb is not None:
        hierarchy.tlb.stats = TLBStats()
    hierarchy.uncore.l3.stats = CacheStats()
    hierarchy.uncore.l3_mshr.stats = MSHRStats()
    hierarchy.uncore.dram.stats = DramStats()
    engine.tracker = PrefetchOutcomeTracker()
    hierarchy.prefetch_tracker = engine.tracker
    engine.stats = type(engine.stats)()
    if isinstance(engine, SpbPrefetch):
        engine.detector.stats = SpbStats()


def _attach_tracer(tracer, hierarchy: MemoryHierarchy, engine) -> None:
    """Point every event producer in one core's slice at ``tracer``.

    Attachment is a plain attribute write on each producer (the convention
    :func:`repro.trace.tracer.attach_tracer` documents), so the measured
    phase of a warmed-up run can start tracing after the warm-up ran
    untraced — the event stream then covers exactly the cycles the reset
    counters cover, which is what the shadow check compares against.
    """
    hierarchy.tracer = tracer
    hierarchy.l1_mshr.tracer = tracer
    engine.tracer = tracer
    if isinstance(engine, SpbPrefetch):
        engine.detector.tracer = tracer


def simulate(
    trace: Trace, config: SystemConfig, seed: int = 7, warmup: int = 0,
    tracer=None, *, prefix: PrefixShare | None = None,
) -> SimResult:
    """Run ``trace`` on the machine described by ``config``.

    When ``warmup`` is positive, the first ``warmup`` µops run first to warm
    the caches, TLB and predictor state; every statistic then resets and
    only the remainder of the trace is measured.  ``tracer`` (a
    :class:`repro.trace.Tracer`, or ``None`` for zero-overhead silence)
    observes the measured portion only, mirroring the counters.

    ``prefix`` lets the cells of ``trace`` it was built for share their
    pre-store prefix (:mod:`repro.sim.prefix`); runs that
    :func:`~repro.sim.prefix.can_fork` rejects ignore it.  The result is
    the same either way.
    """
    if prefix is not None and can_fork(config, warmup, tracer):
        return prefix.simulate(trace, config, seed)
    hierarchy, engine = new_system(config)
    cls = pipeline_class(config.engine)
    start_cycle = 0
    warm_part, trace = split_warmup(trace, warmup)
    if warm_part is not None:
        warm_pipeline = cls(config, warm_part, hierarchy, engine, seed=seed)
        warm_pipeline.run()
        start_cycle = warm_pipeline.cycle
        _reset_measurement_state(hierarchy, engine)
    if tracer is not None:
        _attach_tracer(tracer, hierarchy, engine)
    pipeline = cls(
        config, trace, hierarchy, engine, seed=seed, start_cycle=start_cycle,
        tracer=tracer,
    )
    pipeline.run()
    return result_of(pipeline)


def simulate_multicore(
    traces: Sequence[Trace],
    config: SystemConfig,
    seed: int = 7,
    tracer=None,
) -> MulticoreResult:
    """Run one per-core trace each on a coherent multi-core system.

    ``config.engine`` picks the scheduler ("reference" or "fast"); the
    choice never changes results — the multicore differential matrix
    proves the event-heap scheduler bit-identical to the lockstep oracle —
    only how quickly they arrive.
    """
    system = MulticoreSystem(config, list(traces), seed=seed, tracer=tracer)
    return system.run()


class ResultsCache:
    """Two-tier memoisation of runs by content key.

    The first tier is an in-process dictionary; an optional second tier is a
    persistent on-disk store (any object with ``load(key)``/``save(key,
    result)``, normally :class:`repro.campaign.ResultStore`) so results
    survive across sessions and a figure-suite re-run only simulates cells
    whose configuration changed.  Benchmarks share one module cache so,
    e.g., the at-commit/SB56 baseline is simulated once and reused by every
    figure that normalises against it.

    Hit/miss counters make the effect of each tier measurable:
    ``memory_hits``, ``disk_hits`` and ``misses`` (= simulations performed).
    """

    def __init__(self, store=None) -> None:
        self._results: dict[str, SimResult] = {}
        self.store = store
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    @property
    def hits(self) -> int:
        """Lookups served without simulating (memory + disk)."""
        return self.memory_hits + self.disk_hits

    def lookup(self, key: str) -> SimResult | None:
        """Fetch a cached result by content key, or count a miss."""
        result = self._results.get(key)
        if result is not None:
            self.memory_hits += 1
            return result
        if self.store is not None:
            result = self.store.load(key)
            if result is not None:
                self.disk_hits += 1
                self._results[key] = result
                return result
        self.misses += 1
        return None

    def insert(self, key: str, result: SimResult) -> None:
        """Record a freshly simulated result in both tiers."""
        self._results[key] = result
        if self.store is not None:
            self.store.save(key, result)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for session summaries."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "entries": len(self._results),
        }

    def clear(self) -> None:
        self._results.clear()

    def __len__(self) -> int:
        return len(self._results)

"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerTracer` wraps public calls of each simulator layer (class
methods, module functions and the campaign's workload factories) so every
call becomes a span on one in-memory stack.  A layer's self time is its
spans' duration minus the part its child spans cover.  Only per-layer
aggregates are kept (seconds of self time, seconds inclusive, call count):
a single sweep makes millions of memory-layer calls, too many to keep as
individual records.

Wrappers go on the classes, not on instances, and must be installed before
any system is built: the fast engines bind ``hierarchy.load`` and friends
once per run, so a method patched after that binding would be missed.
:meth:`LayerTracer.uninstall` restores every original attribute.

:func:`simulated_layers` turns the returned results into the simulated
per-layer statistics (SB, SPB, MSHR, cache misses, ...), which need no
tracing at all.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from repro.campaign import executor, job as job_module, store as store_module
from repro.core import policies, spb
from repro.cpu import pipeline
from repro.memory import hierarchy
from repro.multicore import system as multicore_system
from repro.prefetch import base as prefetch_base
from repro.sim import fastpath, runner


class LayerTracer:
    """Span stack plus per-layer totals for every wrapped call."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.store_bytes = 0
        self.generated: list[tuple] = []  # one identity per trace generation
        self.live_multicore: list = []  # MulticoreResults with live pipelines
        self._child_ns = [0]  # child time of each open span; [0] is the root
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(self, layer: str, func):
        """``func`` with each call recorded as a span of ``layer``."""
        child_ns = self._child_ns
        self_ns, total_ns, calls = self.self_ns, self.total_ns, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_ns.pop()
                child_ns[-1] += elapsed
                self_ns[layer] += elapsed - children
                total_ns[layer] += elapsed
                calls[layer] += 1

        return traced

    def reset(self) -> None:
        """Forget every span and count so far (wrappers stay installed)."""
        self.self_ns.clear()
        self.total_ns.clear()
        self.calls.clear()
        self.store_bytes = 0
        self.generated.clear()
        self.live_multicore.clear()

    def seconds(self, layer: str, inclusive: bool = False) -> float:
        table = self.total_ns if inclusive else self.self_ns
        return table.get(layer, 0) / 1e9

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, layer: str) -> None:
        original = owner.__dict__[name]
        self._restore.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original))

    def install(self) -> None:
        """Wrap every layer boundary; call before any system is built."""
        if self._restore:
            raise RuntimeError("layer wrappers are already installed")
        # campaign: executor entry, job keys, result store
        self._patch(executor, "run_campaign", "campaign.executor")
        key_property = job_module.Job.__dict__["key"]
        self._restore.append((job_module.Job, "key", key_property))
        job_module.Job.key = property(
            self.wrap("campaign.key", key_property.fget)
        )
        self._install_store()
        # workloads: the campaign resolves factories through this table
        factories = job_module._FACTORIES
        for kind in list(factories):
            self._restore.append((factories, kind, factories[kind]))
            factories[kind] = self._generator(kind, factories[kind])
        # sim: the executor calls these through its own module globals
        self._install_simulate()
        # memory
        self._patch(hierarchy.MemoryHierarchy, "__init__", "memory.init")
        self._patch(hierarchy.SharedUncore, "__init__", "memory.init")
        self._patch(hierarchy.MemoryHierarchy, "load", "memory.load")
        self._patch(hierarchy.MemoryHierarchy, "store_permission", "memory.store")
        self._patch(hierarchy.MemoryHierarchy, "perform_store", "memory.store")
        # prefetch: the cache prefetcher's proposals and the fills they cause
        self._patch(prefetch_base.PrefetcherBase, "on_demand", "prefetch")
        self._patch(hierarchy.MemoryHierarchy, "prefetch_block", "prefetch")
        # cpu
        self._patch(pipeline.Pipeline, "__init__", "cpu.init")
        self._patch(fastpath.FastPipeline, "__init__", "cpu.init")
        self._patch(pipeline.Pipeline, "run", "cpu.run")
        self._patch(fastpath.FastPipeline, "run", "cpu.run")
        # core: store-prefetch policies and the SPB detector
        for cls in (
            policies.StorePrefetchEngine,
            policies.AtExecutePrefetch,
            policies.AtCommitPrefetch,
            policies.SpbPrefetch,
            policies.IdealStorePrefetch,
        ):
            for name in (
                "_issue", "_burst", "on_store_executed", "on_store_committed",
                "on_wrong_path_store", "on_store_performed",
            ):
                if name in cls.__dict__:
                    self._patch(cls, name, "core.policy")
        self._patch(spb.SpbDetector, "observe", "core.spb.observe")
        # multicore: the scheduler's run loop drives every core's pipeline,
        # so its self time is CPU-model time (``cpu.run``)
        self._patch(multicore_system.MulticoreSystem, "__init__", "multicore.build")
        self._patch(multicore_system.MulticoreSystem, "run", "cpu.run.multicore")

    def _install_store(self) -> None:
        cls = store_module.ResultStore
        load, save = cls.__dict__["load"], cls.__dict__["save"]
        traced_load = self.wrap("campaign.store.load", load)
        traced_save = self.wrap("campaign.store.save", save)
        tracer = self

        def load_and_count(store, key):
            result = traced_load(store, key)
            if result is not None:
                tracer.store_bytes += os.path.getsize(store.path_for(key))
            return result

        def save_and_count(store, key, result):
            path = traced_save(store, key, result)
            tracer.store_bytes += os.path.getsize(path)
            return path

        self._restore += [(cls, "load", load), (cls, "save", save)]
        cls.load, cls.save = load_and_count, save_and_count

    def _install_simulate(self) -> None:
        traced = self.wrap("sim.simulate", runner.simulate)
        traced_multicore = self.wrap("sim.simulate", runner.simulate_multicore)
        live = self.live_multicore

        def simulate_multicore(*args, **kwargs):
            result = traced_multicore(*args, **kwargs)
            live.append(result)  # before run_job strips the pipelines
            return result

        for module in (runner, executor):
            self._restore.append((module, "simulate", module.simulate))
            self._restore.append(
                (module, "simulate_multicore", module.simulate_multicore)
            )
            module.simulate = traced
            module.simulate_multicore = simulate_multicore

    def _generator(self, kind: str, factory):
        traced = self.wrap("workloads.gen", factory)
        generated = self.generated

        @functools.wraps(factory)
        def generate(name, **kwargs):
            generated.append((kind, name, tuple(sorted(kwargs.items()))))
            return traced(name, **kwargs)

        return generate

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def host_metrics(self, committed_uops: int, cycles: int) -> dict[str, tuple]:
        """Host-time per-layer metrics as ``name -> (value, unit)``."""
        calls = self.calls
        gen_calls = calls.get("workloads.gen", 0)
        cpu_run = self.seconds("cpu.run") + self.seconds("cpu.run.multicore")
        return {
            "workloads.gen_s": (self.seconds("workloads.gen"), "s"),
            "workloads.gen_calls": (gen_calls, "count"),
            "workloads.distinct_ratio": (
                len(set(self.generated)) / gen_calls if gen_calls else 0.0,
                "ratio",
            ),
            "campaign.key_s": (self.seconds("campaign.key"), "s"),
            "campaign.store.load_s": (self.seconds("campaign.store.load"), "s"),
            "campaign.store.save_s": (self.seconds("campaign.store.save"), "s"),
            "campaign.store.bytes": (self.store_bytes, "B"),
            "campaign.executor.self_s": (self.seconds("campaign.executor"), "s"),
            "sim.simulate_s": (self.seconds("sim.simulate", inclusive=True), "s"),
            "sim.self_s": (self.seconds("sim.simulate"), "s"),
            "memory.init_s": (self.seconds("memory.init"), "s"),
            "cpu.init_s": (self.seconds("cpu.init"), "s"),
            "cpu.run_self_s": (cpu_run, "s"),
            "cpu.ns_per_uop": (
                cpu_run * 1e9 / committed_uops if committed_uops else 0.0, "ns"
            ),
            "cpu.ns_per_cycle": (cpu_run * 1e9 / cycles if cycles else 0.0, "ns"),
            "memory.load_s": (self.seconds("memory.load"), "s"),
            "memory.load_calls": (calls.get("memory.load", 0), "count"),
            "memory.store_s": (self.seconds("memory.store"), "s"),
            "memory.store_calls": (calls.get("memory.store", 0), "count"),
            "core.policy_s": (self.seconds("core.policy"), "s"),
            "core.spb.observe_s": (self.seconds("core.spb.observe"), "s"),
            "core.spb.observe_calls": (calls.get("core.spb.observe", 0), "count"),
            "prefetch.s": (self.seconds("prefetch"), "s"),
            "prefetch.calls": (calls.get("prefetch", 0), "count"),
            "multicore.build_s": (self.seconds("multicore.build"), "s"),
            "multicore.run_s": (
                self.seconds("cpu.run.multicore", inclusive=True), "s"
            ),
        }


def _core_views(result) -> list[tuple]:
    """``(pipeline stats, sb, engine stats, detector, l1d, l2, mshr, traffic,
    outcomes)`` per core of one single-core or live multicore result."""
    if hasattr(result, "pipeline"):  # SimResult
        return [(
            result.pipeline, result.sb_stats, result.engine_stats,
            result.detector_stats, result.l1_stats, result.l2_stats,
            result.extras["l1_mshr"], result.traffic, result.prefetch_outcomes,
        )]
    views = []
    for pipe in result.pipelines:
        engine, hier = pipe.engine, pipe.hierarchy
        detector = getattr(engine, "detector", None)
        views.append((
            pipe.stats, pipe.sb.stats, engine.stats,
            detector.stats if detector is not None else None,
            hier.l1d.stats, hier.l2.stats, hier.l1_mshr.stats, hier.traffic,
            engine.tracker.finalize(),
        ))
    return views


#: Simulated per-layer statistics and their units.
SIMULATED_UNITS = {
    "cpu.cycles": "cycles",
    "cpu.sb_stall_cycles": "cycles",
    "cpu.exec_stall_l1d_pending": "cycles",
    "core.sb.pushes": "count",
    "core.sb.drains": "count",
    "core.sb.coalesced": "count",
    "core.sb.full_events": "count",
    "core.sb.mean_occupancy": "entries",
    "core.spb.windows_checked": "count",
    "core.spb.bursts_triggered": "count",
    "core.spb.trigger_rate": "ratio",
    "core.policy.prefetches_issued": "count",
    "core.policy.burst_blocks_requested": "count",
    "prefetch.success_rate": "ratio",
    "memory.l1d.misses": "count",
    "memory.l2.misses": "count",
    "memory.l3.misses": "count",
    "memory.l1_mshr.allocations": "count",
    "memory.l1_mshr.full_delays": "count",
    "memory.traffic.l1_miss_requests": "count",
    "memory.traffic.discarded_prefetch_requests": "count",
    "multicore.invalidations": "count",
    "energy.total": "J",
}


def simulated_layers(results: list) -> dict[str, tuple]:
    """Simulated per-layer statistics summed over ``results``.

    ``results`` holds :class:`SimResult`\\ s and multicore results whose live
    ``pipelines`` are still attached (the campaign strips them, so the
    traced run keeps them from :func:`repro.sim.runner.simulate_multicore`).
    Energy is modelled for single-core runs only, so multicore runs add
    none; ``multicore.invalidations`` comes from the shared directory.
    """
    sums: dict[str, float] = defaultdict(float)
    occupancy: list[float] = []
    prefetch_issued = prefetch_successful = 0
    for result in results:
        if hasattr(result, "pipeline"):
            sums["memory.l3.misses"] += result.l3_stats.misses
            sums["energy.total"] += result.energy.total_j
        else:
            uncore = result.pipelines[0].hierarchy.uncore
            sums["memory.l3.misses"] += uncore.l3.stats.misses
            sums["multicore.invalidations"] += (
                uncore.directory.stats.invalidations_sent
            )
        for (stats, sb, engine, detector, l1d, l2, mshr, traffic,
             outcomes) in _core_views(result):
            sums["cpu.cycles"] += stats.cycles
            sums["cpu.sb_stall_cycles"] += stats.sb_stall_cycles
            sums["cpu.exec_stall_l1d_pending"] += stats.exec_stall_l1d_pending
            for name in ("pushes", "drains", "coalesced", "full_events"):
                sums[f"core.sb.{name}"] += getattr(sb, name)
            occupancy.append(sb.mean_occupancy)
            if detector is not None:
                sums["core.spb.windows_checked"] += detector.windows_checked
                sums["core.spb.bursts_triggered"] += detector.bursts_triggered
            sums["core.policy.prefetches_issued"] += engine.prefetches_issued
            sums["core.policy.burst_blocks_requested"] += (
                engine.burst_blocks_requested
            )
            prefetch_issued += outcomes.issued
            prefetch_successful += outcomes.successful
            sums["memory.l1d.misses"] += l1d.misses
            sums["memory.l2.misses"] += l2.misses
            sums["memory.l1_mshr.allocations"] += mshr.allocations
            sums["memory.l1_mshr.full_delays"] += mshr.full_delays
            sums["memory.traffic.l1_miss_requests"] += traffic.l1_miss_requests
            sums["memory.traffic.discarded_prefetch_requests"] += (
                traffic.discarded_prefetch_requests
            )
    windows = sums["core.spb.windows_checked"]
    sums["core.sb.mean_occupancy"] = (
        sum(occupancy) / len(occupancy) if occupancy else 0.0
    )
    sums["core.spb.trigger_rate"] = (
        sums["core.spb.bursts_triggered"] / windows if windows else 0.0
    )
    sums["prefetch.success_rate"] = (
        prefetch_successful / prefetch_issued if prefetch_issued else 0.0
    )
    return {
        name: (
            sums[name] if unit in ("ratio", "entries", "J") else int(sums[name]),
            unit,
        )
        for name, unit in SIMULATED_UNITS.items()
    }

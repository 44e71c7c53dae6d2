"""Prefix sharing: fork a sweep's config cells from one pre-store snapshot.

The paper's sweeps cross every workload with SB sizes and store-prefetch
policies.  Neither can act before the first store dispatches: SB capacity
is only consulted when a store dispatches, and the none / at-commit / SPB /
Ideal engines only react to stores (at-execute also reacts to *wrong-path*
stores, which occur from the first mispredict on, so it keeps its policy).
Every such cell therefore simulates the same cycles up to its trace's
first store.

A :class:`PrefixShare`, built from the configs of one trace's forkable
cells, simulates that shared prefix once per key.  The first cell of a
prefix key runs :meth:`FastPipeline.run
<repro.sim.fastpath.FastPipeline.run>` to the *fork point* (the top of the
first cycle with ``ip + width > first_store``), leaves a deep copy there,
and runs on to its end.  Each later cell with the same key copies that
snapshot, swaps in its own store-prefetch engine and SB capacity
(:func:`retarget`) and runs on; the last one takes the snapshot itself.
Results are bit-identical to unshared runs, which the group cases of
:mod:`repro.sim.diffcheck` prove against the reference engine.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from collections import Counter
from dataclasses import asdict
from typing import Iterable, Sequence

from repro.config.system import StorePrefetchPolicy, SystemConfig
from repro.core.policies import (
    StorePrefetchEngine,
    StorePrefetchEngineStats,
    build_store_prefetch_engine,
    engine_class,
)
from repro.cpu.pipeline import Pipeline
from repro.isa.trace import Trace
from repro.isa.uop import OpKind
from repro.sim.single import new_pipeline, result_of
from repro.stats.result import SimResult


def first_store(trace: Trace) -> int:
    """Index of ``trace``'s first store, or ``len(trace)`` if it has none."""

    def scan() -> int:
        for index, op in enumerate(trace):
            if op.kind is OpKind.STORE:
                return index
        return len(trace)

    return trace.derived("prefix.first_store", scan)


def waits_for_stores(policy: StorePrefetchPolicy | str) -> bool:
    """True when ``policy``'s engine does nothing before a store dispatches.

    That is every engine that keeps the base no-op ``on_wrong_path_store``;
    their cells share a prefix whatever the policy.
    """
    return (
        engine_class(policy).on_wrong_path_store
        is StorePrefetchEngine.on_wrong_path_store
    )


def can_fork(config: SystemConfig, warmup: int = 0, tracer=None) -> bool:
    """Whether a run may share its prefix.

    Only untraced, unwarmed fast-engine runs fork: a tracer must see every
    event of its own run, a warm-up phase runs its own pipeline first, and
    the reference engine stays the unshared oracle.
    """
    return config.engine == "fast" and warmup <= 0 and tracer is None


def prefix_key(config: SystemConfig) -> str:
    """Identity of the pre-store prefix a ``config`` cell simulates.

    The config's content hash with ``core.store_buffer_entries`` masked,
    and ``store_prefetch``/``spb`` masked too when the policy waits for
    stores.  The engine is left out, as in :meth:`SystemConfig.cache_key`.
    """
    payload = asdict(config)
    payload.pop("engine", None)
    payload["core"].pop("store_buffer_entries")
    if waits_for_stores(config.store_prefetch):
        payload.pop("store_prefetch")
        payload.pop("spb")
    digest = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(digest).hexdigest()[:16]


def fork_order(keys: Sequence[str | None]) -> list[int]:
    """Run order for cells with these prefix keys, as indices into ``keys``.

    Cells sharing a key run back to back, keys in first-appearance order.
    A ``None`` key never forks.
    """
    runs: dict[str | int, list[int]] = {}
    for index, key in enumerate(keys):
        runs.setdefault(index if key is None else key, []).append(index)
    return [index for indices in runs.values() for index in indices]


def retarget(pipeline: Pipeline, config: SystemConfig) -> None:
    """Point a pipeline paused at its fork point at another cell's config.

    ``config`` must share the pipeline's :func:`prefix_key`.  The
    store-prefetch engine is rebuilt when the policy waits for stores (its
    constructor re-points ``hierarchy.prefetch_tracker``); SB capacity is
    swapped in place, keeping the SB statistics the prefix gathered.
    """
    if waits_for_stores(config.store_prefetch):
        old = pipeline.engine
        if old.stats != StorePrefetchEngineStats() or old.tracker._pending:
            raise RuntimeError(
                "store-prefetch engine acted before the fork point; "
                "its cells cannot share a prefix"
            )
        pipeline.engine = build_store_prefetch_engine(
            config.store_prefetch, pipeline.hierarchy, config.spb
        )
    pipeline.config = config
    capacity = config.core.store_buffer_per_thread
    pipeline.sq_capacity = capacity
    pipeline.sb.capacity = capacity
    pipeline.sq_unbounded = pipeline.engine.unbounded_sb


class PrefixShare:
    """The pre-store prefixes of one trace, shared by its forkable cells.

    Built from the configs of every cell that will run through it, the
    share counts per :func:`prefix_key` how many cells are still to run.
    While others remain, :meth:`simulate` keeps a snapshot per (key, seed)
    at the fork point (simulating the prefix if none exists yet); the last
    cell of a key takes the snapshot itself.  A share serves one trace and
    refuses a second.

    A storeless trace never reaches a fork point: the prefix is the whole
    run, so the snapshot is the finished run and each later cell only
    retargets it and reads its result (a deep copy of it while others will
    still read the same statistics objects).  Counters record how many
    prefixes ran, how many copies of a paused run were made and what each
    copy cost.
    """

    def __init__(self, configs: Iterable[SystemConfig]) -> None:
        configs = list(configs)
        self._keys = {config: prefix_key(config) for config in set(configs)}
        self._remaining = Counter(self._keys[config] for config in configs)
        self._snapshots: dict[tuple[str, int], Pipeline] = {}
        self._trace: Trace | None = None
        self.prefix_runs = 0
        self.fork_seconds: list[float] = []  # one entry per snapshot copy

    @property
    def forks(self) -> int:
        return len(self.fork_seconds)

    def key(self, config: SystemConfig) -> str | None:
        """``config``'s prefix key, or ``None`` if it is not one of the cells."""
        return self._keys.get(config)

    def holds_snapshot(self) -> bool:
        return bool(self._snapshots)

    def _copy(self, pipeline: Pipeline) -> Pipeline:
        started = time.perf_counter()
        clone = copy.deepcopy(pipeline)
        self.fork_seconds.append(time.perf_counter() - started)
        return clone

    def simulate(self, trace: Trace, config: SystemConfig, seed: int) -> SimResult:
        """The result of ``config`` on ``trace``, forked where possible."""
        if self._trace is None:
            self._trace = trace
        elif trace is not self._trace:
            raise ValueError("a PrefixShare serves the cells of one trace")
        key = self._keys.get(config)
        if key is None:
            raise ValueError("config is not one of the share's cells")
        self._remaining[key] -= 1
        last = self._remaining[key] <= 0
        identity = (key, seed)
        snapshot = (
            self._snapshots.pop(identity, None) if last else self._snapshots.get(identity)
        )
        if snapshot is None:
            pipeline = new_pipeline(trace, config, seed)
            if last:
                pipeline.run()
                return result_of(pipeline)
            fork_at = first_store(trace)
            pipeline.run(pause_before=fork_at if fork_at < len(trace) else None)
            self.prefix_runs += 1
            if pipeline.done():  # storeless: the finished run is the snapshot
                self._snapshots[identity] = pipeline
                return copy.deepcopy(result_of(pipeline))
            self._snapshots[identity] = self._copy(pipeline)
        elif snapshot.done():
            retarget(snapshot, config)
            result = result_of(snapshot)
            return result if last else copy.deepcopy(result)
        else:
            pipeline = snapshot if last else self._copy(snapshot)
            retarget(pipeline, config)
        pipeline.run()
        return result_of(pipeline)

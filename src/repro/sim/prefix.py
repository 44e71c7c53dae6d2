"""Prefix sharing: fork a sweep's config cells from one pre-store snapshot.

The paper's sweeps cross every workload with SB sizes and store-prefetch
policies.  Neither can act before the first store dispatches: SB capacity
is only consulted when a store dispatches, and the none / at-commit / SPB /
Ideal engines only react to stores (at-execute also reacts to *wrong-path*
stores, which occur from the first mispredict on, so it keeps its policy).
Every such cell therefore simulates the same cycles up to its trace's
first store.

A :class:`PrefixSlot` simulates that shared prefix once.  The first cell
of a prefix key runs :meth:`FastPipeline.run
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
from dataclasses import asdict
from typing import Sequence

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


def fork_order(keys: Sequence[str | None]) -> list[tuple[int, int]]:
    """Run order for cells with these prefix keys, with each one's followers.

    Cells sharing a key run back to back, keys in first-appearance order;
    each cell is paired (by index into ``keys``) with the number of later
    cells that will fork from its prefix.  A ``None`` key never forks.
    """
    runs: dict[str | int, list[int]] = {}
    for index, key in enumerate(keys):
        runs.setdefault(index if key is None else key, []).append(index)
    return [
        (index, len(indices) - position - 1)
        for indices in runs.values()
        for position, index in enumerate(indices)
    ]


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


class PrefixSlot:
    """At most one paused run, shared by the cells of one prefix key.

    The owner sets :attr:`followers` before each run to the number of later
    runs that will ask for the same (trace, seed, prefix key).  With
    followers left, :meth:`simulate` keeps a snapshot at the fork point
    (simulating the prefix if no matching snapshot exists); with none, the
    run takes the snapshot itself and the slot empties.

    A storeless trace never reaches a fork point: the prefix is the whole
    run, so the snapshot is the finished run and each later cell only
    retargets it and reads its result (a deep copy of it while others will
    still read the same statistics objects).  Counters record how many
    prefixes ran, how many copies of a paused run were made and what each
    copy cost.
    """

    def __init__(self) -> None:
        self.followers = 0
        self.prefix_runs = 0
        self.fork_seconds: list[float] = []  # one entry per snapshot copy
        self._snapshot: Pipeline | None = None
        self._identity: tuple | None = None

    @property
    def forks(self) -> int:
        return len(self.fork_seconds)

    def holds_snapshot(self) -> bool:
        return self._snapshot is not None

    def clear(self) -> None:
        self._snapshot = self._identity = None

    def _copy(self, pipeline: Pipeline) -> Pipeline:
        started = time.perf_counter()
        clone = copy.deepcopy(pipeline)
        self.fork_seconds.append(time.perf_counter() - started)
        return clone

    def simulate(self, trace: Trace, config: SystemConfig, seed: int) -> SimResult:
        """The result of ``config`` on ``trace``, forked where possible."""
        identity = (prefix_key(config), seed)
        snapshot = self._snapshot
        followers = self.followers
        if snapshot is None or snapshot.trace is not trace or identity != self._identity:
            self.clear()
            pipeline = new_pipeline(trace, config, seed)
            if followers <= 0:
                pipeline.run()
                return result_of(pipeline)
            fork_at = first_store(trace)
            pipeline.run(pause_before=fork_at if fork_at < len(trace) else None)
            self.prefix_runs += 1
            self._identity = identity
            if pipeline.done():  # storeless: the finished run is the snapshot
                self._snapshot = pipeline
                return copy.deepcopy(result_of(pipeline))
            self._snapshot = self._copy(pipeline)
        else:
            if followers <= 0:
                self.clear()
            if snapshot.done():
                retarget(snapshot, config)
                result = result_of(snapshot)
                return copy.deepcopy(result) if followers > 0 else result
            pipeline = self._copy(snapshot) if followers > 0 else snapshot
            retarget(pipeline, config)
        pipeline.run()
        return result_of(pipeline)

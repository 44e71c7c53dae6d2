"""Timing model of the private L1D/L2 plus shared L3 hierarchy.

Each core owns a :class:`MemoryHierarchy` (private L1D and L2, an L1 MSHR
file, an attached cache prefetcher).  All cores share a :class:`SharedUncore`
(inclusive L3, full-map directory, DRAM).  Requests resolve immediately in
machine state but return a *completion cycle*, so the pipeline can overlap
misses without the hierarchy ticking every cycle.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config.cache import CacheHierarchyConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.coherence import Directory, MESIState, WRITABLE_STATES
from repro.memory.dram import DramPort
from repro.memory.mshr import MSHRFile
from repro.memory.tlb import TLB


class AccessResult:
    """Outcome of one hierarchy access.

    A plain ``__slots__`` class rather than a dataclass: one is built per
    hierarchy access, which makes construction cost part of the simulator's
    hot path (frozen-dataclass ``__init__`` pays an ``object.__setattr__``
    per field).
    """

    __slots__ = ("completion", "level", "coalesced")

    def __init__(self, completion: int, level: str, coalesced: bool = False) -> None:
        self.completion = completion
        self.level = level  # "L1", "L2", "L3" or "MEM" — where found
        self.coalesced = coalesced

    @property
    def l1_hit(self) -> bool:
        return self.level == "L1"

    def __repr__(self) -> str:  # diagnostics only
        return (
            f"AccessResult(completion={self.completion}, level={self.level!r}, "
            f"coalesced={self.coalesced})"
        )


@dataclass
class TrafficStats:
    """Request/traffic counters behind Figures 12 and 13."""

    cpu_store_prefetch_requests: int = 0  # REQ: store prefetches sent to L1
    discarded_prefetch_requests: int = 0  # PopReq: block already writable
    demand_loads: int = 0
    demand_stores: int = 0
    wrong_path_loads: int = 0
    l1_miss_requests: int = 0  # MISS: requests L1 forwards to L2
    prefetch_miss_requests: int = 0  # subset of the above caused by prefetches
    writebacks: int = 0


class SharedUncore:
    """Shared L3, coherence directory and DRAM interface."""

    def __init__(self, config: CacheHierarchyConfig, num_cores: int = 1) -> None:
        self.config = config
        self.l3 = SetAssociativeCache(config.l3)
        self.directory = Directory(num_cores)
        # Table I gives the L3 its MSHRs per bank; we model one bank per core.
        self.l3_mshr = MSHRFile(config.l3.mshr_entries * max(1, num_cores))
        self._l3_latency = config.l3.latency
        self._dram_latency = config.dram_latency
        self.dram = DramPort(
            channels=config.dram_channels,
            burst_cycles=config.dram_burst_cycles,
        )
        # Weak references: each core's hierarchy holds the uncore, so strong
        # hooks back to the hierarchy would make every finished run a
        # reference cycle that only the cyclic garbage collector frees.
        self._invalidate_hooks: dict[int, weakref.WeakMethod] = {}
        self._downgrade_hooks: dict[int, weakref.WeakMethod] = {}

    def __deepcopy__(self, memo: dict) -> "SharedUncore":
        """Independent copy of the shared state, without any core hooks.

        Hooks are bound to the hierarchies that registered them; a copied
        :class:`MemoryHierarchy` registers its own on the copied uncore.
        """
        clone = object.__new__(SharedUncore)
        memo[id(self)] = clone
        for name, value in self.__dict__.items():
            if name in ("_invalidate_hooks", "_downgrade_hooks"):
                value = {}
            elif name != "config":
                value = copy.deepcopy(value, memo)
            clone.__dict__[name] = value
        return clone

    def register_core(
        self,
        core_id: int,
        invalidate: Callable[[int], None],
        downgrade: Callable[[int], None],
    ) -> None:
        """Register callbacks for remote invalidations/downgrades.

        Both must be bound methods; they are held weakly, and a hook whose
        object is gone is skipped.
        """
        self._invalidate_hooks[core_id] = weakref.WeakMethod(invalidate)
        self._downgrade_hooks[core_id] = weakref.WeakMethod(downgrade)

    def fetch(
        self,
        core_id: int,
        block: int,
        cycle: int,
        *,
        want_write: bool,
        prefetch: bool,
    ) -> tuple[int, str]:
        """Resolve a request that missed the private levels.

        Returns ``(latency_beyond_l2, level_found)`` and applies all
        coherence side effects (invalidating or downgrading remote copies).
        """
        state = self.l3.lookup(block, cycle)
        if want_write:
            extra, to_invalidate = self.directory.handle_getx(
                core_id, block, prefetch=prefetch
            )
            for victim_core in to_invalidate:
                hook = self._invalidate_hooks.get(victim_core)
                if hook is not None and (callback := hook()) is not None:
                    callback(block)
        else:
            extra, downgrade_owner = self.directory.handle_gets(core_id, block)
            if downgrade_owner is not None:
                hook = self._downgrade_hooks.get(downgrade_owner)
                if hook is not None and (callback := hook()) is not None:
                    callback(block)
        if state is not None:
            return self._l3_latency + extra, "L3"
        # Miss in L3: fetch from memory through the L3 MSHRs and a
        # bandwidth-limited DRAM channel (demand transfers have priority).
        queue_delay = self.dram.schedule(cycle, prefetch=prefetch)
        service = self._l3_latency + self._dram_latency + queue_delay
        completion = self.l3_mshr.allocate(block, cycle, service, prefetch=prefetch)
        self._fill_l3(block, cycle)
        return (completion - cycle) + extra, "MEM"

    def _fill_l3(self, block: int, cycle: int) -> None:
        victim = self.l3.insert(block, MESIState.S, cycle)
        if victim is not None:
            victim_block, _ = victim
            # Inclusive L3: back-invalidate every private copy.
            for hook in self._invalidate_hooks.values():
                if (callback := hook()) is not None:
                    callback(victim_block)

    def grant_state(self, core_id: int, block: int, want_write: bool) -> MESIState:
        """Stable state the requesting private cache should install."""
        if want_write:
            return MESIState.M
        if self.directory.owner_of(block) == core_id and not self.directory.sharers_of(block):
            return MESIState.E
        return MESIState.S


class MemoryHierarchy:
    """Private-cache view of one core, backed by a shared uncore."""

    def __init__(
        self,
        config: CacheHierarchyConfig,
        uncore: SharedUncore | None = None,
        core_id: int = 0,
        prefetcher=None,
        tracer=None,
    ) -> None:
        self.config = config
        self.core_id = core_id
        self.tracer = tracer
        self.uncore = uncore or SharedUncore(config, num_cores=1)
        self.l1d = SetAssociativeCache(config.l1d)
        self.l2 = SetAssociativeCache(config.l2)
        self.l1_mshr = MSHRFile(config.l1d.mshr_entries, tracer=tracer, core=core_id)
        self.tlb: TLB | None = None
        if config.tlb_entries:
            self.tlb = TLB(
                entries=config.tlb_entries,
                associativity=config.tlb_associativity,
                walk_latency=config.tlb_walk_latency,
            )
        self._blocks_per_page = config.blocks_per_page
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self.traffic = TrafficStats()
        self.prefetcher = prefetcher
        self.prefetch_tracker = None  # attached by the store-prefetch engine
        self._inflight_write: set[int] = set()  # blocks with ownership in flight
        self.uncore.register_core(core_id, self._remote_invalidate, self._remote_downgrade)

    def __deepcopy__(self, memo: dict) -> "MemoryHierarchy":
        """Independent copy of this core's slice and its uncore.

        The config and tracer are shared; the copy registers its own
        coherence hooks on the (copied) uncore, which is how a forked
        single-core run gets a machine of its own.
        """
        clone = object.__new__(MemoryHierarchy)
        memo[id(self)] = clone
        for name, value in self.__dict__.items():
            if name not in ("config", "tracer"):
                value = copy.deepcopy(value, memo)
            clone.__dict__[name] = value
        clone.uncore.register_core(
            clone.core_id, clone._remote_invalidate, clone._remote_downgrade
        )
        return clone

    # ------------------------------------------------------------------
    # Coherence callbacks from the uncore
    # ------------------------------------------------------------------
    def _remote_invalidate(self, block: int) -> None:
        state = self.l1d.invalidate(block)
        self.l2.invalidate(block)
        if state == MESIState.M:
            self.traffic.writebacks += 1
        if state is not None and self.prefetch_tracker is not None:
            self.prefetch_tracker.on_removed(block)

    def _remote_downgrade(self, block: int) -> None:
        for cache in (self.l1d, self.l2):
            if cache.peek(block) in WRITABLE_STATES:
                cache.set_state(block, MESIState.S)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evict_handling(self, victim: tuple[int, MESIState] | None) -> None:
        if victim is None:
            return
        victim_block, victim_state = victim
        if victim_state == MESIState.M:
            self.traffic.writebacks += 1
            # Dirty data falls back to L2 (still this core's copy).
            self.l2.insert(victim_block, MESIState.M, 0)
        else:
            self.uncore.directory.handle_eviction(self.core_id, victim_block, victim_state)
        if self.prefetch_tracker is not None:
            self.prefetch_tracker.on_removed(victim_block)

    def _miss_path(
        self, block: int, cycle: int, *, want_write: bool, prefetch: bool
    ) -> AccessResult:
        """Resolve an L1 miss through L2, L3 and memory."""
        l1_mshr = self.l1_mshr
        traffic = self.traffic
        in_flight = l1_mshr.in_flight(block, cycle)
        if in_flight is not None and (not want_write or block in self._inflight_write):
            if not prefetch:
                in_flight = l1_mshr.promote(block, cycle) or in_flight
            return AccessResult(in_flight, "L2", True)
        if want_write:
            self._inflight_write.add(block)
            if len(self._inflight_write) > 4 * l1_mshr.capacity:
                self._inflight_write = {
                    b
                    for b in self._inflight_write
                    if l1_mshr.in_flight(b, cycle) is not None
                }
        traffic.l1_miss_requests += 1
        if prefetch:
            traffic.prefetch_miss_requests += 1
        l2_state = self.l2.lookup(block, cycle)
        if l2_state is not None and (not want_write or l2_state in WRITABLE_STATES):
            service = self._l2_latency
            level = "L2"
        else:
            beyond, level = self.uncore.fetch(
                self.core_id, block, cycle, want_write=want_write, prefetch=prefetch
            )
            service = self._l2_latency + beyond
        completion = l1_mshr.allocate(block, cycle, service, prefetch=prefetch)
        state = (
            self.uncore.grant_state(self.core_id, block, want_write)
            if level in ("L3", "MEM")
            else (MESIState.M if want_write else l2_state)
        )
        if want_write and state not in WRITABLE_STATES:
            state = MESIState.M
        self._evict_handling(self.l1d.insert(block, state, cycle, prefetched=prefetch))
        self._evict_handling(self.l2.insert(block, state, cycle, prefetched=prefetch))
        return AccessResult(completion, level)

    def _run_prefetcher(self, block: int, hit: bool, is_store: bool, cycle: int) -> None:
        if self.prefetcher is None:
            return
        for target, want_write in self.prefetcher.on_demand(block, hit, is_store, cycle):
            self.prefetch_block(target, cycle, want_write=want_write)

    # ------------------------------------------------------------------
    # Public access methods
    # ------------------------------------------------------------------
    def load(self, block: int, cycle: int, *, wrong_path: bool = False) -> AccessResult:
        """Demand (or wrong-path) load of a block."""
        traffic = self.traffic
        l1_mshr = self.l1_mshr
        if wrong_path:
            traffic.wrong_path_loads += 1
        else:
            traffic.demand_loads += 1
            if self.tlb is not None:
                cycle += self.tlb.translate(block // self._blocks_per_page, cycle)
        line = self.l1d.lookup_line(block, cycle)
        if line is not None:
            # Inlined MSHR fast check: most hits have nothing in flight for
            # the block, so probe the entry table once before paying the
            # ``promote`` call (which re-probes and handles the rare
            # queued-prefetch upgrade).
            entry = l1_mshr._by_block.get(block)
            if entry is not None and entry.completion > cycle:
                in_flight = (
                    entry.completion
                    if wrong_path
                    else l1_mshr.promote(block, cycle)
                )
            else:
                in_flight = None
            if in_flight is not None:
                # The line was installed at request time but the fill is
                # still travelling: the load waits for the data.
                result = AccessResult(in_flight, "L2", True)
            else:
                prefetcher = self.prefetcher
                if line.prefetched:
                    line.prefetched = False
                    if prefetcher is not None:
                        prefetcher.on_useful_prefetch()
                if prefetcher is not None:
                    proposals = prefetcher.on_demand(block, True, False, cycle)
                    if proposals:
                        for target, want_write in proposals:
                            self.prefetch_block(target, cycle, want_write=want_write)
                result = AccessResult(cycle + self._l1_latency, "L1")
        else:
            result = self._miss_path(block, cycle, want_write=False, prefetch=False)
            self._run_prefetcher(block, False, False, cycle)
        tracer = self.tracer
        if tracer is not None and not wrong_path:
            tracer.emit(
                cycle, "cache.load", core=self.core_id, block=block,
                value=result.completion, tag=result.level,
            )
        return result

    def store_permission(
        self, block: int, cycle: int, *, prefetch: bool = False
    ) -> AccessResult:
        """Request write permission for a block (GetX / GetPFx).

        When the block is already writable in L1 the request is discarded at
        the controller (the paper's ``PopReq``): it costs a tag access but
        generates no traffic.
        """
        if prefetch:
            self.traffic.cpu_store_prefetch_requests += 1
        else:
            self.traffic.demand_stores += 1
            if self.tlb is not None:
                cycle += self.tlb.translate(block // self._blocks_per_page, cycle)
        line = self.l1d.lookup_line(block, cycle)
        state = None if line is None else line.state
        if state in WRITABLE_STATES:
            prefetcher = self.prefetcher
            if prefetch:
                self.traffic.discarded_prefetch_requests += 1
            elif line.prefetched:
                line.prefetched = False
                if prefetcher is not None:
                    prefetcher.on_useful_prefetch()
            if state == MESIState.E:
                line.state = MESIState.M
            if not prefetch and prefetcher is not None:
                proposals = prefetcher.on_demand(block, True, True, cycle)
                if proposals:
                    for target, want_write in proposals:
                        self.prefetch_block(target, cycle, want_write=want_write)
            result = AccessResult(cycle + self._l1_latency, "L1")
        elif state == MESIState.S:
            # Upgrade: invalidate remote sharers through the directory.
            extra, _ = self.uncore.fetch(
                self.core_id, block, cycle, want_write=True, prefetch=prefetch
            )
            self.traffic.l1_miss_requests += 1
            if prefetch:
                self.traffic.prefetch_miss_requests += 1
            completion = self.l1_mshr.allocate(block, cycle, extra, prefetch=prefetch)
            line.state = MESIState.M
            if self.l2.peek(block) is not None:
                self.l2.set_state(block, MESIState.M)
            if not prefetch:
                self._run_prefetcher(block, True, True, cycle)
            result = AccessResult(completion=completion, level="L3")
        else:
            result = self._miss_path(block, cycle, want_write=True, prefetch=prefetch)
            if not prefetch:
                self._run_prefetcher(block, False, True, cycle)
        tracer = self.tracer
        if tracer is not None:
            if not prefetch:
                tracer.emit(
                    cycle, "cache.store", core=self.core_id, block=block,
                    value=result.completion, tag=result.level,
                )
            elif result.level == "L1":
                # Discarded at the controller — the paper's PopReq.
                tracer.emit(
                    cycle, "prefetch.discard", core=self.core_id, block=block
                )
            else:
                tracer.emit(
                    result.completion, "prefetch.fill", core=self.core_id,
                    block=block, tag=result.level,
                )
        return result

    def prefetch_block(
        self, block: int, cycle: int, *, want_write: bool = False
    ) -> Optional[AccessResult]:
        """Cache-prefetcher fill (GetS or GetX depending on ``want_write``)."""
        state = self.l1d.lookup(block, cycle, count_tag=True)
        if state is not None and (not want_write or state in WRITABLE_STATES):
            return None  # already resident; nothing to do
        result = self._miss_path(block, cycle, want_write=want_write, prefetch=True)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                result.completion, "prefetch.fill", core=self.core_id,
                block=block, tag=result.level,
            )
        return result

    def perform_store(self, block: int, cycle: int) -> None:
        """Write a draining store into a block L1 already owns.

        Stores drain one per cycle once permission is present (the paper's
        pipelined L1 store path); this just accounts the L1 write and keeps
        the MESI state and the stream prefetcher informed.
        """
        line = self.l1d.lookup_line(block, cycle)
        if line is None or line.state not in WRITABLE_STATES:
            raise RuntimeError(
                f"perform_store on block {block:#x} without write permission"
            )
        self.traffic.demand_stores += 1
        if line.state == MESIState.E:
            line.state = MESIState.M
        if line.prefetched:
            line.prefetched = False
            if self.prefetcher is not None:
                self.prefetcher.on_useful_prefetch()
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                cycle, "cache.store", core=self.core_id, block=block,
                value=cycle, tag="L1",
            )
        self._run_prefetcher(block, True, True, cycle)

    def fill_arrival(self, block: int, cycle: int) -> int | None:
        """Cycle an in-flight fill for ``block`` lands, if one is pending.

        Called on behalf of the SB head (a demand store), so a queued
        prefetch entry for the block is promoted to demand priority.
        """
        return self.l1_mshr.promote(block, cycle)

    def has_write_permission(self, block: int) -> bool:
        """True when a store to ``block`` can perform immediately in L1."""
        return self.l1d.peek(block) in WRITABLE_STATES

    def l1_state(self, block: int) -> MESIState | None:
        return self.l1d.peek(block)

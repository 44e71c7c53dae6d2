"""Miss Status Holding Registers with a queueing approximation.

An MSHR file bounds how many misses a cache can have in flight.  In-flight
misses are kept as heaps of completion times: allocating while full delays
the new request until the earliest outstanding entry would have retired,
which models controller queueing without a per-cycle tick.

Demand requests have priority over prefetches, as in real L1 controllers:

* a demand miss only queues behind other *demand* misses — outstanding
  prefetches never delay it;
* a prefetch queues behind everything, so an SPB page burst soaks up spare
  miss bandwidth only;
* a demand access that coalesces onto a queued-but-not-yet-started prefetch
  *promotes* it: the request starts immediately at demand priority.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from heapq import heappop, heappush


@dataclass
class MSHRStats:
    allocations: int = 0
    prefetch_allocations: int = 0
    coalesced: int = 0
    promotions: int = 0
    full_delays: int = 0
    total_delay_cycles: int = 0


class _Entry:
    __slots__ = ("completion", "start", "service", "prefetch")

    def __init__(self, completion: int, start: int, service: int, prefetch: bool) -> None:
        self.completion = completion
        self.start = start
        self.service = service
        self.prefetch = prefetch


class MSHRFile:
    """Bounded set of in-flight misses keyed by block number."""

    def __init__(self, entries: int, tracer=None, core: int = 0) -> None:
        if entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = entries
        self._demand: list[int] = []  # heap of demand completion cycles
        self._prefetch: list[int] = []  # heap of prefetch completion cycles
        self._by_block: dict[int, _Entry] = {}
        self.stats = MSHRStats()
        self.tracer = tracer
        self.core = core

    def __deepcopy__(self, memo: dict) -> "MSHRFile":
        """Independent copy of the in-flight state (the tracer is shared)."""
        clone = object.__new__(MSHRFile)
        memo[id(self)] = clone
        clone.capacity = self.capacity
        clone._demand = self._demand.copy()
        clone._prefetch = self._prefetch.copy()
        clone._by_block = {
            block: _Entry(entry.completion, entry.start, entry.service, entry.prefetch)
            for block, entry in self._by_block.items()
        }
        clone.stats = copy.copy(self.stats)  # flat int counters
        clone.tracer = self.tracer
        clone.core = self.core
        return clone

    def _release(self, cycle: int, completion: int) -> None:
        """Trace hook: one in-flight heap entry retired."""
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(cycle, "mshr.release", core=self.core, value=completion)

    def _expire(self, cycle: int) -> None:
        demand = self._demand
        while demand and demand[0] <= cycle:
            self._release(cycle, heappop(demand))
        prefetch = self._prefetch
        while prefetch and prefetch[0] <= cycle:
            self._release(cycle, heappop(prefetch))
        if len(self._by_block) > 4 * self.capacity:
            self._by_block = {
                block: entry
                for block, entry in self._by_block.items()
                if entry.completion > cycle
            }

    def outstanding(self, cycle: int) -> int:
        """Number of misses still in flight at ``cycle``."""
        self._expire(cycle)
        return len(self._demand) + len(self._prefetch)

    def in_flight(self, block: int, cycle: int) -> int | None:
        """Completion cycle of an outstanding miss on ``block``, if any."""
        entry = self._by_block.get(block)
        if entry is not None and entry.completion > cycle:
            return entry.completion
        return None

    def promote(self, block: int, cycle: int) -> int | None:
        """A demand request touched an in-flight entry.

        If the entry is a prefetch still waiting in the controller queue
        (its service has not started), restart it immediately at demand
        priority.  Returns the (possibly improved) completion cycle, or
        ``None`` when nothing is in flight for the block.
        """
        entry = self._by_block.get(block)
        if entry is None or entry.completion <= cycle:
            return None
        if entry.prefetch and entry.start > cycle:
            entry.start = cycle
            entry.completion = cycle + entry.service
            entry.prefetch = False
            heappush(self._demand, entry.completion)
            self.stats.promotions += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(
                    cycle, "mshr.promote", core=self.core,
                    block=block, value=entry.completion,
                )
        return entry.completion

    def allocate(
        self, block: int, cycle: int, service_latency: int, *, prefetch: bool = False
    ) -> int:
        """Allocate an entry for a miss; returns its completion cycle.

        A request for a block already in flight coalesces onto the existing
        entry (no new entry, no extra traffic); a demand request promotes a
        queued prefetch entry.  When the file is full the request starts
        once an earlier entry retires — demand requests only wait on earlier
        demand entries, prefetches wait on everything.
        """
        entry = self._by_block.get(block)
        if entry is not None and entry.completion > cycle:
            self.stats.coalesced += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.emit(cycle, "mshr.coalesce", core=self.core, block=block)
            if not prefetch:
                return self.promote(block, cycle) or entry.completion
            return entry.completion
        self._expire(cycle)
        start = cycle
        if prefetch:
            if len(self._demand) + len(self._prefetch) >= self.capacity:
                earliest = self._pop_earliest()
                self._release(cycle, earliest)
                start = max(cycle, earliest)
                self.stats.full_delays += 1
                self.stats.total_delay_cycles += start - cycle
        else:
            if len(self._demand) >= self.capacity:
                earliest = heappop(self._demand)
                self._release(cycle, earliest)
                start = max(cycle, earliest)
                self.stats.full_delays += 1
                self.stats.total_delay_cycles += start - cycle
        completion = start + service_latency
        heappush(self._prefetch if prefetch else self._demand, completion)
        self._by_block[block] = _Entry(completion, start, service_latency, prefetch)
        if prefetch:
            self.stats.prefetch_allocations += 1
        else:
            self.stats.allocations += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                cycle, "mshr.alloc", core=self.core, block=block,
                value=completion, tag="prefetch" if prefetch else None,
            )
        return completion

    def _pop_earliest(self) -> int:
        if self._demand and (not self._prefetch or self._demand[0] <= self._prefetch[0]):
            return heappop(self._demand)
        return heappop(self._prefetch)

    def would_delay(self, cycle: int, *, prefetch: bool = False) -> bool:
        """True when a new allocation at ``cycle`` could not start immediately."""
        self._expire(cycle)
        if prefetch:
            return len(self._demand) + len(self._prefetch) >= self.capacity
        return len(self._demand) >= self.capacity

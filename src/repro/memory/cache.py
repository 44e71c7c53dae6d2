"""Set-associative cache with LRU replacement and MESI block states."""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter

from repro.config.cache import CacheConfig
from repro.memory.coherence import MESIState
from repro.memory.replacement import build_replacement_policy

_BY_META = attrgetter("meta")


@dataclass
class CacheStats:
    """Per-cache activity counters (tag accesses feed Figure 13)."""

    tag_accesses: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    prefetch_fills: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.tag_accesses += other.tag_accesses
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.evictions += other.evictions
        self.dirty_evictions += other.dirty_evictions
        self.invalidations += other.invalidations
        self.prefetch_fills += other.prefetch_fills


@dataclass(slots=True)
class _Line:
    """One resident cache line."""

    block: int
    state: MESIState
    meta: int  # replacement-policy metadata (e.g. last-use cycle for LRU)
    prefetched: bool = False


class SetAssociativeCache:
    """A single cache level indexed by block number.

    Lines carry a MESI state so the same structure serves L1/L2/L3.  The
    replacement policy is pluggable (LRU by default); victim selection scans
    the set, which is cheap at associativities of at most 16.

    Sets are created on first touch: ``_sets`` maps a set index to its line
    dict, and a short run touches a few hundred of the L3's 16 384 sets.
    Building every set up front cost ~3.5 ms and ~2.4 MB per L3; creating
    them lazily also keeps :meth:`__deepcopy__` proportional to the lines
    actually resident.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.policy = build_replacement_policy(config.replacement)
        # LRU (the default everywhere) updates one integer per touch; inline
        # that instead of paying a method call on every lookup/insert.  The
        # victim scan is a ``min`` over the set's lines with a C-level key
        # on ``meta`` (ties resolve to the first-inserted line), and each
        # line carries its block so the winner names itself.
        self._lru = self.policy.name == "lru"
        self._set_mask = config.num_sets - 1
        self._assoc = config.associativity
        # ``defaultdict`` keeps the hot probes (``_sets[index].get``) a
        # single C-level subscript; a miss on an untouched set creates it.
        self._sets: defaultdict[int, dict[int, _Line]] = defaultdict(dict)
        self.stats = CacheStats()

    def __deepcopy__(self, memo: dict) -> "SetAssociativeCache":
        """Independent copy of the cache's contents and counters.

        Lines are the only mutable per-block state, so they are rebuilt
        directly instead of through the generic ``deepcopy`` machinery; the
        frozen config is shared.
        """
        clone = object.__new__(SetAssociativeCache)
        memo[id(self)] = clone
        clone.config = self.config
        clone.policy = copy.deepcopy(self.policy, memo)
        clone._lru = self._lru
        clone._set_mask = self._set_mask
        clone._assoc = self._assoc
        sets = clone._sets = defaultdict(dict)
        for index, cache_set in self._sets.items():
            lines = sets[index]
            for block, line in cache_set.items():
                lines[block] = _Line(block, line.state, line.meta, line.prefetched)
        clone.stats = copy.copy(self.stats)  # flat int counters
        return clone

    def _set_for(self, block: int) -> dict[int, _Line]:
        return self._sets[block & self._set_mask]

    def lookup(self, block: int, cycle: int, *, count_tag: bool = True) -> MESIState | None:
        """Look a block up, updating recency.  ``None`` means miss."""
        stats = self.stats
        if count_tag:
            stats.tag_accesses += 1
        line = self._sets[block & self._set_mask].get(block)
        if line is None:
            stats.misses += 1
            return None
        if self._lru:
            line.meta = cycle
        else:
            self.policy.on_access(line, cycle)
        stats.hits += 1
        return line.state

    def lookup_line(self, block: int, cycle: int) -> _Line | None:
        """Like :meth:`lookup` but returns the line object itself.

        The hierarchy's hit paths read ``state`` *and* ``prefetched`` off
        the same line; returning it saves re-probing the set dict for each
        attribute.  Counters and recency update exactly as in ``lookup``.
        """
        stats = self.stats
        stats.tag_accesses += 1
        line = self._sets[block & self._set_mask].get(block)
        if line is None:
            stats.misses += 1
            return None
        if self._lru:
            line.meta = cycle
        else:
            self.policy.on_access(line, cycle)
        stats.hits += 1
        return line

    def peek(self, block: int) -> MESIState | None:
        """State of a block without touching recency or counters."""
        line = self._sets[block & self._set_mask].get(block)
        return None if line is None else line.state

    def was_prefetched(self, block: int) -> bool:
        line = self._sets[block & self._set_mask].get(block)
        return bool(line and line.prefetched)

    def clear_prefetched(self, block: int) -> None:
        line = self._sets[block & self._set_mask].get(block)
        if line is not None:
            line.prefetched = False

    def insert(
        self,
        block: int,
        state: MESIState,
        cycle: int,
        *,
        prefetched: bool = False,
    ) -> tuple[int, MESIState] | None:
        """Insert (or upgrade) a block; returns the evicted victim, if any.

        The victim is reported as ``(block, state)`` so the hierarchy can
        write back dirty data and update the directory.
        """
        cache_set = self._sets[block & self._set_mask]
        lru = self._lru
        existing = cache_set.get(block)
        if existing is not None:
            existing.state = state
            if lru:
                existing.meta = cycle
            else:
                self.policy.on_access(existing, cycle)
            if prefetched:
                existing.prefetched = True
            return None
        stats = self.stats
        victim: tuple[int, MESIState] | None = None
        if len(cache_set) >= self._assoc:
            if lru:
                victim_block = min(cache_set.values(), key=_BY_META).block
            else:
                victim_block = self.policy.victim(cache_set, cycle)
            victim_line = cache_set.pop(victim_block)
            victim = (victim_block, victim_line.state)
            stats.evictions += 1
            if victim_line.state == MESIState.M:
                stats.dirty_evictions += 1
        line = _Line(block, state, cycle, prefetched)
        if not lru:
            self.policy.on_insert(line, cycle)
        cache_set[block] = line
        stats.insertions += 1
        if prefetched:
            stats.prefetch_fills += 1
        return victim

    def set_state(self, block: int, state: MESIState) -> None:
        """Change the MESI state of a resident block (no recency update)."""
        line = self._set_for(block).get(block)
        if line is None:
            raise KeyError(f"block {block:#x} not resident")
        line.state = state

    def invalidate(self, block: int) -> MESIState | None:
        """Drop a block; returns its prior state or ``None`` if absent."""
        line = self._sets[block & self._set_mask].pop(block, None)
        if line is None:
            return None
        self.stats.invalidations += 1
        return line.state

    def resident_blocks(self) -> list[int]:
        """All resident block numbers in set-index order (diagnostic helper)."""
        sets = self._sets
        return [block for index in sorted(sets) for block in sets[index]]

    def occupancy(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets.values())

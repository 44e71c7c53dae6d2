"""MESI coherence: block states and the L3 directory.

The paper's gem5 setup uses a Ruby MESI protocol; the running example in its
Figure 4 shows the states and messages we mirror here (I, M, transient IM and
PF_IM, GetX/GetPFx requests, PopReq for discarded redundant prefetches).  We
model the stable states exactly and fold the transient states into the MSHR
in-flight bookkeeping.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field


class MESIState(enum.IntEnum):
    """Stable MESI states of a cached block."""

    I = 0  # noqa: E741 - standard protocol letter
    S = 1
    E = 2
    M = 3


#: States that grant write permission (a store can perform without a request).
WRITABLE_STATES = frozenset((MESIState.E, MESIState.M))


@dataclass
class DirectoryStats:
    """Coherence traffic counters at the shared level."""

    gets_requests: int = 0
    getx_requests: int = 0
    prefetch_getx_requests: int = 0
    invalidations_sent: int = 0
    downgrades_sent: int = 0
    writebacks: int = 0


@dataclass
class _DirEntry:
    owner: int | None = None
    sharers: set[int] = field(default_factory=set)


class Directory:
    """Full-map directory kept at the shared L3.

    Tracks, per block, the owning core (E/M) or the sharer set (S).  The
    request handlers return the set of remote caches that must be invalidated
    or downgraded, plus the extra latency those hops cost; the caller applies
    the changes to the private caches, keeping this class purely about the
    sharing metadata.
    """

    def __init__(self, num_cores: int, remote_hop_latency: int = 20) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        self.remote_hop_latency = remote_hop_latency
        self._entries: dict[int, _DirEntry] = {}
        self.stats = DirectoryStats()

    def __deepcopy__(self, memo: dict) -> "Directory":
        """Independent copy of the sharing metadata and counters."""
        clone = object.__new__(Directory)
        memo[id(self)] = clone
        clone.num_cores = self.num_cores
        clone.remote_hop_latency = self.remote_hop_latency
        clone._entries = {
            block: _DirEntry(entry.owner, set(entry.sharers))
            for block, entry in self._entries.items()
        }
        clone.stats = copy.copy(self.stats)  # flat int counters
        return clone

    def _entry(self, block: int) -> _DirEntry:
        entry = self._entries.get(block)
        if entry is None:
            entry = _DirEntry()
            self._entries[block] = entry
        return entry

    def sharers_of(self, block: int) -> frozenset[int]:
        entry = self._entries.get(block)
        return frozenset(entry.sharers) if entry else frozenset()

    def owner_of(self, block: int) -> int | None:
        entry = self._entries.get(block)
        return entry.owner if entry else None

    def handle_getx(
        self, core: int, block: int, *, prefetch: bool = False
    ) -> tuple[int, frozenset[int]]:
        """Grant write permission of ``block`` to ``core``.

        Returns ``(extra_latency, caches_to_invalidate)``.  After the call the
        directory records ``core`` as exclusive owner.
        """
        if prefetch:
            self.stats.prefetch_getx_requests += 1
        else:
            self.stats.getx_requests += 1
        entry = self._entry(block)
        to_invalidate = set(entry.sharers)
        if entry.owner is not None and entry.owner != core:
            to_invalidate.add(entry.owner)
        to_invalidate.discard(core)
        extra_latency = self.remote_hop_latency if to_invalidate else 0
        self.stats.invalidations_sent += len(to_invalidate)
        entry.owner = core
        entry.sharers = set()
        return extra_latency, frozenset(to_invalidate)

    def handle_gets(self, core: int, block: int) -> tuple[int, int | None]:
        """Grant read permission of ``block`` to ``core``.

        Returns ``(extra_latency, owner_to_downgrade)``.  If another core owns
        the block in E/M it is downgraded to S; the caller demotes that
        core's cached copy.  The requester joins the sharer set (or becomes E
        owner when it is the only holder).
        """
        self.stats.gets_requests += 1
        entry = self._entry(block)
        downgrade: int | None = None
        extra_latency = 0
        if entry.owner is not None and entry.owner != core:
            downgrade = entry.owner
            entry.sharers.add(entry.owner)
            entry.owner = None
            extra_latency = self.remote_hop_latency
            self.stats.downgrades_sent += 1
        if entry.owner == core:
            return extra_latency, None
        if entry.sharers:
            entry.sharers.add(core)
        else:
            entry.owner = core  # sole holder: grant E
        return extra_latency, downgrade

    def handle_eviction(self, core: int, block: int, state: MESIState) -> None:
        """A private cache dropped its copy (capacity eviction or writeback)."""
        entry = self._entries.get(block)
        if entry is None:
            return
        if state == MESIState.M:
            self.stats.writebacks += 1
        if entry.owner == core:
            entry.owner = None
        entry.sharers.discard(core)
        if entry.owner is None and not entry.sharers:
            del self._entries[block]

    def tracked_blocks(self) -> int:
        return len(self._entries)

"""Store-prefetch policy engines.

Each engine observes the store lifecycle events the pipeline raises
(address computed at execute, insertion into the SB at commit, wrong-path
squash) and issues write-permission prefetches to the L1 controller.  The
engines correspond one-to-one to the strategies the paper compares:

* :class:`NoStorePrefetch` — stores serialise at the SB head.
* :class:`AtExecutePrefetch` — Gharachorloo et al.: prefetch as soon as the
  address is known; speculative, so wrong-path stores also prefetch.
* :class:`AtCommitPrefetch` — Intel's documented strategy and the paper's
  baseline: prefetch when the store commits into the SB.
* :class:`SpbPrefetch` — at-commit plus the SPB detector and page bursts.
* :class:`IdealStorePrefetch` — the paper's Ideal: an unbounded SB whose
  buffered stores all prefetch in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import SpbConfig, StorePrefetchPolicy
from repro.core.spb import SpbDetector
from repro.memory.block import blocks_preceding_in_page, blocks_remaining_in_page
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.stats import PrefetchOutcomeTracker


@dataclass
class StorePrefetchEngineStats:
    prefetches_issued: int = 0
    burst_requests: int = 0
    burst_blocks_requested: int = 0
    wrong_path_prefetches: int = 0


class StorePrefetchEngine:
    """Base class wiring an engine to a core's memory hierarchy."""

    policy = StorePrefetchPolicy.NONE
    unbounded_sb = False

    def __init__(self, hierarchy: MemoryHierarchy, tracer=None) -> None:
        self.hierarchy = hierarchy
        self.tracker = PrefetchOutcomeTracker()
        self.stats = StorePrefetchEngineStats()
        self.tracer = tracer
        hierarchy.prefetch_tracker = self.tracker

    def _issue(self, block: int, cycle: int) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                cycle, "prefetch.issue", core=self.hierarchy.core_id, block=block
            )
        result = self.hierarchy.store_permission(block, cycle, prefetch=True)
        if result.level != "L1":
            # Only requests that actually move data are classified for
            # Figure 11; a request the controller discards because the block
            # is already writable (PopReq) is not a prefetch outcome.
            self.tracker.on_prefetch_issued(block, result.completion, cycle)
        self.stats.prefetches_issued += 1

    # -- lifecycle hooks -------------------------------------------------
    def on_store_executed(self, block: int, cycle: int) -> None:
        """The store's address was computed in the execute stage."""

    def on_store_committed(self, block: int, addr: int, cycle: int) -> None:
        """The store retired and entered the store buffer."""

    def on_wrong_path_store(self, block: int, cycle: int) -> None:
        """A squashed (mispredicted-path) store computed an address."""

    def on_store_performed(self, block: int, cycle: int) -> None:
        """The store drained from the SB head and wrote the L1."""
        self.tracker.on_demand_store(block, cycle)


class NoStorePrefetch(StorePrefetchEngine):
    """No write prefetching: the SB head demand-fetches ownership."""

    policy = StorePrefetchPolicy.NONE


class AtExecutePrefetch(StorePrefetchEngine):
    """Prefetch for ownership as soon as the address resolves (speculative)."""

    policy = StorePrefetchPolicy.AT_EXECUTE

    def on_store_executed(self, block: int, cycle: int) -> None:
        self._issue(block, cycle)

    def on_wrong_path_store(self, block: int, cycle: int) -> None:
        # Speculative prefetching pays for squashed stores too: the request
        # still moves data and burns energy (paper §II).
        self._issue(block, cycle)
        self.stats.wrong_path_prefetches += 1


class AtCommitPrefetch(StorePrefetchEngine):
    """Prefetch for ownership when the store enters the SB (non-speculative)."""

    policy = StorePrefetchPolicy.AT_COMMIT

    def on_store_committed(self, block: int, addr: int, cycle: int) -> None:
        self._issue(block, cycle)


class SpbPrefetch(AtCommitPrefetch):
    """At-commit plus Store-Prefetch Bursts.

    Keeps the default at-commit request per store and feeds every committed
    store's block to the SPB detector.  When a window closes above threshold,
    the engine sends one burst to the L1 controller covering every remaining
    block in the store's page (and the preceding blocks when the backward
    variant is enabled).
    """

    policy = StorePrefetchPolicy.SPB

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        spb_config: SpbConfig | None = None,
        tracer=None,
    ) -> None:
        super().__init__(hierarchy, tracer=tracer)
        self.detector = SpbDetector(spb_config, tracer=tracer, core=hierarchy.core_id)
        page_bytes = hierarchy.config.page_bytes
        block_bytes = hierarchy.config.block_bytes
        self._page_bytes = page_bytes
        self._block_bytes = block_bytes

    def on_store_committed(self, block: int, addr: int, cycle: int) -> None:
        super().on_store_committed(block, addr, cycle)
        forward, backward = self.detector.observe(block, cycle)
        if forward:
            targets = blocks_remaining_in_page(
                addr, self._block_bytes, self._page_bytes
            )
            # Optional extension (paper footnote 2): continue the burst into
            # the following virtual pages.
            blocks_per_page = self._page_bytes // self._block_bytes
            page_start = (addr // self._page_bytes + 1) * blocks_per_page
            for extra_page in range(self.detector.config.pages_per_burst - 1):
                start = page_start + extra_page * blocks_per_page
                targets.extend(range(start, start + blocks_per_page))
            self._burst(targets, cycle)
        if backward:
            self._burst(
                blocks_preceding_in_page(addr, self._block_bytes, self._page_bytes),
                cycle,
            )

    def _burst(self, blocks: list[int], cycle: int) -> None:
        if not blocks:
            return
        self.stats.burst_requests += 1
        self.stats.burst_blocks_requested += len(blocks)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                cycle, "spb.burst", core=self.hierarchy.core_id,
                block=blocks[0], value=len(blocks),
            )
        for block in blocks:
            self._issue(block, cycle)


class IdealStorePrefetch(AtCommitPrefetch):
    """Paper's Ideal: no SB-capacity stalls, all buffered stores prefetch."""

    policy = StorePrefetchPolicy.IDEAL
    unbounded_sb = True


#: Policy -> engine class.
_ENGINE_CLASSES: dict[StorePrefetchPolicy, type[StorePrefetchEngine]] = {
    StorePrefetchPolicy.NONE: NoStorePrefetch,
    StorePrefetchPolicy.AT_EXECUTE: AtExecutePrefetch,
    StorePrefetchPolicy.AT_COMMIT: AtCommitPrefetch,
    StorePrefetchPolicy.SPB: SpbPrefetch,
    StorePrefetchPolicy.IDEAL: IdealStorePrefetch,
}


def engine_class(policy: StorePrefetchPolicy | str) -> type[StorePrefetchEngine]:
    """The engine class implementing ``policy``."""
    return _ENGINE_CLASSES[StorePrefetchPolicy(policy)]


def build_store_prefetch_engine(
    policy: StorePrefetchPolicy | str,
    hierarchy: MemoryHierarchy,
    spb_config: SpbConfig | None = None,
    tracer=None,
) -> StorePrefetchEngine:
    """Instantiate the engine for a policy, wired to ``hierarchy``."""
    cls = engine_class(policy)
    if cls is SpbPrefetch:
        return SpbPrefetch(hierarchy, spb_config, tracer=tracer)
    return cls(hierarchy, tracer=tracer)

"""Trace container: an ordered list of micro-ops plus summary statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, List, Sequence, TypeVar

from repro.isa.uop import MicroOp, OpKind

_T = TypeVar("_T")


@dataclass(frozen=True)
class TraceStats:
    """Static summary of a trace, used by tests and workload calibration."""

    total: int
    loads: int
    stores: int
    branches: int
    mispredicted_branches: int
    distinct_store_blocks: int
    distinct_store_pages: int

    @property
    def store_fraction(self) -> float:
        """Stores as a fraction of all micro-ops."""
        return self.stores / self.total if self.total else 0.0

    @property
    def load_fraction(self) -> float:
        """Loads as a fraction of all micro-ops."""
        return self.loads / self.total if self.total else 0.0


class Trace:
    """An immutable-by-convention sequence of :class:`MicroOp`.

    Traces carry a ``name`` (the workload they came from) and an optional
    ``region_of`` mapping from PC to a human-readable code region
    (``memcpy``, ``memset``, ``clear_page``, ``app``...), which Figure 3 of
    the paper breaks stall attribution down by.

    Because a trace never changes after construction, work derived from it
    alone (the fast engine's per-µop arrays) is memoised on the trace by
    :meth:`derived`, so every config cell a campaign runs on one trace
    shares it.  Neither the op list nor any op it hands out may be modified
    afterwards; a caller that needs different ops builds a new trace.
    """

    def __init__(
        self,
        ops: Sequence[MicroOp] | Iterable[MicroOp],
        name: str = "anonymous",
        regions: dict[int, str] | None = None,
    ) -> None:
        self._ops: List[MicroOp] = list(ops)
        self.name = name
        self._regions = dict(regions or {})
        self._derived: dict[Hashable, object] = {}

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self._ops)

    def __getitem__(self, index):
        return self._ops[index]

    def derived(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()``, memoised on this trace under ``key``.

        ``compute`` must be a pure function of the trace's contents (and of
        whatever ``key`` names), and its value must be treated as read-only
        by every caller: one value is shared by all runs of this trace.  The
        memo is never invalidated, so it is only correct while no op of the
        trace is modified; to run different ops, build a new trace.
        """
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[key] = compute()
            return value

    def region_of(self, pc: int) -> str:
        """Code region a PC belongs to; ``app`` when unannotated."""
        return self._regions.get(pc, "app")

    @property
    def regions(self) -> dict[int, str]:
        """Copy of the PC-to-region annotation map."""
        return dict(self._regions)

    def stats(self, block_bytes: int = 64, page_bytes: int = 4096) -> TraceStats:
        """Compute static statistics over the trace."""
        loads = stores = branches = mispredicted = 0
        store_blocks: set[int] = set()
        store_pages: set[int] = set()
        for op in self._ops:
            if op.kind == OpKind.LOAD:
                loads += 1
            elif op.kind == OpKind.STORE:
                stores += 1
                store_blocks.add(op.addr // block_bytes)
                store_pages.add(op.addr // page_bytes)
            elif op.kind == OpKind.BRANCH:
                branches += 1
                if op.mispredicted:
                    mispredicted += 1
        return TraceStats(
            total=len(self._ops),
            loads=loads,
            stores=stores,
            branches=branches,
            mispredicted_branches=mispredicted,
            distinct_store_blocks=len(store_blocks),
            distinct_store_pages=len(store_pages),
        )

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Concatenate two traces, merging their region annotations."""
        merged_regions = {**self._regions, **other._regions}
        return Trace(
            self._ops + list(other._ops),
            name=name or f"{self.name}+{other.name}",
            regions=merged_regions,
        )

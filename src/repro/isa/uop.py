"""Micro-operation model.

Each trace element is one micro-op.  Memory µops carry a virtual address and
an access size; every µop carries the PC of the instruction it came from and
an optional dependency distance used by the pipeline's issue model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpKind(enum.IntEnum):
    """Micro-op classes with distinct pipeline behaviour."""

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    FP_ALU = 3
    FP_MUL = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    NOP = 9


#: Execution latencies in cycles (paper Table I, measured per Fog's tables).
#: LOAD latency here is address generation only; the cache hierarchy adds the
#: memory latency.  STORE latency is address+data readiness.
OP_LATENCIES: dict[OpKind, int] = {
    OpKind.INT_ALU: 1,
    OpKind.INT_MUL: 4,
    OpKind.INT_DIV: 22,
    OpKind.FP_ALU: 5,
    OpKind.FP_MUL: 5,
    OpKind.FP_DIV: 22,
    OpKind.LOAD: 1,
    OpKind.STORE: 1,
    OpKind.BRANCH: 1,
    OpKind.NOP: 1,
}

_MEMORY_KINDS = frozenset((OpKind.LOAD, OpKind.STORE))


@dataclass(slots=True)
class MicroOp:
    """One dynamic micro-op in a trace.

    ``dep_distance`` points at the producing µop ``dep_distance`` positions
    earlier in program order (0 means no register dependency).  For branches,
    ``taken`` records the actual direction and ``mispredicted`` marks the
    dynamic instances a trace-annotated predictor gets wrong; when the
    pipeline runs a real predictor model it predicts ``taken`` itself and
    ignores the annotation.  Either way a mispredict charges the redirect
    penalty and injects wrong-path work sized by the branch's resolution
    latency.

    A µop must not be modified once it is in a :class:`~repro.isa.trace.Trace`:
    work derived from a trace (the fast engine's per-µop arrays) is cached on
    it and shared by every run of that trace, so a changed op would make the
    engines disagree.  To run different ops, build a new trace.
    """

    kind: OpKind
    pc: int = 0
    addr: int = 0
    size: int = 0
    dep_distance: int = 0
    mispredicted: bool = False
    taken: bool = False

    def __post_init__(self) -> None:
        if self.kind in _MEMORY_KINDS:
            if self.size <= 0:
                raise ValueError(f"memory µop at pc={self.pc:#x} needs a positive size")
            if self.addr < 0:
                raise ValueError("addresses must be non-negative")
        if self.dep_distance < 0:
            raise ValueError("dep_distance must be non-negative")

    @property
    def is_load(self) -> bool:
        """True for load micro-ops."""
        return self.kind == OpKind.LOAD

    @property
    def is_store(self) -> bool:
        """True for store micro-ops."""
        return self.kind == OpKind.STORE

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.kind in _MEMORY_KINDS

    @property
    def is_branch(self) -> bool:
        """True for branch micro-ops."""
        return self.kind == OpKind.BRANCH

    @property
    def latency(self) -> int:
        """Execution latency from Table I."""
        return OP_LATENCIES[self.kind]

    def block(self, block_bytes: int = 64) -> int:
        """Block number this µop touches (address >> log2(block size))."""
        return self.addr // block_bytes

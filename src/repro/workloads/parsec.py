"""PARSEC-like multi-threaded application definitions (paper §VI-F).

The paper runs PARSEC with eight threads and simlarge inputs (all
applications except freqmine and raytrace, which did not run under gem5) and
classifies bodytrack, dedup, ferret and x264 as SB-bound.  We model each
application as a per-thread phase mixture plus a shared-region phase that
exercises the coherence protocol: threads read and write blocks in a common
region, so SPB bursts can interact with invalidations — the negative
coherence effect §VI-F shows does not materialise.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.isa.trace import Trace
from repro.isa.uop import MicroOp, OpKind
from repro.workloads import kernels as K
from repro.workloads.generator import PhaseSpec, WorkloadSpec, build_trace
from repro.workloads.phases import (
    branchy as _branchy,
    compute as _compute,
    loads as _loads,
    memcpy as _memcpy,
    memset as _memset,
)

_KIB = 1024
_SHARED_BASE = 1 << 44  # one region all threads touch
_MEMORY_KINDS = frozenset((OpKind.LOAD, OpKind.STORE))


def _shared_mix(weight: float, count: int = 400, span: int = 1 << 20,
                store_fraction: float = 0.3, chunk: int = 1200) -> PhaseSpec:
    """Loads and stores into the process-shared region (coherence traffic)."""

    def build(inv: int, rng: random.Random, base: int, pc_base: int) -> K.KernelBuilder:
        builder = K.KernelBuilder(pc_base=pc_base, region="shared")
        span_words = span // 8
        for _ in range(count):
            addr = _SHARED_BASE + rng.randrange(span_words) * 8
            if rng.random() < store_fraction:
                builder.store(0, addr)
            else:
                builder.load(1, addr)
            builder.alu(2)
            builder.alu(3)
        return builder

    return PhaseSpec("shared", build, weight, chunk_uops=chunk)


def _app(name: str, description: str, *phases: PhaseSpec) -> WorkloadSpec:
    return WorkloadSpec(name=name, phases=tuple(phases), description=description)


#: SB-bound PARSEC applications per the paper's >2% criterion.
SB_BOUND_PARSEC: tuple[str, ...] = ("bodytrack", "dedup", "ferret", "x264")

PARSEC_APPS: Dict[str, WorkloadSpec] = {
    "blackscholes": _app(
        "blackscholes", "option pricing: FP compute, tiny sharing",
        _compute(0.65, fp=0.9), _loads(0.25),
        _shared_mix(0.10, store_fraction=0.1),
    ),
    "bodytrack": _app(
        "bodytrack", "vision pipeline: frame fills plus shared queues",
        _memset(0.05, nbytes=2 * _KIB), _loads(0.33), _compute(0.40, fp=0.7),
        _shared_mix(0.12), _branchy(0.10),
    ),
    "canneal": _app(
        "canneal", "cache-hostile annealing: shared random accesses",
        _shared_mix(0.30, span=8 << 20, store_fraction=0.25), _loads(0.30),
        _compute(0.30, fp=0.2), _branchy(0.10, mispredict=0.05),
    ),
    "dedup": _app(
        "dedup", "dedup pipeline: chunk copies between stages",
        _memcpy(0.05, nbytes=2 * _KIB), _loads(0.33), _compute(0.35, fp=0.1),
        _shared_mix(0.12), _branchy(0.15),
    ),
    "facesim": _app(
        "facesim", "physics solver: FP sweeps with regular loads",
        _compute(0.45, fp=0.9), _loads(0.35), _shared_mix(0.10), _branchy(0.10),
    ),
    "ferret": _app(
        "ferret", "similarity search: feature-vector copies per stage",
        _memcpy(0.06, nbytes=1 * _KIB), _loads(0.32), _compute(0.35, fp=0.5),
        _shared_mix(0.12), _branchy(0.15),
    ),
    "fluidanimate": _app(
        "fluidanimate", "SPH fluid: FP compute, neighbour loads",
        _compute(0.45, fp=0.9), _loads(0.30), _shared_mix(0.15), _branchy(0.10),
    ),
    "streamcluster": _app(
        "streamcluster", "online clustering: streaming loads, FP distance",
        _loads(0.45), _compute(0.35, fp=0.8), _shared_mix(0.12), _branchy(0.08),
    ),
    "swaptions": _app(
        "swaptions", "Monte-Carlo pricing: pure FP compute",
        _compute(0.70, fp=0.9), _loads(0.20), _branchy(0.10),
    ),
    "vips": _app(
        "vips", "image pipeline: tile loads and FP filters",
        _loads(0.36), _compute(0.44, fp=0.7),
        _shared_mix(0.08), _branchy(0.12),
    ),
    "x264": _app(
        "x264", "parallel encoder: frame copies and branchy search",
        _memcpy(0.06, nbytes=2 * _KIB), _loads(0.29), _compute(0.25, fp=0.3),
        _shared_mix(0.10), _branchy(0.30, mispredict=0.05),
    ),
}


def parsec_names(sb_bound_only: bool = False) -> list[str]:
    if sb_bound_only:
        return list(SB_BOUND_PARSEC)
    return list(PARSEC_APPS)


def parsec(name: str, threads: int = 8, length: int = 100_000,
           seed: int = 1) -> list[Trace]:
    """Per-thread traces for one PARSEC-like application."""
    try:
        spec = PARSEC_APPS[name]
    except KeyError:
        known = ", ".join(sorted(PARSEC_APPS))
        raise ValueError(f"unknown PARSEC app {name!r}; known: {known}")
    if threads <= 0:
        raise ValueError("threads must be positive")
    traces = []
    for thread in range(threads):
        trace = build_trace(spec, length=length, seed=seed * 1000 + thread)
        # Shift each thread's private regions apart; the shared region is
        # above 1 << 44 and must stay common to all threads.
        shifted = _shift_private(trace, thread * (1 << 36))
        traces.append(Trace(shifted, name=f"{name}[t{thread}]", regions=trace.regions))
    return traces


def _shift_private(trace: Trace, offset: int) -> list[MicroOp]:
    """Relocate private-region addresses so threads do not falsely share.

    Shifted memory µops are built directly rather than through
    ``dataclasses.replace``, which re-inspects the fields on every call and
    cost ~14 % of PARSEC generation; the constructor still runs
    ``MicroOp.__post_init__`` validation.
    """
    return [
        MicroOp(
            op.kind, op.pc, op.addr + offset, op.size, op.dep_distance,
            op.mispredicted, op.taken,
        )
        if op.kind in _MEMORY_KINDS and op.addr < _SHARED_BASE
        else op
        for op in trace
    ]

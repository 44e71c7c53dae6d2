"""Cycle-skipping fast engine for the hot simulation loop.

:class:`FastPipeline` is a drop-in replacement for
:class:`repro.cpu.pipeline.Pipeline` selected via ``SystemConfig.engine =
"fast"``.  It computes **bit-identical** results — every counter in
:class:`~repro.stats.counters.PipelineStats`, the stall breakdown, SB/MSHR/
traffic statistics and the full cycle-level event stream match the reference
engine exactly; the differential harness in :mod:`repro.sim.diffcheck`
enforces this on every change.

Where the speed comes from
--------------------------

* **One flat cycle kernel.**  The reference engine dispatches through
  ``_cycle_body`` → ``_drain_sb`` / ``_commit`` / ``_dispatch`` /
  ``_attribute_stall`` every cycle.  :func:`repro.sim.kernel.cycle_kernel`
  runs those phases in one function whose per-cycle state (cycle counter,
  fetch pointer, queue occupancies, SB-head latch) lives in local
  variables, with the SB push/pop inlined.  The multicore scheduler runs
  the same kernel, so the timing model is written once.

* **Precomputed µop arrays.**  ``MicroOp`` property calls (``is_load``,
  ``latency``) and the per-access ``addr // block_bytes`` division are
  folded into flat per-index lists (:func:`uop_arrays`): kind codes,
  cache-block numbers, execution latencies, dependency distances, PCs and
  branch annotations.  The hot loop reads plain list slots instead of
  touching µop objects at all, and the lists are cached on the trace, so
  every config cell run on one trace shares a single set.

* **Quiescent-span skipping.**  Like the reference engine, when a cycle
  makes no progress (no in-flight fill arriving, SB head waiting on a
  known-latency miss, frontend redirect pending) the kernel advances the
  cycle counter straight to the next scheduled event and scales stall
  attribution and occupancy sampling by the span length.  The skip
  conditions are identical by construction, so cycle counts match exactly.
"""

from __future__ import annotations

from repro.cpu.pipeline import Pipeline
from repro.isa.trace import Trace
from repro.isa.uop import OP_LATENCIES, OpKind
from repro.sim.kernel import _ALU, _BRANCH, _LOAD, _STORE, cycle_kernel


def _flatten(ops, block_bytes: int) -> tuple[list, ...]:
    """The per-µop arrays of ``ops``, in :func:`uop_arrays` order."""
    # One comprehension per array keeps the precompute in C-loop
    # territory; a 10k-µop trace costs ~2 ms to flatten.
    code = {k: _ALU for k in OpKind}
    code[OpKind.LOAD] = _LOAD
    code[OpKind.STORE] = _STORE
    code[OpKind.BRANCH] = _BRANCH
    op_kinds = [op.kind for op in ops]
    addrs = [op.addr for op in ops]
    return (
        [code[k] for k in op_kinds],
        [OP_LATENCIES[k] for k in op_kinds],
        addrs,
        [addr // block_bytes for addr in addrs],
        [op.dep_distance for op in ops],
        [op.pc for op in ops],
        [op.size for op in ops],
        [op.mispredicted for op in ops],
        [op.taken for op in ops],
    )


def uop_arrays(trace: Trace, block_bytes: int) -> tuple[list, ...]:
    """Flat per-µop arrays of ``trace`` for ``block_bytes``-byte blocks.

    Returns ``(kinds, latencies, addrs, blocks, deps, pcs, sizes,
    mispredicted, taken)``.  They are computed once per ``(trace,
    block_bytes)`` and cached on the trace, so every cell of a sweep that
    reuses the trace shares one set; the pipelines and the multicore
    scheduler only read them.
    """
    return trace.derived(
        ("fastpath.uop_arrays", block_bytes),
        lambda: _flatten(trace, block_bytes),
    )


class FastPipeline(Pipeline):
    """Bit-identical, faster implementation of the reference pipeline.

    Only :meth:`run` is overridden; :meth:`~Pipeline.step` (the multicore
    lockstep entry point) and all queries fall back to the reference
    implementation, which keeps the two engines interchangeable everywhere.
    The per-µop arrays set up here are what the cycle kernel reads, under
    ``run`` and under the multicore scheduler alike.
    """

    _SHARED_ON_COPY = Pipeline._SHARED_ON_COPY | {
        "_fp_kinds", "_fp_lats", "_fp_addrs", "_fp_blocks", "_fp_deps",
        "_fp_pcs", "_fp_sizes", "_fp_mispreds", "_fp_takens",
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        (
            self._fp_kinds, self._fp_lats, self._fp_addrs, self._fp_blocks,
            self._fp_deps, self._fp_pcs, self._fp_sizes, self._fp_mispreds,
            self._fp_takens,
        ) = uop_arrays(self.trace, self.block_bytes)

    def run(self, max_cycles: int = 500_000_000, *, pause_before: int | None = None):
        """Run to completion under the shared cycle kernel.

        With ``pause_before`` the run instead stops at the top of the first
        cycle that could dispatch µop ``pause_before`` (the first with
        ``ip + width > pause_before``), with every piece of state flushed
        back, and a later ``run()`` resumes it exactly where it stopped.
        :mod:`repro.sim.prefix` pauses at a trace's first store, where
        config cells that differ only in SB size or store-prefetch policy
        are still identical.
        """
        # Without a shared clock the kernel never yields: one ``next`` runs
        # it to completion or to the pause point.
        next(cycle_kernel(self, max_cycles, pause_before), None)
        return self.stats


#: Engine name -> pipeline implementation.
ENGINE_CLASSES = {"reference": Pipeline, "fast": FastPipeline}


def pipeline_class(engine: str) -> type[Pipeline]:
    """Resolve a ``SystemConfig.engine`` value to its pipeline class."""
    try:
        return ENGINE_CLASSES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {sorted(ENGINE_CLASSES)}"
        ) from None

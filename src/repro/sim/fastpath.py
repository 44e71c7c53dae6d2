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

* **One flat run loop.**  The reference engine dispatches through
  ``_cycle_body`` → ``_drain_sb`` / ``_commit`` / ``_dispatch`` /
  ``_attribute_stall`` every cycle.  The fast engine transcribes those
  phases into a single function whose per-cycle state (cycle counter,
  fetch pointer, queue occupancies, SB-head latch) lives in local
  variables, eliminating thousands of attribute lookups and method calls
  per simulated kilocycle.

* **Precomputed µop arrays.**  ``MicroOp`` property calls (``is_load``,
  ``latency``) and the per-access ``addr // block_bytes`` division are
  folded into flat per-index lists (:func:`uop_arrays`): kind codes,
  cache-block numbers, execution latencies, dependency distances, PCs and
  branch annotations.  The hot loop reads plain list slots instead of
  touching µop objects at all, and the lists are cached on the trace, so
  every config cell run on one trace shares a single set.

* **Inlined store-buffer fast path.**  The pipeline's SB is always
  constructed unbounded (capacity is enforced at dispatch), so the push /
  pop bookkeeping is inlined without the capacity checks, while keeping the
  same statistics and trace events.

* **Quiescent-span skipping.**  Like the reference engine, when a cycle
  makes no progress (no in-flight fill arriving, SB head waiting on a
  known-latency miss, frontend redirect pending) the loop advances the
  cycle counter straight to the next scheduled event and scales stall
  attribution and occupancy sampling by the span length.  The skip
  conditions are identical by construction, so cycle counts match exactly.

Statistics are accumulated in local integers and flushed to the shared
stat objects when the loop exits (also on error, via ``finally``), so a
completed run is indistinguishable from a reference run.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.core.store_buffer import StoreBufferEntry
from repro.cpu.pipeline import Pipeline
from repro.isa.trace import Trace
from repro.isa.uop import OP_LATENCIES, OpKind

#: Kind codes used by the precomputed arrays (index = code).
_ALU, _LOAD, _STORE, _BRANCH = 0, 1, 2, 3
_TAGS = ("alu", "load", "store", "branch")


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

    def run(  # noqa: C901 — one hot loop
        self, max_cycles: int = 500_000_000, *, pause_before: int | None = None
    ):
        """Run to completion; semantics transcribed from the reference loop.

        With ``pause_before`` the run instead stops at the top of the first
        cycle that could dispatch µop ``pause_before`` (the first with
        ``ip + width > pause_before``), with every piece of state flushed
        back, and a later ``run()`` resumes it exactly where it stopped.
        :mod:`repro.sim.prefix` pauses at a trace's first store, where
        config cells that differ only in SB size or store-prefetch policy
        are still identical.
        """
        # ---- immutable context, hoisted to locals -----------------------
        ops = self._ops
        n = self._n
        width = self.width
        # Pausing costs one comparison per dispatching cycle: the dispatch
        # stage arms it by dropping ``cycle_limit`` below zero, which trips
        # the per-cycle ``max_cycles`` check at the end of that cycle.
        pause_ip = n if pause_before is None else pause_before - width
        if self._ip > pause_ip:
            return self.stats
        cycle_limit = max_cycles
        kinds = self._fp_kinds
        blocks = self._fp_blocks
        lats = self._fp_lats
        deps = self._fp_deps
        pcs = self._fp_pcs
        addrs = self._fp_addrs
        sizes = self._fp_sizes
        mispreds = self._fp_mispreds
        takens = self._fp_takens
        ready = self._ready
        # Local ROB of bare indices: the reference deque of (index, op)
        # tuples is rebuilt from it on exit, so outside observers see the
        # same structure while the hot loop never allocates tuples.
        rob_shared = self._rob
        rob = deque(entry[0] for entry in rob_shared)
        rob_len = len(rob)
        sb = self.sb
        sb_entries = sb._entries
        sb_len = len(sb_entries)
        sb_blocks = sb._blocks
        sb_get = sb_blocks.get
        sb_stats = sb.stats
        sb_coalescing = sb.coalescing
        sb_core = sb.core
        stats = self.stats
        stalls = stats.stalls
        sb_stall_by_pc = stats.sb_stall_by_pc
        hierarchy = self.hierarchy
        engine = self.engine
        l1_mshr = hierarchy.l1_mshr
        tracer = self.tracer
        core_id = self._core_id
        rob_cap = self.rob_capacity
        iq_cap = self.iq_capacity
        lq_cap = self.lq_capacity
        sq_cap = self.sq_capacity
        sq_unbounded = self.sq_unbounded
        mp_penalty = self.mispredict_penalty
        l1_latency = self.config.caches.l1d.latency
        iq_release = self._iq_release
        predictor = self.predictor
        trace_annotated = self._trace_annotated
        heappush = heapq.heappush
        heappop = heapq.heappop
        hier_load = hierarchy.load
        hier_fill_arrival = hierarchy.fill_arrival
        hier_has_write = hierarchy.has_write_permission
        hier_perform_store = hierarchy.perform_store
        hier_store_permission = hierarchy.store_permission
        on_store_executed = engine.on_store_executed
        on_store_committed = engine.on_store_committed
        on_store_performed = engine.on_store_performed
        mshr_outstanding = l1_mshr.outstanding
        # The in-flight heaps are mutated in place and never rebound, so
        # their truthiness gates the per-cycle ``outstanding`` call: with
        # both empty there is nothing to expire and the count is zero.
        mshr_demand = l1_mshr._demand
        mshr_prefetch = l1_mshr._prefetch

        # ---- mutable per-cycle state in locals --------------------------
        cycle = self.cycle
        ip = self._ip
        loads_in_rob = self._loads_in_rob
        sq_occ = self._sq_occupancy
        sq_blocks = self._sq_blocks
        sq_get = sq_blocks.get
        iq_occ = self._iq_occupancy
        fetch_resume = self._fetch_resume
        sb_head_ready = self._sb_head_ready
        sb_head_accounted = self._sb_head_accounted

        # ---- statistic accumulators (flushed on exit) -------------------
        cycles_acc = 0
        uops_acc = 0
        stores_acc = 0
        loads_acc = 0
        branches_acc = 0
        mispred_acc = 0
        load_wait_acc = 0
        exec_stall_acc = 0
        sb_stall_acc = 0
        stall_sb = 0
        stall_rob = 0
        stall_iq = 0
        stall_lq = 0
        stall_fe = 0
        occ_integral_acc = 0
        occ_samples_acc = 0
        cam_acc = 0
        fwd_acc = 0
        push_acc = 0
        coalesce_acc = 0
        drain_acc = 0
        max_occ = sb_stats.max_occupancy

        try:
            while ip < n or rob_len or sb_len:
                # ---- drain the SB head (reference: _drain_sb) -----------
                drained = False
                if sb_len:
                    head = sb_entries[0]
                    head_block = head.block
                    if sb_head_ready is None:
                        arrival = hier_fill_arrival(head_block, cycle)
                        if not sb_head_accounted:
                            on_store_performed(head_block, cycle)
                            sb_head_accounted = True
                        if arrival is not None:
                            sb_head_ready = arrival
                        elif hier_has_write(head_block):
                            sb_head_ready = cycle
                        else:
                            sb_head_ready = hier_store_permission(
                                head_block, cycle
                            ).completion
                    if sb_head_ready <= cycle:
                        if hier_has_write(head_block):
                            hier_perform_store(head_block, cycle)
                        # Inlined sb.pop(cycle).
                        sb_entries.popleft()
                        sb_len -= 1
                        remaining = sb_blocks[head_block] - 1
                        if remaining:
                            sb_blocks[head_block] = remaining
                        else:
                            del sb_blocks[head_block]
                        drain_acc += 1
                        if tracer is not None:
                            tracer.emit(
                                cycle, "sb.drain", core=sb_core,
                                block=head_block, value=sb_len,
                            )
                        sq_occ -= 1
                        remaining = sq_blocks[head_block] - 1
                        if remaining:
                            sq_blocks[head_block] = remaining
                        else:
                            del sq_blocks[head_block]
                        sb_head_ready = None
                        sb_head_accounted = False
                        drained = True

                # ---- commit (reference: _commit) ------------------------
                committed = 0
                while committed < width and rob_len:
                    index = rob[0]
                    if ready[index] > cycle:
                        break
                    kind = kinds[index]
                    if kind == _STORE:
                        block = blocks[index]
                        # Inlined sb.push (the pipeline's SB is unbounded:
                        # capacity is enforced at dispatch).
                        if (
                            sb_coalescing
                            and sb_len
                            and sb_entries[-1].block == block
                        ):
                            coalesce_acc += 1
                            push_acc += 1
                            if tracer is not None:
                                tracer.emit(
                                    cycle, "sb.coalesce", core=sb_core,
                                    block=block, pc=pcs[index],
                                )
                            # The store merged into the SB tail: its queue
                            # slot frees immediately.
                            sq_occ -= 1
                            remaining = sq_blocks[block] - 1
                            if remaining:
                                sq_blocks[block] = remaining
                            else:
                                del sq_blocks[block]
                        else:
                            sb_entries.append(
                                StoreBufferEntry(
                                    block=block,
                                    addr=addrs[index],
                                    size=sizes[index],
                                    pc=pcs[index],
                                    commit_cycle=cycle,
                                )
                            )
                            sb_len += 1
                            sb_blocks[block] = sb_get(block, 0) + 1
                            push_acc += 1
                            if sb_len > max_occ:
                                max_occ = sb_len
                            if tracer is not None:
                                tracer.emit(
                                    cycle, "sb.insert", core=sb_core,
                                    block=block, pc=pcs[index],
                                    value=sb_len,
                                )
                        on_store_committed(block, addrs[index], cycle)
                        stores_acc += 1
                    elif kind == _LOAD:
                        loads_in_rob -= 1
                        loads_acc += 1
                    elif kind == _BRANCH:
                        branches_acc += 1
                    rob.popleft()
                    rob_len -= 1
                    uops_acc += 1
                    committed += 1
                    if tracer is not None:
                        tracer.emit(
                            cycle, "uop.commit", core=core_id,
                            pc=pcs[index], value=index, tag=_TAGS[kind],
                        )

                # ---- dispatch (reference: _dispatch) --------------------
                dispatched = 0
                block_reason = None
                blocked_pc = 0
                if ip < n:
                    if fetch_resume > cycle:
                        block_reason = "frontend"
                    else:
                        while iq_release and iq_release[0] <= cycle:
                            heappop(iq_release)
                            iq_occ -= 1
                        while dispatched < width and ip < n:
                            kind = kinds[ip]
                            if rob_len >= rob_cap:
                                block_reason = "rob"
                                break
                            if iq_occ >= iq_cap:
                                block_reason = "issue_queue"
                                break
                            if kind == _LOAD and loads_in_rob >= lq_cap:
                                block_reason = "load_queue"
                                break
                            if (
                                kind == _STORE
                                and not sq_unbounded
                                and sq_occ >= sq_cap
                            ):
                                block_reason = "sb"
                                blocked_pc = pcs[ip]
                                break
                            index = ip
                            dep = deps[index]
                            dep_ready = (
                                ready[index - dep]
                                if dep and index >= dep
                                else 0
                            )
                            issue = cycle + 1
                            if dep_ready > issue:
                                issue = dep_ready
                            if kind == _LOAD:
                                block = blocks[index]
                                self._last_load_block = block
                                cam_acc += 1
                                if block in sq_blocks:
                                    fwd_acc += 1
                                    completion = issue + l1_latency
                                else:
                                    completion = hier_load(block, issue).completion
                                load_wait_acc += completion - issue
                                loads_in_rob += 1
                            elif kind == _STORE:
                                block = blocks[index]
                                self._last_store_block = block
                                completion = issue + lats[index]
                                sq_occ += 1
                                sq_blocks[block] = sq_get(block, 0) + 1
                                on_store_executed(block, issue)
                            else:
                                completion = issue + lats[index]
                            ready[index] = completion
                            rob.append(index)
                            rob_len += 1
                            iq_occ += 1
                            heappush(iq_release, issue)
                            ip += 1
                            dispatched += 1
                            if tracer is not None:
                                kind_tag = _TAGS[kind]
                                tracer.emit(
                                    cycle, "uop.dispatch", core=core_id,
                                    pc=pcs[index],
                                    addr=addrs[index]
                                    if kind == _LOAD or kind == _STORE
                                    else None,
                                    value=index, tag=kind_tag,
                                )
                                tracer.emit(
                                    issue, "uop.issue", core=core_id,
                                    value=index, tag=kind_tag,
                                )
                            if kind == _BRANCH:
                                if trace_annotated:
                                    mispredicted = mispreds[index]
                                else:
                                    predicted = predictor.predict(pcs[index])
                                    mispredicted = predictor.record(
                                        predicted, takens[index]
                                    )
                                    predictor.update(pcs[index], takens[index])
                                if mispredicted:
                                    mispred_acc += 1
                                    fetch_resume = completion + mp_penalty
                                    if tracer is not None:
                                        tracer.emit(
                                            cycle, "frontend.redirect",
                                            core=core_id, pc=pcs[index],
                                            value=fetch_resume,
                                        )
                                    # Rare path: sync the state the helper
                                    # reads, then reuse the reference code.
                                    self.cycle = cycle
                                    self._inject_wrong_path(completion - cycle)
                                    break
                        if ip > pause_ip:
                            cycle_limit = -1

                # ---- stall attribution, sampling, advance ---------------
                # Reference order: _attribute_stall for the blocked cycle
                # (event stamped at the pre-increment cycle), the L1D-miss-
                # pending check (whose MSHR expiry may emit mshr.release),
                # occupancy sampling, then the cycle increment; a second
                # _attribute_stall for a skipped span is stamped at the
                # post-increment cycle.
                if dispatched == 0 and ip < n:
                    if tracer is not None and block_reason is not None:
                        tracer.emit(
                            cycle, "stall.dispatch", core=core_id,
                            tag=block_reason, value=1,
                            pc=blocked_pc if block_reason == "sb" else None,
                        )
                    if block_reason == "sb":
                        stall_sb += 1
                        sb_stall_acc += 1
                        sb_stall_by_pc[blocked_pc] += 1
                    elif block_reason == "frontend":
                        stall_fe += 1
                    elif block_reason == "issue_queue":
                        stall_iq += 1
                    elif block_reason == "load_queue":
                        stall_lq += 1
                    elif block_reason == "rob":
                        stall_rob += 1
                l1d_pending = False
                if (
                    committed == 0
                    and (mshr_demand or mshr_prefetch)
                    and mshr_outstanding(cycle)
                ):
                    exec_stall_acc += 1
                    l1d_pending = True
                occ_integral_acc += sb_len
                occ_samples_acc += 1
                cycles_acc += 1
                cycle += 1

                if not (drained or committed or dispatched):
                    # Quiescent span: jump to the next scheduled event
                    # (reference: _next_event), charging the skipped cycles
                    # to the same stall bucket.
                    target = 0
                    if sb_head_ready is not None and sb_head_ready > cycle:
                        target = sb_head_ready
                    if rob_len:
                        head_ready = ready[rob[0]]
                        if head_ready > cycle and (
                            target == 0 or head_ready < target
                        ):
                            target = head_ready
                    if ip < n and fetch_resume > cycle and (
                        target == 0 or fetch_resume < target
                    ):
                        target = fetch_resume
                    if iq_release and iq_release[0] > cycle and (
                        target == 0 or iq_release[0] < target
                    ):
                        target = iq_release[0]
                    if target <= cycle + 1:
                        target = cycle + 1
                    extra = target - cycle
                    if extra > 0:
                        if ip < n:
                            if tracer is not None and block_reason is not None:
                                tracer.emit(
                                    cycle, "stall.dispatch", core=core_id,
                                    tag=block_reason, value=extra,
                                    pc=blocked_pc
                                    if block_reason == "sb"
                                    else None,
                                )
                            if block_reason == "sb":
                                stall_sb += extra
                                sb_stall_acc += extra
                                sb_stall_by_pc[blocked_pc] += extra
                            elif block_reason == "frontend":
                                stall_fe += extra
                            elif block_reason == "issue_queue":
                                stall_iq += extra
                            elif block_reason == "load_queue":
                                stall_lq += extra
                            elif block_reason == "rob":
                                stall_rob += extra
                        if l1d_pending:
                            exec_stall_acc += extra
                        occ_integral_acc += sb_len * extra
                        occ_samples_acc += extra
                        cycles_acc += extra
                        cycle = target

                if cycle > cycle_limit:
                    if cycle_limit < 0:
                        break  # pause point: the next cycle may dispatch it
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles "
                        f"(ip={ip}/{n}, rob={rob_len}, sb={sb_len})"
                    )
        finally:
            # ---- flush locals back to the shared state ------------------
            rob_shared.clear()
            rob_shared.extend((index, ops[index]) for index in rob)
            self.cycle = cycle
            self._ip = ip
            self._loads_in_rob = loads_in_rob
            self._sq_occupancy = sq_occ
            self._iq_occupancy = iq_occ
            self._fetch_resume = fetch_resume
            self._sb_head_ready = sb_head_ready
            self._sb_head_accounted = sb_head_accounted
            stats.cycles += cycles_acc
            stats.committed_uops += uops_acc
            stats.committed_stores += stores_acc
            stats.committed_loads += loads_acc
            stats.committed_branches += branches_acc
            stats.mispredicted_branches += mispred_acc
            stats.load_wait_cycles += load_wait_acc
            stats.exec_stall_l1d_pending += exec_stall_acc
            stats.sb_stall_cycles += sb_stall_acc
            stalls.sb_full += stall_sb
            stalls.rob_full += stall_rob
            stalls.issue_queue_full += stall_iq
            stalls.load_queue_full += stall_lq
            stalls.frontend += stall_fe
            sb_stats.occupancy_integral += occ_integral_acc
            sb_stats.occupancy_samples += occ_samples_acc
            sb_stats.cam_searches += cam_acc
            sb_stats.forwarding_hits += fwd_acc
            sb_stats.pushes += push_acc
            sb_stats.coalesced += coalesce_acc
            sb_stats.drains += drain_acc
            sb_stats.max_occupancy = max_occ
        return stats


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

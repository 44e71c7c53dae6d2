"""The one cycle kernel behind both fast engines.

:func:`cycle_kernel` is the reference ``Pipeline._cycle_body`` (SB drain,
commit into the SB, dispatch with the SB-full stall, per-cycle stall
attribution) flattened into one loop whose per-cycle state lives in local
variables.  :meth:`FastPipeline.run <repro.sim.fastpath.FastPipeline.run>`
drives it for a single core and the event-heap scheduler
(:mod:`repro.multicore.scheduler`) drives one per core, so every change to
the timing model is made here once.

Only the step after a cycle without progress differs, chosen by whether a
shared clock is passed:

* **No clock (single core).**  The kernel jumps to the core's next event
  like ``Pipeline.run`` and charges the skipped span in full: its stall
  bucket, the L1D-miss-pending counter and SB occupancy, each times the
  span, with one ``stall.dispatch`` event of ``value=extra``.  A finished
  pipeline (an empty trace) runs no cycle at all.
* **Shared clock (multicore).**  The kernel parks or jumps under the
  scheduler's protocol and charges lockstep jump spans ``cycles`` only, as
  ``MulticoreSystem._run_lockstep`` does; an initially finished core is
  stepped once, as the lockstep does.

The two accountings really differ, even for one core: canneal on one
thread (4 k µops, SB 56) takes 4 791 cycles either way, but ``rob_full``
reads 1 551 single-core and 58 in a one-core multicore run, and
``exec_stall_l1d_pending`` 3 532 against 249; an empty trace takes 0 cycles
under ``simulate`` and 1 under ``simulate_multicore``.

The SB is always built unbounded (capacity is enforced at dispatch), so its
push/pop bookkeeping is inlined without capacity checks, keeping the same
statistics and trace events.  Statistics gather in local integers and are
flushed back on exit (also on error and on ``close()``, via ``finally``).
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.core.store_buffer import StoreBufferEntry

_INF = float("inf")

#: Kind codes used by the precomputed arrays (index = code).
_ALU, _LOAD, _STORE, _BRANCH = 0, 1, 2, 3
_TAGS = ("alu", "load", "store", "branch")

#: Dispatch block reason -> the StallBreakdown field it is charged to.
_STALL_FIELDS = {
    "sb": "sb_full",
    "rob": "rob_full",
    "issue_queue": "issue_queue_full",
    "load_queue": "load_queue_full",
    "frontend": "frontend",
}


def _jump_contribution(cands: tuple, threshold: int) -> int:
    """One core's ``Pipeline._next_event()`` at ``cycle == threshold``.

    ``cands`` are the core's latched candidate events.  Candidates at or
    before ``threshold`` are excluded and the no-candidate fallback is
    ``threshold + 1``, as in the reference.
    """
    best = 0
    for v in cands:
        if v > threshold and (best == 0 or v < best):
            best = v
    return best if best else threshold + 1


def cycle_kernel(  # noqa: C901 — one hot loop
    pipe, max_cycles: int, pause_before: int | None = None,
    clock=None, my_id: int = 0,
):
    """Run ``pipe`` (a :class:`FastPipeline`) cycle by cycle, as a generator.

    Without ``clock`` it never yields: it runs to completion, or pauses at
    the top of the first cycle that could dispatch µop ``pause_before``
    (the first with ``ip + width > pause_before``) with all state flushed
    back, so a later call resumes exactly there.

    With the scheduler's ``clock`` it yields ``(key, cands)`` whenever the
    core must hand control back: ``key`` is the global cycle at which its
    body next needs to run and ``cands`` its latched candidate events, or
    ``None`` right after a progress cycle.  The scheduler resumes it with
    ``(resume, horizon_time, horizon_id)``: the cycle it was popped at and
    the heap minimum without it.  ``my_id`` orders it among tied cores.
    """
    # ---- immutable context, hoisted to locals -----------------------------
    ops = pipe._ops
    n = pipe._n
    width = pipe.width
    kinds = pipe._fp_kinds
    blocks = pipe._fp_blocks
    lats = pipe._fp_lats
    deps = pipe._fp_deps
    pcs = pipe._fp_pcs
    addrs = pipe._fp_addrs
    sizes = pipe._fp_sizes
    mispreds = pipe._fp_mispreds
    takens = pipe._fp_takens
    ready = pipe._ready
    # Local ROB of bare indices: the reference deque of (index, op) tuples
    # is rebuilt from it on exit, so outside observers see the same
    # structure while the hot loop never allocates tuples.
    rob_shared = pipe._rob
    rob = deque(entry[0] for entry in rob_shared)
    rob_len = len(rob)
    sb = pipe.sb
    sb_entries = sb._entries
    sb_len = len(sb_entries)
    # Pausing costs one comparison per dispatching cycle: the dispatch stage
    # arms it by dropping ``cycle_limit`` below zero, which trips the
    # per-cycle ``max_cycles`` check at the end of that cycle.
    pause_ip = n if pause_before is None else pause_before - width
    ip = pipe._ip
    if clock is None and (ip > pause_ip or (ip >= n and not rob_len and not sb_len)):
        return
    cycle_limit = max(max_cycles, 0)  # below zero it would read as a pause
    sb_blocks = sb._blocks
    sb_get = sb_blocks.get
    sb_stats = sb.stats
    sb_coalescing = sb.coalescing
    sb_core = sb.core
    stats = pipe.stats
    sb_stall_by_pc = stats.sb_stall_by_pc
    hierarchy = pipe.hierarchy
    engine = pipe.engine
    l1_mshr = hierarchy.l1_mshr
    tracer = pipe.tracer
    core_id = pipe._core_id
    rob_cap = pipe.rob_capacity
    iq_cap = pipe.iq_capacity
    lq_cap = pipe.lq_capacity
    sq_cap = pipe.sq_capacity
    sq_unbounded = pipe.sq_unbounded
    mp_penalty = pipe.mispredict_penalty
    l1_latency = pipe.config.caches.l1d.latency
    iq_release = pipe._iq_release
    predictor = pipe.predictor
    trace_annotated = pipe._trace_annotated
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
    # The in-flight heaps are mutated in place and never rebound, so their
    # truthiness gates the per-cycle ``outstanding`` call: with both empty
    # there is nothing to expire and the count is zero.
    mshr_demand = l1_mshr._demand
    mshr_prefetch = l1_mshr._prefetch

    # ---- mutable per-cycle state in locals --------------------------------
    cycle = pipe.cycle
    loads_in_rob = pipe._loads_in_rob
    sq_occ = pipe._sq_occupancy
    sq_blocks = pipe._sq_blocks
    sq_get = sq_blocks.get
    iq_occ = pipe._iq_occupancy
    fetch_resume = pipe._fetch_resume
    sb_head_ready = pipe._sb_head_ready
    sb_head_accounted = pipe._sb_head_accounted

    # ---- statistic accumulators (flushed on exit) -------------------------
    cycles_acc = 0
    uops_acc = 0
    stores_acc = 0
    loads_acc = 0
    branches_acc = 0
    mispred_acc = 0
    load_wait_acc = 0
    exec_stall_acc = 0
    # Stall cycles by block reason (``None`` when nothing blocked).
    stall_acc = dict.fromkeys((None, *_STALL_FIELDS), 0)
    occ_integral_acc = 0
    occ_samples_acc = 0
    cam_acc = 0
    fwd_acc = 0
    push_acc = 0
    coalesce_acc = 0
    drain_acc = 0
    max_occ = sb_stats.max_occupancy

    # ---- scheduling state (shared clock only) -----------------------------
    if clock is not None:
        skipped_before = clock.skipped_before
    park_key = None if clock is None else cycle  # first yield at the start
    park_cands = None
    block_reason = None
    blocked_pc = 0
    gprog = False
    htime = _INF
    hid = -1

    try:
        while True:
            if park_key is not None:
                resume, htime, hid = yield (park_key, park_cands)
                if resume != cycle:
                    if park_cands is None:
                        raise RuntimeError(
                            "scheduler resumed an active core off-cycle"
                        )
                    # ---- settle the quiescent span [cycle, resume) ------
                    # The lockstep steps this blocked core at every stepped
                    # cycle of the span (full accounting, reason frozen)
                    # and charges only ``cycles`` for skipped ones.
                    a = cycle
                    b = resume
                    cycles_acc += b - a
                    attrib = ip < n and block_reason is not None
                    if tracer is None:
                        skipped_a = skipped_before(a)
                        stepped = (b - a) - (skipped_before(b) - skipped_a)
                        if stepped:
                            if attrib:
                                stall_acc[block_reason] += stepped
                                if block_reason == "sb":
                                    sb_stall_by_pc[blocked_pc] += stepped
                            occ_integral_acc += sb_len * stepped
                            occ_samples_acc += stepped
                            # L1D-miss-pending check: nothing commits while
                            # quiescent and the MSHR heaps are frozen, so
                            # outstanding(cyc) > 0 iff cyc < max completion.
                            mshr_max = max((*mshr_demand, *mshr_prefetch), default=0)
                            if mshr_max > a:
                                upto = mshr_max if mshr_max < b else b
                                exec_stall_acc += (upto - a) - (
                                    skipped_before(upto) - skipped_a
                                )
                    else:
                        # Traced: replay stepped cycles one by one so the
                        # stall.dispatch / mshr.release events carry the
                        # lockstep cycle stamps, in its order within this
                        # core's stream.
                        pc_arg = blocked_pc if block_reason == "sb" else None
                        for cyc in clock.iter_stepped(a, b):
                            if attrib:
                                tracer.emit(
                                    cyc, "stall.dispatch", core=core_id,
                                    tag=block_reason, value=1, pc=pc_arg,
                                )
                                stall_acc[block_reason] += 1
                                if block_reason == "sb":
                                    sb_stall_by_pc[blocked_pc] += 1
                            if mshr_outstanding(cyc):
                                exec_stall_acc += 1
                            occ_integral_acc += sb_len
                            occ_samples_acc += 1
                    cycle = resume
                gprog = clock.progress
                park_key = None

            # ---- drain the SB head (reference: _drain_sb) ---------------
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

            # ---- commit (reference: _commit) ----------------------------
            committed = 0
            while committed < width and rob_len:
                index = rob[0]
                if ready[index] > cycle:
                    break
                kind = kinds[index]
                if kind == _STORE:
                    block = blocks[index]
                    # Inlined sb.push (the SB is unbounded: capacity is
                    # enforced at dispatch).
                    if sb_coalescing and sb_len and sb_entries[-1].block == block:
                        coalesce_acc += 1
                        push_acc += 1
                        if tracer is not None:
                            tracer.emit(
                                cycle, "sb.coalesce", core=sb_core,
                                block=block, pc=pcs[index],
                            )
                        # The store merged into the SB tail: its queue slot
                        # frees immediately.
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
                                block=block, pc=pcs[index], value=sb_len,
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

            # ---- dispatch (reference: _dispatch) ------------------------
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
                        if kind == _STORE and not sq_unbounded and sq_occ >= sq_cap:
                            block_reason = "sb"
                            blocked_pc = pcs[ip]
                            break
                        index = ip
                        dep = deps[index]
                        dep_ready = ready[index - dep] if dep and index >= dep else 0
                        issue = cycle + 1
                        if dep_ready > issue:
                            issue = dep_ready
                        if kind == _LOAD:
                            block = blocks[index]
                            pipe._last_load_block = block
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
                            pipe._last_store_block = block
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
                                pipe.cycle = cycle
                                pipe._inject_wrong_path(completion - cycle)
                                break
                    if ip > pause_ip:
                        cycle_limit = -1

            # ---- stall attribution, sampling, advance -------------------
            # Reference order: _attribute_stall for the blocked cycle (event
            # stamped at the pre-increment cycle), the L1D-miss-pending
            # check (whose MSHR expiry may emit mshr.release), occupancy
            # sampling, then the cycle increment; a skipped span is stamped
            # at the post-increment cycle.
            if dispatched == 0 and ip < n:
                if tracer is not None and block_reason is not None:
                    tracer.emit(
                        cycle, "stall.dispatch", core=core_id,
                        tag=block_reason, value=1,
                        pc=blocked_pc if block_reason == "sb" else None,
                    )
                stall_acc[block_reason] += 1
                if block_reason == "sb":
                    sb_stall_by_pc[blocked_pc] += 1
            l1d_pending = False
            if committed == 0 and (mshr_demand or mshr_prefetch) and mshr_outstanding(cycle):
                exec_stall_acc += 1
                l1d_pending = True
            occ_integral_acc += sb_len
            occ_samples_acc += 1
            cycles_acc += 1
            cycle += 1
            done = ip >= n and not rob_len and not sb_len

            if clock is None:
                if not (drained or committed or dispatched):
                    # Quiescent span: jump to the next scheduled event
                    # (reference: _next_event), charging the skipped cycles
                    # to the same stall bucket.
                    target = 0
                    if sb_head_ready is not None and sb_head_ready > cycle:
                        target = sb_head_ready
                    if rob_len:
                        head_ready = ready[rob[0]]
                        if head_ready > cycle and (target == 0 or head_ready < target):
                            target = head_ready
                    if ip < n and fetch_resume > cycle and (
                        target == 0 or fetch_resume < target
                    ):
                        target = fetch_resume
                    if iq_release and iq_release[0] > cycle and (
                        target == 0 or iq_release[0] < target
                    ):
                        target = iq_release[0]
                    extra = target - cycle if target else 1
                    if ip < n:
                        if tracer is not None and block_reason is not None:
                            tracer.emit(
                                cycle, "stall.dispatch", core=core_id,
                                tag=block_reason, value=extra,
                                pc=blocked_pc if block_reason == "sb" else None,
                            )
                        stall_acc[block_reason] += extra
                        if block_reason == "sb":
                            sb_stall_by_pc[blocked_pc] += extra
                    if l1d_pending:
                        exec_stall_acc += extra
                    occ_integral_acc += sb_len * extra
                    occ_samples_acc += extra
                    cycles_acc += extra
                    cycle += extra
            else:
                # ---- shared clock: finalize, park or jump ---------------
                # Bodies always start at the frontier; cycles this core ran
                # through are finalized up to (not including) the one just
                # processed.  Exits that finalize it overwrite this below;
                # tie parks, deferred jumps and quiescent-done exits rely on
                # it.
                clock.frontier = cycle - 1
                progressed = drained or committed or dispatched
                if progressed and htime < cycle:
                    # Another core is still due at the cycle just processed
                    # (htime == cycle - 1): record progress and park among
                    # the ties without finalizing the cycle.
                    clock.progress = True
                    park_key = cycle
                    park_cands = None
                elif progressed or (gprog and htime >= cycle):
                    # Last core to process cycle ``cycle - 1``: finalize it,
                    # and keep running while still first at the next one.
                    if gprog:
                        clock.progress = gprog = False
                    if done or not (cycle < htime or (cycle == htime and my_id < hid)):
                        clock.frontier = cycle
                        park_key = cycle
                        park_cands = None
                elif not done:
                    # Blocked: park on the earliest latched candidate event
                    # (they stay frozen while blocked).  With htime < cycle
                    # a tie core is still due at cycle - 1; with htime ==
                    # cycle a parked core sits exactly at c + 1, whose event
                    # the reference threshold would exclude, so the jump
                    # needs every parked candidate set and is left to the
                    # scheduler (frontier stays at c).  A done core stops
                    # here: a tie core that just finished, or an initially
                    # done one, which the lockstep steps once and drops
                    # before the jump.
                    c = cycle - 1
                    cands = []
                    if sb_head_ready is not None and sb_head_ready > c:
                        cands.append(sb_head_ready)
                    if rob_len:
                        head_ready = ready[rob[0]]
                        if head_ready > c:
                            cands.append(head_ready)
                    if ip < n and fetch_resume > c:
                        cands.append(fetch_resume)
                    if iq_release and iq_release[0] > c:
                        cands.append(iq_release[0])
                    park_cands = cands = tuple(cands)
                    park_key = min(cands) if cands else cycle
                    if htime > cycle:
                        # Globally blocked and no parked core at the jump
                        # threshold: the jump target is min(own next event,
                        # heap minimum), both with the reference ``> c + 1``
                        # rule.
                        own_ne = _jump_contribution(cands, cycle)
                        target = own_ne if own_ne < htime else htime
                        clock.record_skip(cycle, target)
                        clock.frontier = target
                        if target < htime or (target == htime and my_id < hid):
                            # Keep running solo: the lockstep jump's light
                            # accounting (cycles only) for the skipped span.
                            cycles_acc += target - cycle
                            cycle = target
                            park_key = None
                        elif park_key < target:
                            park_key = target

            if cycle > cycle_limit:
                if cycle_limit < 0:
                    break  # pause point: the next cycle may dispatch it
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(ip={ip}/{n}, rob={rob_len}, sb={sb_len})"
                )
            if done:
                break
    finally:
        # ---- flush locals back to the shared state ------------------------
        rob_shared.clear()
        rob_shared.extend((index, ops[index]) for index in rob)
        pipe.cycle = cycle
        pipe._ip = ip
        pipe._loads_in_rob = loads_in_rob
        pipe._sq_occupancy = sq_occ
        pipe._iq_occupancy = iq_occ
        pipe._fetch_resume = fetch_resume
        pipe._sb_head_ready = sb_head_ready
        pipe._sb_head_accounted = sb_head_accounted
        stats.cycles += cycles_acc
        stats.committed_uops += uops_acc
        stats.committed_stores += stores_acc
        stats.committed_loads += loads_acc
        stats.committed_branches += branches_acc
        stats.mispredicted_branches += mispred_acc
        stats.load_wait_cycles += load_wait_acc
        stats.exec_stall_l1d_pending += exec_stall_acc
        stats.sb_stall_cycles += stall_acc["sb"]
        for reason, field in _STALL_FIELDS.items():
            setattr(stats.stalls, field, getattr(stats.stalls, field) + stall_acc[reason])
        sb_stats.occupancy_integral += occ_integral_acc
        sb_stats.occupancy_samples += occ_samples_acc
        sb_stats.cam_searches += cam_acc
        sb_stats.forwarding_hits += fwd_acc
        sb_stats.pushes += push_acc
        sb_stats.coalesced += coalesce_acc
        sb_stats.drains += drain_acc
        sb_stats.max_occupancy = max_occ

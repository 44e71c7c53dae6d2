"""Event-heap multicore scheduler with cross-core cycle skipping.

:func:`run_fast` replaces the reference lockstep loop in
:meth:`repro.multicore.system.MulticoreSystem.run` when
``SystemConfig.engine == "fast"``.  The reference loop advances *every*
pending core one cycle at a time and can only jump when all cores are
simultaneously blocked; this scheduler runs one
:func:`~repro.sim.kernel.cycle_kernel` per core (the single-core fast
engine's kernel, given this module's shared clock) independently up to a
conservative horizon and skips each core's quiescent spans individually,
while reproducing the lockstep execution **bit-identically** — same
per-core counters, same shared-uncore state evolution, same per-core event
streams (:mod:`repro.sim.diffcheck` enforces this on a PARSEC matrix).
With the clock the kernel keeps the lockstep's skip accounting, which
differs from a single-core run's even on one core (see
:mod:`repro.sim.kernel`).

How equivalence is kept
-----------------------

The reference lockstep has two kinds of global cycles:

* **stepped** cycles — every pending core runs ``step()`` (full per-cycle
  accounting: stall attribution, occupancy sample, MSHR-pending check);
* **skipped** cycles — when *no* core progressed, every pending core gets
  only ``stats.cycles += extra`` and jumps to the earliest
  ``_next_event()`` across cores (light accounting).

Cores interact *only* through the shared uncore, and those interactions
happen *only* inside a core's cycle body (a quiescent core makes no
hierarchy calls: its SB-head latch is resolved, its ROB head and redirect
times are fixed).  Two facts make per-core skipping sound:

1. **Cycle bodies run in global (cycle, core) order.**  Each core is keyed
   in a min-heap by the next cycle at which its body could possibly do
   anything (its earliest latched event: SB-head ready, ROB-head
   completion, fetch redirect, IQ release — all frozen while it is
   blocked).  A running core's *horizon* is the heap minimum: it may only
   run its body for cycle ``c`` while ``(c, core_id)`` precedes the
   horizon, which reproduces the reference's in-cycle core order exactly.
   Remote invalidations/downgrades it performs therefore hit peer caches
   at the same global cycle, preserving the MESI interleaving.

2. **Quiescent spans settle by arithmetic.**  A parked core knows its
   block reason is constant over the span (the resource it blocked on
   cannot free before its latched event).  On resume it splits the span
   into stepped and skipped cycles using a shared skip ledger — the exact
   record of lockstep jump spans — and bulk-applies the reference
   accounting: full per-cycle attribution for stepped cycles, cycles-only
   for skipped ones.  When a tracer is attached the settlement replays the
   span cycle-by-cycle so ``stall.dispatch``/``mshr.release`` events land
   with the reference cycle stamps and order within the core's stream.

The one sharp edge is the reference ``_next_event()`` quirk: computed with
``self.cycle == c + 1`` after a globally blocked cycle ``c``, it *excludes*
candidates at exactly ``c + 1``, so the lockstep jump can overshoot a
core's earliest event.  A runner therefore finalizes a blocked cycle
itself only when no parked core sits exactly at ``c + 1``; otherwise it
parks and defers the jump to :func:`_quiescent_jump`, which recomputes
every parked core's contribution from its latched candidate set with the
reference threshold and re-keys the excluded cores to the jump target
(where the reference steps them with full accounting, as does this
scheduler, via a real body).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right

from repro.sim.kernel import _INF, _jump_contribution, cycle_kernel


class _SharedClock:
    """Global-cycle bookkeeping shared by every core runner.

    ``frontier`` is the first global cycle not yet finalized; ``progress``
    accumulates whether any core progressed at the frontier cycle while
    several cores tie there.  The skip ledger (``starts``/``ends`` plus a
    running ``cum`` of span lengths) records every lockstep jump span so a
    parked core can count how many cycles of its quiescent span were
    stepped versus skipped.
    """

    __slots__ = ("frontier", "progress", "starts", "ends", "cum")

    def __init__(self) -> None:
        self.frontier = 0
        self.progress = False
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.cum: list[int] = []

    def record_skip(self, start: int, end: int) -> None:
        """Record the jump span ``[start, end)`` (strictly after all spans)."""
        if end <= start:
            return
        if self.starts:
            cum_next = self.cum[-1] + self.ends[-1] - self.starts[-1]
        else:
            cum_next = 0
        self.starts.append(start)
        self.ends.append(end)
        self.cum.append(cum_next)

    def skipped_before(self, x: int) -> int:
        """Total skipped cycles in ``[0, x)``."""
        starts = self.starts
        i = bisect_right(starts, x) - 1
        if i < 0:
            return 0
        end = self.ends[i]
        return self.cum[i] + (end if end < x else x) - starts[i]

    def iter_stepped(self, a: int, b: int):
        """Yield the stepped cycles in ``[a, b)`` in ascending order."""
        starts = self.starts
        ends = self.ends
        i = bisect_right(starts, a) - 1
        cur = a
        if i >= 0 and ends[i] > a:
            cur = ends[i]  # ``a`` itself lies inside span ``i``
        i += 1
        n_spans = len(starts)
        while cur < b:
            if i < n_spans and starts[i] < b:
                stop = starts[i]
                while cur < stop:
                    yield cur
                    cur += 1
                cur = ends[i]
                i += 1
            else:
                while cur < b:
                    yield cur
                    cur += 1


def _quiescent_jump(clock: _SharedClock, heap: list, cands_store: list) -> None:
    """Finalize a globally blocked cycle the runners could not finalize.

    Called when the heap minimum is past ``clock.frontier``: every pending
    core ran (or settled) cycle ``frontier`` without progress, so the
    reference would jump from it.  Parked cores keyed at exactly
    ``frontier + 1`` are the threshold-excluded ones — their contribution
    is recomputed from the latched candidates and they are re-keyed to the
    jump target, where the reference steps every core with full accounting
    (so they must run a real body there).
    """
    c = clock.frontier
    threshold = c + 1
    excluded: list[int] = []
    while heap and heap[0][0] == threshold:
        excluded.append(heapq.heappop(heap)[1])
    target = 0
    for cid in excluded:
        cands = cands_store[cid]
        if cands is None:  # pragma: no cover — progress-parks pop at their key
            raise RuntimeError("active core parked at a jump threshold")
        ne = _jump_contribution(cands, threshold)
        if target == 0 or ne < target:
            target = ne
    if heap and (target == 0 or heap[0][0] < target):
        target = heap[0][0]
    clock.record_skip(threshold, target)
    clock.frontier = target
    for cid in excluded:
        heapq.heappush(heap, (target, cid))


def run_fast(system, max_cycles: int = 500_000_000) -> None:
    """Run every core of ``system`` to completion under the event heap.

    Mutates the pipelines' stats in place (like the lockstep loop);
    :meth:`MulticoreSystem.run` assembles the :class:`MulticoreResult`.
    """
    pipelines = system.pipelines
    clock = _SharedClock()
    runners = []
    heap: list[tuple[int, int]] = []
    cands_store: list[tuple | None] = [None] * len(pipelines)
    try:
        sends = []
        for cid, pipe in enumerate(pipelines):
            gen = cycle_kernel(pipe, max_cycles, clock=clock, my_id=cid)
            runners.append(gen)
            sends.append(gen.send)
            key, cands = next(gen)
            cands_store[cid] = cands
            heap.append((key, cid))
        heapq.heapify(heap)
        if heap:
            clock.frontier = heap[0][0]
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        while heap:
            entry = heap[0]
            t = entry[0]
            if t > clock.frontier:
                # Every pending core sat out cycle ``frontier``: the
                # reference steps them all quiescently, then jumps.
                _quiescent_jump(clock, heap, cands_store)
                continue
            # The running core's horizon is the heap minimum *excluding*
            # itself; with the root left in place that is the smaller of
            # its children (every other entry sits below one of them).
            cid = entry[1]
            size = len(heap)
            if size > 2:
                h1 = heap[1]
                h2 = heap[2]
                if h2 < h1:
                    h1 = h2
                ht, hid = h1
            elif size == 2:
                ht, hid = heap[1]
            else:
                ht = _INF
                hid = -1
            try:
                key, cands = sends[cid]((t, ht, hid))
            except StopIteration:
                heappop(heap)
                continue
            cands_store[cid] = cands
            heapreplace(heap, (key, cid))
    finally:
        for gen in runners:
            gen.close()

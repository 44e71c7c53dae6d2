"""Campaign execution: cache tiers first, then a process pool.

Every job is looked up in the two cache tiers (in-process memory, then the
persistent on-disk store); only the misses are simulated.  Misses run on a
``ProcessPoolExecutor`` — the simulator is pure Python and deterministic
per seed, so cells are embarrassingly parallel and a parallel run returns
``SimResult``\\ s identical to a serial run of the same matrix.  Failed or
crashed jobs are retried (``retries`` extra attempts each), and the engine
degrades gracefully to in-process serial execution when ``max_workers`` is
1 or the platform cannot spawn a pool.

Cache misses run grouped by trace identity (workload kind, name, length,
seed, threads) in first-appearance order, and a one-slot memo
(:class:`TraceSlot`) hands every job of a group the trace(s) its first job
generated: a sweep of N configs over one workload builds the workload
once, not N times.  Within a group, cells with the same
:func:`~repro.sim.prefix.prefix_key` run back to back and share their
pre-store prefix: the first simulates it and leaves a snapshot in the
slot, the rest fork from it (:mod:`repro.sim.prefix`).  The first cell's
``wall_time`` therefore carries the prefix.  The memo holds at most one
workload and one snapshot at a time and is emptied when
:func:`run_campaign` returns; pool workers keep one each for their
lifetime.  Outside a campaign every job builds its own trace.

The pool runs one future per trace group, so each group's trace is built
once whatever the worker count.  A failed job retries alone in the next
round.  Per-job ``timeout`` (seconds) applies to pool execution only: a
group whose results do not arrive within ``timeout`` times its job count
fails every job it has not answered, as one failed attempt each.  The
worker process itself cannot be interrupted mid-simulation, so the pool is
shut down without waiting in that case.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.campaign.job import Campaign, Job
from repro.campaign.progress import (
    DISK_HIT,
    FAILED,
    MEMORY_HIT,
    RETRY,
    SIMULATED,
    CampaignTelemetry,
    ProgressCallback,
)
from repro.campaign.store import ResultStore
from repro.sim.prefix import PrefixSlot, can_fork, fork_order, prefix_key
from repro.sim.runner import ResultsCache, simulate, simulate_multicore
from repro.stats.result import SimResult

#: Exceptions meaning "no process pool on this platform" rather than "this
#: job failed" — they trigger the serial fallback for the whole round.
_POOL_UNAVAILABLE = (OSError, ImportError, NotImplementedError, RuntimeError)


def default_worker_count() -> int:
    """Pool size when the caller does not choose: all cores but one."""
    return max(1, (os.cpu_count() or 2) - 1)


def job_trace_path(trace_dir: str, job: Job) -> str:
    """Where a job's per-job event capture lands under ``trace_dir``."""
    return os.path.join(trace_dir, f"{job.key}.trace.jsonl")


class TraceSlot:
    """One-slot memo of the trace(s) the most recent job ran on.

    :func:`run_campaign` owns one per campaign, and each pool worker one
    for its lifetime.  The previous trace is released *before* the next one
    is built, so at most one workload is alive; a factory exception
    propagates (a failed attempt of that job) and leaves the slot empty.
    Traces are never written after construction, so handing one to several
    runs cannot change any result.

    :attr:`prefix` holds the current trace's pre-store snapshot, if any;
    the executor sets its ``followers`` before each run, and a new trace
    releases it.
    """

    def __init__(self) -> None:
        self._identity: tuple | None = None
        self._traces = None
        self.prefix = PrefixSlot()

    def traces(self, job: Job):
        """``job``'s trace (a list of them for multicore jobs)."""
        identity = job.trace_identity
        if identity != self._identity:
            self.clear()
            self._traces = _build_traces(job)
            self._identity = identity
        return self._traces

    def clear(self) -> None:
        self._identity = self._traces = None
        self.prefix.clear()


def _build_traces(job: Job):
    return job.build_traces() if job.threads else job.build_trace()


#: A pool worker's slot, created by the pool initializer in each worker.
_worker_slot: TraceSlot | None = None


def _init_worker() -> None:
    global _worker_slot
    _worker_slot = TraceSlot()


def fork_plan(group: list[Job]) -> list[tuple[Job, int]]:
    """One trace group's run order, with each job's prefix followers.

    Jobs that can share a prefix run back to back
    (:func:`~repro.sim.prefix.fork_order`); each is paired with the number
    of later jobs that will fork from its prefix.  Warmed-up,
    reference-engine and multicore jobs never fork and get 0; traced runs
    ignore the prefix slot altogether.
    """
    keys = [
        prefix_key(job.config)
        if not job.threads and can_fork(job.config, job.warmup)
        else None
        for job in group
    ]
    return [(group[index], followers) for index, followers in fork_order(keys)]


def run_job(
    job: Job, trace_dir: str | None = None, *, slot: TraceSlot | None = None
):
    """Simulate one job in-process (no cache tiers).

    Single-core jobs return a :class:`SimResult`; multicore jobs
    (``job.threads`` > 0) return a
    :class:`~repro.multicore.system.MulticoreResult` with the live
    ``pipelines`` stripped — those are process-local simulator handles,
    useless (and unpicklable) once the run crosses the pool boundary.

    With ``trace_dir`` set, the run is traced and its full event stream is
    written to :func:`job_trace_path` as JSONL — the campaign layer's
    per-job capture.

    With ``slot`` the trace comes from that :class:`TraceSlot`, and an
    untraced run shares its prefix through ``slot.prefix`` (how
    :func:`run_campaign` shares work between consecutive jobs); without,
    the job builds its own trace and runs alone.
    """
    trace = slot.traces(job) if slot is not None else _build_traces(job)
    if job.threads:
        return _run_multicore_job(job, trace, trace_dir)
    if trace_dir is None:
        prefix = slot.prefix if slot is not None else None
        return simulate(trace, job.config, warmup=job.warmup, prefix=prefix)
    from repro.trace import JsonlSink, Tracer

    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer([JsonlSink(job_trace_path(trace_dir, job))])
    try:
        return simulate(trace, job.config, warmup=job.warmup, tracer=tracer)
    finally:
        tracer.close()


def _run_multicore_job(job: Job, traces: list, trace_dir: str | None = None):
    """One multicore job: N-thread traces through one coherent system."""
    if trace_dir is None:
        result = simulate_multicore(traces, job.config)
        return dataclasses.replace(result, pipelines=[])
    from repro.trace import JsonlSink, Tracer

    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer([JsonlSink(job_trace_path(trace_dir, job))])
    try:
        result = simulate_multicore(traces, job.config, tracer=tracer)
        return dataclasses.replace(result, pipelines=[])
    finally:
        tracer.close()


def _run_planned(
    slot: TraceSlot, job: Job, followers: int, trace_dir: str | None
):
    """One job of a :func:`fork_plan` through ``slot``; ``(result, wall)``."""
    slot.prefix.followers = followers
    started = time.perf_counter()
    result = run_job(job, trace_dir, slot=slot)
    return result, time.perf_counter() - started


def _simulate_group(plan: list[tuple[Job, int]], trace_dir: str | None = None):
    """Pool worker: run one trace group's jobs (module-level: picklable).

    Returns ``(answers, prefix_runs, fork_seconds)``: one ``(result, error,
    wall)`` per job, with ``error`` the exception text of a failed job, and
    this group's share of the worker slot's prefix counters.
    """
    slot = _worker_slot
    prefix_runs = slot.prefix.prefix_runs
    forks = slot.prefix.forks
    answers = []
    for job, followers in plan:
        try:
            result, wall = _run_planned(slot, job, followers, trace_dir)
        except Exception as exc:  # noqa: BLE001 — jobs may raise anything
            answers.append((None, str(exc), 0.0))
        else:
            answers.append((result, None, wall))
    return (
        answers,
        slot.prefix.prefix_runs - prefix_runs,
        slot.prefix.fork_seconds[forks:],
    )


def execute_job(
    job: Job,
    cache: ResultsCache | None = None,
    store: ResultStore | None = None,
) -> SimResult:
    """One job through the cache tiers — the single-cell engine entry.

    ``benchmarks/conftest.py`` routes ``spec_run`` through this so ad-hoc
    figure cells share tiers and counters with full campaigns.
    """
    if cache is None:
        cache = ResultsCache(store=store)
    result = cache.lookup(job.key)
    if result is None:
        result = run_job(job)
        cache.insert(job.key, result)
    return result


@dataclass(frozen=True)
class JobOutcome:
    """How one job of a campaign ended up."""

    job: Job
    status: str  # SIMULATED / MEMORY_HIT / DISK_HIT / FAILED
    attempts: int = 1
    wall_time: float = 0.0
    error: str | None = None
    trace_path: str | None = None  # per-job event capture, when requested


@dataclass
class CampaignReport:
    """Everything a campaign run produced."""

    results: dict[str, SimResult] = field(default_factory=dict)
    outcomes: list[JobOutcome] = field(default_factory=list)
    telemetry: CampaignTelemetry = field(default_factory=CampaignTelemetry)

    @property
    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.status == FAILED]

    @property
    def ok(self) -> bool:
        return not self.failures

    def get(self, job: Job) -> SimResult | None:
        return self.results.get(job.key)


def run_campaign(
    campaign: Campaign | Iterable[Job],
    *,
    cache: ResultsCache | None = None,
    store: ResultStore | None = None,
    max_workers: int | None = None,
    timeout: float | None = None,
    retries: int = 1,
    progress: ProgressCallback | None = None,
    clock: Callable[[], float] = time.monotonic,
    trace_dir: str | None = None,
) -> CampaignReport:
    """Run every job of ``campaign``, reusing cached results.

    ``cache`` is the two-tier :class:`ResultsCache` to consult and fill;
    when omitted a fresh one is built around ``store`` (``store`` is
    ignored if ``cache`` is given — attach stores to the cache instead).
    ``retries`` is the number of *extra* attempts granted to a failing job
    before it is recorded as FAILED.  ``progress`` receives one
    :class:`ProgressEvent` per occurrence.  ``trace_dir`` arms per-job
    event capture: every *simulated* job (cache hits have nothing to
    capture) writes its full cycle-level event stream to
    ``<trace_dir>/<job.key>.trace.jsonl`` and the path is recorded on the
    job's outcome and counted in the telemetry.
    """
    jobs = list(campaign)
    if cache is None:
        cache = ResultsCache(store=store)
    workers = default_worker_count() if max_workers is None else max(1, max_workers)
    telemetry = CampaignTelemetry(_clock=clock)
    telemetry.start(len(jobs))
    report = CampaignReport(telemetry=telemetry)
    emit = progress if progress is not None else (lambda event: None)

    def record(job: Job, status: str, trace_path: str | None = None, **kwargs) -> None:
        if status != RETRY:
            report.outcomes.append(
                JobOutcome(
                    job=job,
                    status=status,
                    attempts=kwargs.get("attempt", 1),
                    wall_time=kwargs.get("wall_time", 0.0),
                    error=kwargs.get("error"),
                    trace_path=trace_path,
                )
            )
        emit(telemetry.record(status, job.key, job.describe(), **kwargs))

    def succeed(job: Job, result: SimResult, wall: float, attempt: int) -> None:
        cache.insert(job.key, result)
        report.results[job.key] = result
        trace_path = None
        if trace_dir is not None:
            trace_path = job_trace_path(trace_dir, job)
            telemetry.traces_captured += 1
        record(job, SIMULATED, trace_path=trace_path, wall_time=wall, attempt=attempt)

    # --- tier lookups -----------------------------------------------------
    pending: list[Job] = []
    for job in jobs:
        if job.key in report.results:  # duplicate cell in the job list
            record(job, MEMORY_HIT)
            continue
        memory_before, disk_before = cache.memory_hits, cache.disk_hits
        hit = cache.lookup(job.key)
        if hit is not None:
            report.results[job.key] = hit
            status = MEMORY_HIT if cache.memory_hits > memory_before else DISK_HIT
            record(job, status)
        else:
            pending.append(job)

    # Misses run grouped by trace identity, in first-appearance order, so
    # the trace memo builds each workload once; within a group, cells that
    # share a prefix run back to back.
    groups = _by_trace(pending)
    slot = TraceSlot()

    def count_prefixes(prefix_runs: int, fork_seconds: list[float]) -> None:
        telemetry.prefix_runs += prefix_runs
        telemetry.fork_seconds += fork_seconds

    # --- serial path ------------------------------------------------------
    def run_serial(serial_groups: Iterable[list[Job]]) -> None:
        prefix = slot.prefix
        prefix_runs, forks = prefix.prefix_runs, prefix.forks
        for group in serial_groups:
            for job, followers in fork_plan(group):
                for attempt in range(1, retries + 2):
                    try:
                        result, wall = _run_planned(slot, job, followers, trace_dir)
                    except Exception as exc:  # noqa: BLE001 — jobs may raise anything
                        if attempt <= retries:
                            record(job, RETRY, attempt=attempt, error=str(exc))
                        else:
                            record(job, FAILED, attempt=attempt, error=str(exc))
                    else:
                        succeed(job, result, wall, attempt)
                        break
        count_prefixes(
            prefix.prefix_runs - prefix_runs, prefix.fork_seconds[forks:]
        )

    # --- parallel path ----------------------------------------------------
    def run_parallel(parallel_groups: list[list[Job]]) -> None:
        remaining: dict[str, Job] = {
            job.key: job for group in parallel_groups for job in group
        }
        attempts: dict[str, int] = {job.key: 0 for job in remaining.values()}
        while remaining:
            round_groups = _by_trace(remaining.values())
            timed_out = False
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(workers, len(round_groups)),
                    initializer=_init_worker,
                )
            except _POOL_UNAVAILABLE:
                run_serial(round_groups)
                return
            try:
                futures = {}
                for group in round_groups:
                    plan = fork_plan(group)
                    futures[pool.submit(_simulate_group, plan, trace_dir)] = plan
                for future, plan in futures.items():
                    for job, _ in plan:
                        attempts[job.key] += 1
                    try:
                        answers, prefix_runs, fork_seconds = future.result(
                            timeout=None if timeout is None else timeout * len(plan)
                        )
                    except FuturesTimeoutError:
                        timed_out = True
                        future.cancel()
                        answers = [
                            (None, f"timed out after {timeout}s", 0.0)
                        ] * len(plan)
                    except Exception as exc:  # worker crash
                        answers = [(None, str(exc), 0.0)] * len(plan)
                    else:
                        count_prefixes(prefix_runs, fork_seconds)
                    for (job, _), (result, error, wall) in zip(plan, answers):
                        if error is None:
                            remaining.pop(job.key, None)
                            succeed(job, result, wall, attempts[job.key])
                        else:
                            _fail_or_retry(record, remaining, job,
                                           attempts[job.key], retries, error)
            except _POOL_UNAVAILABLE:
                pool.shutdown(wait=False, cancel_futures=True)
                run_serial(_by_trace(remaining.values()))
                return
            finally:
                # A timed-out worker cannot be joined promptly; abandon it.
                pool.shutdown(wait=not timed_out, cancel_futures=True)

    try:
        if workers <= 1 or len(groups) <= 1:
            run_serial(groups)
        else:
            run_parallel(groups)
    finally:
        slot.clear()  # no trace or snapshot outlives the campaign
    return report


def _by_trace(jobs: Iterable[Job]) -> list[list[Job]]:
    """``jobs`` grouped by trace identity, in first-appearance order."""
    groups: dict[tuple, list[Job]] = {}
    for job in jobs:
        groups.setdefault(job.trace_identity, []).append(job)
    return list(groups.values())


def _fail_or_retry(record, remaining: dict[str, Job], job: Job, attempt: int,
                   retries: int, error: str) -> None:
    if attempt <= retries:
        record(job, RETRY, attempt=attempt, error=error)
    else:
        remaining.pop(job.key, None)
        record(job, FAILED, attempt=attempt, error=error)

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
once, not N times.  The memo holds at most one workload at a time and is
emptied when :func:`run_campaign` returns; pool workers keep one each for
their lifetime.  Outside a campaign every job builds its own trace.

Per-job ``timeout`` (seconds) applies to pool execution only: a job whose
result does not arrive in time counts as a failed attempt.  The worker
process itself cannot be interrupted mid-simulation, so the pool is shut
down without waiting in that case.
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
    """

    def __init__(self) -> None:
        self._identity: tuple | None = None
        self._traces = None

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


def _build_traces(job: Job):
    return job.build_traces() if job.threads else job.build_trace()


#: A pool worker's slot, created by the pool initializer in each worker.
_worker_slot: TraceSlot | None = None


def _init_worker() -> None:
    global _worker_slot
    _worker_slot = TraceSlot()


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

    With ``slot`` the trace comes from that :class:`TraceSlot` (how
    :func:`run_campaign` shares one trace between consecutive jobs);
    without, the job builds its own.
    """
    trace = slot.traces(job) if slot is not None else _build_traces(job)
    if job.threads:
        return _run_multicore_job(job, trace, trace_dir)
    if trace_dir is None:
        return simulate(trace, job.config, warmup=job.warmup)
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


def _simulate_job(job: Job, trace_dir: str | None = None):
    """Pool worker: run one job and time it (module-level: picklable)."""
    started = time.perf_counter()
    result = run_job(job, trace_dir, slot=_worker_slot)
    return result, time.perf_counter() - started


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
    # the trace memo builds each workload once.
    groups: dict[tuple, list[Job]] = {}
    for job in pending:
        groups.setdefault(job.trace_identity, []).append(job)
    pending = [job for group in groups.values() for job in group]
    slot = TraceSlot()

    # --- serial path ------------------------------------------------------
    def run_serial(serial_jobs: Iterable[Job]) -> None:
        for job in serial_jobs:
            for attempt in range(1, retries + 2):
                started = time.perf_counter()
                try:
                    result = run_job(job, trace_dir, slot=slot)
                except Exception as exc:  # noqa: BLE001 — jobs may raise anything
                    if attempt <= retries:
                        record(job, RETRY, attempt=attempt, error=str(exc))
                    else:
                        record(job, FAILED, attempt=attempt, error=str(exc))
                else:
                    succeed(job, result, time.perf_counter() - started, attempt)
                    break

    # --- parallel path ----------------------------------------------------
    def run_parallel(parallel_jobs: list[Job]) -> None:
        remaining: dict[str, Job] = {job.key: job for job in parallel_jobs}
        attempts: dict[str, int] = {job.key: 0 for job in parallel_jobs}
        while remaining:
            round_jobs = list(remaining.values())
            timed_out = False
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(workers, len(round_jobs)),
                    initializer=_init_worker,
                )
            except _POOL_UNAVAILABLE:
                run_serial(round_jobs)
                return
            try:
                futures = {
                    pool.submit(_simulate_job, job, trace_dir): job
                    for job in round_jobs
                }
                for future, job in futures.items():
                    attempts[job.key] += 1
                    attempt = attempts[job.key]
                    try:
                        result, wall = future.result(timeout=timeout)
                    except FuturesTimeoutError:
                        timed_out = True
                        future.cancel()
                        _fail_or_retry(record, remaining, job, attempt, retries,
                                       f"timed out after {timeout}s")
                    except Exception as exc:  # worker crash or job exception
                        _fail_or_retry(record, remaining, job, attempt, retries,
                                       str(exc))
                    else:
                        remaining.pop(job.key, None)
                        succeed(job, result, wall, attempt)
            except _POOL_UNAVAILABLE:
                pool.shutdown(wait=False, cancel_futures=True)
                run_serial(list(remaining.values()))
                return
            finally:
                # A timed-out worker cannot be joined promptly; abandon it.
                pool.shutdown(wait=not timed_out, cancel_futures=True)

    try:
        if workers <= 1 or len(pending) <= 1:
            run_serial(pending)
        else:
            run_parallel(pending)
    finally:
        slot.clear()  # no trace outlives the campaign
    return report


def _fail_or_retry(record, remaining: dict[str, Job], job: Job, attempt: int,
                   retries: int, error: str) -> None:
    if attempt <= retries:
        record(job, RETRY, attempt=attempt, error=error)
    else:
        remaining.pop(job.key, None)
        record(job, FAILED, attempt=attempt, error=error)

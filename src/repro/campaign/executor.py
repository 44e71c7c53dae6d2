"""Campaign execution: cache tiers first, then a process pool.

Every job is looked up in the two cache tiers (in-process memory, then the
persistent on-disk store); only the misses are simulated.  Misses run on a
``ProcessPoolExecutor`` — the simulator is pure Python and deterministic
per seed, so cells are embarrassingly parallel and a parallel run returns
``SimResult``\\ s identical to a serial run of the same matrix.  The
engine degrades gracefully to in-process serial execution when
``max_workers`` is 1 or the platform cannot spawn a pool.

Misses run grouped by trace identity (workload kind, name, length, seed,
threads) in first-appearance order, and :func:`_run_group` runs one group:
it builds the group's trace(s) once and runs its jobs through one
:class:`~repro.sim.prefix.PrefixShare`, so a sweep of N configs over one
workload builds the workload once, not N times, and cells with the same
:func:`~repro.sim.prefix.prefix_key` run back to back and fork from one
simulated pre-store prefix.  The first cell's ``wall_time`` therefore
carries the trace generation and the prefix.  Nothing outlives its group;
outside a campaign every job builds its own trace.

The serial path runs the groups in-process; the pool runs one future per
group, so each group's trace is built once whatever the worker count.
Both go through one round loop with one retry rule: failed jobs (``retries``
extra attempts each) are regrouped and run in the next round.  Per-job
``timeout`` (seconds) applies to pool execution only: a group whose results
do not arrive within ``timeout`` times its job count fails every job it has
not answered, as one failed attempt each.  The worker process itself cannot
be interrupted mid-simulation, so the pool is shut down without waiting in
that case.
"""

from __future__ import annotations

import contextlib
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
from repro.sim.prefix import PrefixShare, can_fork, fork_order
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


def run_job(
    job: Job, trace_dir: str | None = None, *, traces=None,
    prefix: PrefixShare | None = None,
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

    ``traces`` is the job's already built trace (a list of them for
    multicore jobs), and ``prefix`` the share an untraced single-core run
    forks through (how :func:`_run_group` shares work between the jobs of
    a group); without them the job builds its own trace and runs alone.
    """
    if traces is None:
        traces = _build_traces(job)
    tracer = None
    if trace_dir is not None:
        from repro.trace import JsonlSink, Tracer

        os.makedirs(trace_dir, exist_ok=True)
        tracer = Tracer([JsonlSink(job_trace_path(trace_dir, job))])
    try:
        if job.threads:
            result = simulate_multicore(traces, job.config, tracer=tracer)
            return dataclasses.replace(result, pipelines=[])
        return simulate(
            traces, job.config, warmup=job.warmup, tracer=tracer, prefix=prefix
        )
    finally:
        if tracer is not None:
            tracer.close()


def _build_traces(job: Job):
    return job.build_traces() if job.threads else job.build_trace()


def _run_group(
    jobs: list[Job], trace_dir: str | None, telemetry: CampaignTelemetry
):
    """Run one trace group; yield ``(job, result, error, wall)`` per job.

    The group's trace(s) are built once, by the first job; a failed build
    is that job's failed attempt, and the next job builds again.  Jobs run
    in :func:`~repro.sim.prefix.fork_order` through one
    :class:`~repro.sim.prefix.PrefixShare` of the untraced, unwarmed,
    single-core fast-engine jobs; a job that fails before the share counts
    it off is released from it, so the key's last surviving cell still
    takes the snapshot.  ``error`` is the exception text of a failed job,
    and ``wall`` is timed from before the build, so the first job's
    includes the trace generation and the prefix.  When the group
    ends, the share's counters are added to ``telemetry``.
    """
    share = PrefixShare(
        job.config for job in jobs
        if trace_dir is None and not job.threads and can_fork(job.config, job.warmup)
    )
    traces = None
    for index in fork_order([share.key(job.config) for job in jobs]):
        job = jobs[index]
        remaining = share.remaining(job.config)
        started = time.perf_counter()
        try:
            if traces is None:
                traces = _build_traces(job)
            result = run_job(job, trace_dir, traces=traces, prefix=share)
        except Exception as exc:  # noqa: BLE001 — jobs may raise anything
            if share.remaining(job.config) == remaining:
                share.release(job.config)  # it failed before the share
            yield job, None, str(exc), 0.0
        else:
            yield job, result, None, time.perf_counter() - started
    telemetry.prefix_runs += share.prefix_runs
    telemetry.fork_seconds += share.fork_seconds


def _simulate_group(jobs: list[Job], trace_dir: str | None = None):
    """Pool worker: :func:`_run_group` in one call (module-level: picklable).

    Returns ``(answers, prefix_runs, fork_seconds)``: the group's answers
    and its share's counters.
    """
    counters = CampaignTelemetry()
    answers = list(_run_group(jobs, trace_dir, counters))
    return answers, counters.prefix_runs, counters.fork_seconds


def _pool_round(groups: list[list[Job]], workers: int, trace_dir: str | None,
                timeout: float | None, telemetry: CampaignTelemetry):
    """One round on a process pool, one future per group; yields
    :func:`_run_group`'s answers, in-process if no pool can be started."""
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(groups)))
        futures = [pool.submit(_simulate_group, group, trace_dir) for group in groups]
    except _POOL_UNAVAILABLE:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        for group in groups:
            yield from _run_group(group, trace_dir, telemetry)
        return
    timed_out = False
    try:
        for group, future in zip(groups, futures):
            try:
                answers, prefix_runs, fork_seconds = future.result(
                    timeout=None if timeout is None else timeout * len(group)
                )
            except FuturesTimeoutError:
                timed_out = True
                future.cancel()
                error = f"timed out after {timeout}s"
                answers = [(job, None, error, 0.0) for job in group]
            except Exception as exc:  # worker crash
                answers = [(job, None, str(exc), 0.0) for job in group]
            else:
                telemetry.prefix_runs += prefix_runs
                telemetry.fork_seconds += fork_seconds
            yield from answers
    finally:
        # A timed-out worker cannot be joined promptly; abandon it.
        pool.shutdown(wait=not timed_out, cancel_futures=True)


def execute_job(
    job: Job,
    cache: ResultsCache | None = None,
    store: ResultStore | None = None,
) -> SimResult:
    """One job through the cache tiers — the single-cell engine entry.

    ``benchmarks/conftest.py`` routes ``spec_run`` and ``parsec_run``
    through this so ad-hoc figure cells share tiers and counters with full
    campaigns.
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
    # A repeat of a pending cell is held aside and answered with it.
    pending: dict[str, Job] = {}
    repeats: list[Job] = []
    for job in jobs:
        if job.key in report.results:  # duplicate cell in the job list
            record(job, MEMORY_HIT)
        elif job.key in pending:
            repeats.append(job)
        else:
            memory_before = cache.memory_hits
            hit = cache.lookup(job.key)
            if hit is None:
                pending[job.key] = job
                continue
            report.results[job.key] = hit
            record(job, MEMORY_HIT if cache.memory_hits > memory_before else DISK_HIT)

    # --- rounds of trace groups ---------------------------------------------
    # Misses run grouped by trace identity, in first-appearance order; a
    # failed job is regrouped with the others that failed and runs in the
    # next round.
    attempts = dict.fromkeys(pending, 0)
    errors: dict[str, str] = {}
    groups = _by_trace(pending.values())
    use_pool = workers > 1 and len(groups) > 1
    while groups:
        if use_pool:
            answers = _pool_round(groups, workers, trace_dir, timeout, telemetry)
        else:
            answers = (
                answer for group in groups
                for answer in _run_group(group, trace_dir, telemetry)
            )
        retry: list[Job] = []
        with contextlib.closing(answers):  # shuts a round's pool down on error
            for job, result, error, wall in answers:
                attempt = attempts[job.key] = attempts[job.key] + 1
                if error is None:
                    succeed(job, result, wall, attempt)
                elif attempt <= retries:
                    record(job, RETRY, attempt=attempt, error=error)
                    retry.append(job)
                else:
                    errors[job.key] = error
                    record(job, FAILED, attempt=attempt, error=error)
        groups = _by_trace(retry)

    for job in repeats:
        if job.key in report.results:
            record(job, MEMORY_HIT)
        else:
            record(job, FAILED, error=errors[job.key])
    return report


def _by_trace(jobs: Iterable[Job]) -> list[list[Job]]:
    """``jobs`` grouped by trace identity, in first-appearance order."""
    groups: dict[tuple, list[Job]] = {}
    for job in jobs:
        groups.setdefault(job.trace_identity, []).append(job)
    return list(groups.values())

"""Campaign observability: per-job events, throughput and ETA.

The executor reports through a plain callback interface — any callable
accepting a :class:`ProgressEvent` — so benchmarks can stay silent, the CLI
can render a live line and tests can capture the stream.
:class:`CampaignTelemetry` turns the raw events into the numbers worth
watching: jobs completed/total, cache hits per tier, jobs/sec and a
monotonic-clock ETA.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, TextIO

#: How a job reached its result (the ``status`` field of an event).
SIMULATED = "simulated"
MEMORY_HIT = "memory-hit"
DISK_HIT = "disk-hit"
RETRY = "retry"  # an attempt failed; the job will run again
FAILED = "failed"  # all attempts exhausted


@dataclass(frozen=True)
class ProgressEvent:
    """One executor occurrence, enriched with campaign-level counters."""

    status: str
    job_key: str
    label: str  # human-readable job description
    completed: int  # jobs finished so far (any status but RETRY)
    total: int
    attempt: int = 1
    wall_time: float = 0.0  # this job's simulation seconds (0 for hits)
    elapsed: float = 0.0  # campaign seconds so far
    jobs_per_sec: float = 0.0
    eta_seconds: float | None = None
    error: str | None = None


ProgressCallback = Callable[[ProgressEvent], None]


@dataclass
class CampaignTelemetry:
    """Aggregates events into the campaign-level counters.

    The executor owns one instance per run and consults it to stamp each
    outgoing event; it is also returned in the final report so callers can
    read totals without having listened to the stream.
    """

    total: int = 0
    completed: int = 0
    simulated: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    retries: int = 0
    failures: int = 0
    traces_captured: int = 0  # jobs whose event stream was written to disk
    sim_wall_time: float = 0.0  # summed per-job simulation seconds
    prefix_runs: int = 0  # shared pre-store prefixes simulated
    fork_seconds: list[float] = field(default_factory=list)  # per snapshot copy
    _clock: Callable[[], float] = field(default=time.monotonic, repr=False)
    _started_at: float | None = field(default=None, repr=False)

    def start(self, total: int) -> None:
        self.total = total
        self._started_at = self._clock()

    @property
    def forks(self) -> int:
        """Snapshot copies made to fork cells from a shared prefix."""
        return len(self.fork_seconds)

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    @property
    def jobs_per_sec(self) -> float:
        elapsed = self.elapsed
        return self.completed / elapsed if elapsed > 0 else 0.0

    @property
    def eta_seconds(self) -> float | None:
        """Projected seconds to finish, once there is a rate to project."""
        rate = self.jobs_per_sec
        if not rate or self.completed >= self.total:
            return None
        return (self.total - self.completed) / rate

    def record(
        self, status: str, job_key: str, label: str, *,
        attempt: int = 1, wall_time: float = 0.0, error: str | None = None,
    ) -> ProgressEvent:
        """Fold one occurrence in and build the event describing it."""
        if status == SIMULATED:
            self.completed += 1
            self.simulated += 1
            self.sim_wall_time += wall_time
        elif status == MEMORY_HIT:
            self.completed += 1
            self.memory_hits += 1
        elif status == DISK_HIT:
            self.completed += 1
            self.disk_hits += 1
        elif status == RETRY:
            self.retries += 1
        elif status == FAILED:
            self.completed += 1
            self.failures += 1
        return ProgressEvent(
            status=status,
            job_key=job_key,
            label=label,
            completed=self.completed,
            total=self.total,
            attempt=attempt,
            wall_time=wall_time,
            elapsed=self.elapsed,
            jobs_per_sec=self.jobs_per_sec,
            eta_seconds=self.eta_seconds,
            error=error,
        )

    def summary(self) -> dict[str, float | int]:
        """Counter snapshot for reports and session summaries."""
        return {
            "total": self.total,
            "completed": self.completed,
            "simulated": self.simulated,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "retries": self.retries,
            "failures": self.failures,
            "traces_captured": self.traces_captured,
            "elapsed_s": round(self.elapsed, 3),
            "jobs_per_sec": round(self.jobs_per_sec, 3),
            "sim_wall_time_s": round(self.sim_wall_time, 3),
            "prefix_runs": self.prefix_runs,
            "forks": self.forks,
            "fork_s": round(sum(self.fork_seconds), 3),
        }


class ConsoleProgress:
    """Prints one line per event — the CLI's live view."""

    def __init__(self, stream: TextIO | None = None) -> None:
        self.stream = stream or sys.stdout

    def __call__(self, event: ProgressEvent) -> None:
        eta = (
            f" eta {event.eta_seconds:5.1f}s"
            if event.eta_seconds is not None
            else ""
        )
        detail = f" ({event.error})" if event.error else ""
        if event.status == SIMULATED:
            detail = f" {event.wall_time:.2f}s"
        self.stream.write(
            f"[{event.completed}/{event.total}] {event.status:<10} "
            f"{event.label}{detail} | {event.jobs_per_sec:.2f} jobs/s{eta}\n"
        )
        self.stream.flush()

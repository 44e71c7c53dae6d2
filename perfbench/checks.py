"""Correctness checks run on every workload after its timed phase.

Each check derives what a correct answer must satisfy from the model's own
invariants or from an independent run, never from a stored copy of earlier
output.  Every check takes the answered cells (and, where needed, an
oracle) and returns a list of human-readable violations; an empty list
means the check passed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from repro.campaign import Job, encode_multicore_result, encode_result, run_job
from repro.campaign.progress import DISK_HIT


@dataclass(frozen=True)
class Cell:
    """One answered matrix cell: the job that asked and the result it got."""

    job: Job
    result: object  # SimResult, or MulticoreResult for ``job.threads`` > 0

    @property
    def app(self) -> str:
        return self.job.workload

    @property
    def policy(self) -> str:
        return self.job.config.store_prefetch.value

    @property
    def sb(self) -> int:
        return self.job.config.core.store_buffer_per_thread

    @property
    def per_core(self) -> list:
        """Per-thread pipeline statistics (one entry for single-core)."""
        if self.job.threads:
            return self.result.per_core
        return [self.result.pipeline]

    @property
    def uops(self) -> int:
        """Committed µops, summed over threads."""
        return sum(stats.committed_uops for stats in self.per_core)

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def sb_stall_cycles(self) -> int:
        return sum(stats.sb_stall_cycles for stats in self.per_core)


def encoded(result) -> dict:
    """The full result tree as plain data, for field-for-field comparison."""
    if hasattr(result, "per_core"):
        return encode_multicore_result(result)
    return encode_result(result)


def check_commits(cells: list[Cell]) -> list[str]:
    """Every thread commits exactly its trace length; IPC ≤ core width."""
    errors = []
    for cell in cells:
        threads = cell.job.threads or 1
        if len(cell.per_core) != threads:
            errors.append(f"{cell.job.describe()}: {len(cell.per_core)} cores "
                          f"reported, {threads} threads ran")
        width = cell.job.config.core.width
        for core, stats in enumerate(cell.per_core):
            if stats.committed_uops != cell.job.length:
                errors.append(
                    f"{cell.job.describe()} core {core}: committed "
                    f"{stats.committed_uops} µops of a {cell.job.length}-µop trace"
                )
            if stats.ipc > width:
                errors.append(f"{cell.job.describe()} core {core}: IPC "
                              f"{stats.ipc:.3f} above width {width}")
    return errors


def check_reference(cells: list[Cell], rerun=None) -> list[str]:
    """Re-run ``cells`` under the reference engine; results must match.

    ``rerun`` maps a job to its result (default: :func:`run_job`, the
    campaign's own single-cell entry); the tests pass a tampered one.
    """
    rerun = rerun or run_job
    errors = []
    for cell in cells:
        job = replace(cell.job, config=cell.job.config.with_engine("reference"))
        if encoded(rerun(job)) != encoded(cell.result):
            errors.append(f"{cell.job.describe()}: fast result differs from "
                          f"the reference engine's")
    return errors


def check_storeless(cells: list[Cell], storeless: tuple[str, ...]) -> list[str]:
    """Apps without stores run the same cycles under every policy."""
    errors = []
    cycles: dict[str, set[int]] = defaultdict(set)
    for cell in cells:
        if cell.app not in storeless:
            continue
        stores = sum(stats.committed_stores for stats in cell.per_core)
        if stores:
            errors.append(f"{cell.job.describe()}: {stores} stores committed "
                          f"by a storeless trace")
        cycles[cell.app].add(cell.cycles)
    for app, seen in sorted(cycles.items()):
        if len(seen) > 1:
            errors.append(f"{app}: storeless trace ran {sorted(seen)} cycles "
                          f"under different policies")
    return errors


def _by_config(cells: list[Cell]) -> dict[tuple[str, str, int], Cell]:
    return {(cell.app, cell.policy, cell.sb): cell for cell in cells}


def check_spb_stalls(cells: list[Cell]) -> list[str]:
    """SPB never has more SB-stall cycles than at-commit at the same size."""
    table = _by_config(cells)
    errors = []
    for (app, policy, sb), spb in sorted(table.items()):
        if policy != "spb" or (app, "at-commit", sb) not in table:
            continue
        commit = table[app, "at-commit", sb]
        if spb.sb_stall_cycles > commit.sb_stall_cycles:
            errors.append(f"{app}/SB{sb}: SPB stalls {spb.sb_stall_cycles} "
                          f"cycles, at-commit {commit.sb_stall_cycles}")
    return errors


def check_sb_monotone(cells: list[Cell]) -> list[str]:
    """Under one policy, a larger SB never stalls more than a smaller one."""
    sizes: dict[tuple[str, str], list[Cell]] = defaultdict(list)
    for cell in cells:
        sizes[cell.app, cell.policy].append(cell)
    errors = []
    for (app, policy), group in sorted(sizes.items()):
        group.sort(key=lambda cell: cell.sb)
        for small, large in zip(group, group[1:]):
            if large.sb_stall_cycles > small.sb_stall_cycles:
                errors.append(
                    f"{app}/{policy}: SB{large.sb} stalls "
                    f"{large.sb_stall_cycles} cycles, SB{small.sb} "
                    f"{small.sb_stall_cycles}"
                )
    return errors


def check_requery(job: Job, key: str, report, oracle: dict) -> list[str]:
    """A re-requested cell is a disk hit equal to the set-up's simulation.

    ``key`` is ``job.key``, passed in so the check adds no key hashing to
    the traced run's ``campaign.key`` layer.
    """
    errors = []
    statuses = [outcome.status for outcome in report.outcomes]
    if statuses != [DISK_HIT]:
        errors.append(f"{job.describe()}: answered as {statuses}, not a disk hit")
    answer = report.results.get(key)
    if answer is None or answer != oracle[key]:
        errors.append(f"{job.describe()}: answer differs from the result "
                      f"simulated during set-up")
    return errors

"""Parameter sweeps shared by the figure benchmarks.

Both sweep helpers take a registered workload kind (``"spec2017"``), expand
their matrix into one :class:`repro.campaign.Job` per cell and execute them
through :func:`repro.campaign.run_campaign`, so they share the campaign
engine's cache tiers and can run cells in parallel via ``max_workers``.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Sequence

from repro.config.system import StorePrefetchPolicy, SystemConfig
from repro.sim.runner import ResultsCache
from repro.stats.result import SimResult

#: The paper's three evaluated SB sizes (plus 1024 for the Ideal reference).
PAPER_SB_SIZES = (14, 28, 56)
IDEAL_SB_SIZE = 1024


def geomean(values: Iterable[float], *, dropped_out: list | None = None) -> float:
    """Geometric mean (the paper's ALL / SB-BOUND aggregation).

    Non-positive values have no logarithm and are **dropped** before
    aggregation, which skews the mean towards the surviving values; a
    ``RuntimeWarning`` reporting the drop count is emitted whenever that
    happens so silently-degenerate figures are visible.  Pass a list as
    ``dropped_out`` to also collect the dropped values themselves.  An
    empty (or fully dropped) input yields 0.0.
    """
    values = list(values)
    kept = [v for v in values if v > 0]
    dropped = [v for v in values if v <= 0]
    if dropped_out is not None:
        dropped_out.extend(dropped)
    if dropped:
        warnings.warn(
            f"geomean dropped {len(dropped)} non-positive value(s) "
            f"of {len(values)}; the aggregate covers only the rest",
            RuntimeWarning,
            stacklevel=2,
        )
    if not kept:
        return 0.0
    return math.exp(sum(math.log(v) for v in kept) / len(kept))


def _matrix_sweep(
    cache: ResultsCache,
    kind: str,
    apps: Sequence[str],
    configs,  # {inner key: SystemConfig}
    length: int,
    max_workers: int,
) -> dict[str, dict]:
    """Run ``apps`` × ``configs`` of workload ``kind`` through the campaign
    engine."""
    from repro.campaign import Job, run_campaign

    jobs = {
        app: {
            inner: Job(workload=app, length=length, config=config,
                       workload_kind=kind)
            for inner, config in configs.items()
        }
        for app in apps
    }
    report = run_campaign(
        [job for cells in jobs.values() for job in cells.values()],
        cache=cache, max_workers=max_workers,
    )
    return {
        app: {inner: report.results[job.key] for inner, job in cells.items()}
        for app, cells in jobs.items()
    }


def policy_sweep(
    cache: ResultsCache,
    kind: str,
    apps: Sequence[str],
    sb_entries: int,
    policies: Sequence[StorePrefetchPolicy | str],
    length: int,
    base_config: SystemConfig | None = None,
    max_workers: int = 1,
) -> dict[str, dict[str, SimResult]]:
    """Run every app under every policy at one SB size.

    ``kind`` names a registered workload kind (``"spec2017"``).  Returns
    ``{app: {policy: SimResult}}``.  ``max_workers`` > 1 runs the cells
    through the campaign engine's process pool.
    """
    base = base_config or SystemConfig()
    configs = {
        StorePrefetchPolicy(policy).value: base.with_sb(sb_entries).with_policy(policy)
        for policy in policies
    }
    return _matrix_sweep(cache, kind, apps, configs, length, max_workers)


def sb_size_sweep(
    cache: ResultsCache,
    kind: str,
    apps: Sequence[str],
    sb_sizes: Sequence[int],
    policy: StorePrefetchPolicy | str,
    length: int,
    base_config: SystemConfig | None = None,
    max_workers: int = 1,
) -> dict[str, dict[int, SimResult]]:
    """Run every app of ``kind`` under one policy across several SB sizes.

    Returns ``{app: {sb_size: SimResult}}``.
    """
    base = base_config or SystemConfig()
    configs = {
        size: base.with_sb(size).with_policy(policy) for size in sb_sizes
    }
    return _matrix_sweep(cache, kind, apps, configs, length, max_workers)


def normalized_performance(
    results: dict[str, SimResult], ideal: dict[str, SimResult]
) -> dict[str, float]:
    """Per-app performance relative to the Ideal run (Figure 5's y-axis).

    Performance is 1 / execution time, so the value is
    ``ideal_cycles / cycles``; 1.0 means matching the ideal SB.
    """
    return {
        app: ideal[app].cycles / result.cycles if result.cycles else 0.0
        for app, result in results.items()
    }

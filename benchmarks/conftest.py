"""Shared infrastructure for the figure-regeneration benchmarks.

Every benchmark file regenerates one table or figure from the paper.  All
files share one results cache with two tiers: an in-process dictionary plus
the persistent on-disk store under ``benchmarks/.cache/`` (campaign result
store, keyed by config hash), so the at-commit/SB56 baseline and the Ideal
reference are each simulated once *ever* and a figure-suite re-run only
simulates cells whose configuration changed.  Set ``REPRO_NO_DISK_CACHE=1``
to disable the disk tier; single-core runs route through the campaign
engine (:func:`repro.campaign.execute_job`).

Results are printed (run with ``pytest benchmarks/ --benchmark-only -s`` to
see them live) and written as JSON under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro import ResultsCache, SystemConfig
from repro.campaign import Job, ResultStore, execute_job
from repro.config.system import CachePrefetcherKind, SpbConfig, StorePrefetchPolicy
from repro.sim.sweep import geomean
from repro.workloads import SB_BOUND_PARSEC, SB_BOUND_SPEC, parsec_names, spec2017_names

#: Trace lengths: long enough for warm pools to cycle, short enough that the
#: whole figure suite finishes in minutes.
SPEC_LENGTH = 30_000
CLASSIFY_LENGTH = 50_000  # Figure 1 classification (matches calibration)
PARSEC_LENGTH = 20_000  # long enough for low-weight burst phases to fire
PARSEC_THREADS = 8

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".cache")

_store = (
    None if os.environ.get("REPRO_NO_DISK_CACHE") else ResultStore(CACHE_DIR)
)
_spec_cache = ResultsCache(store=_store)


def spec_run(
    app: str,
    policy: str,
    sb: int,
    *,
    prefetcher: str = "stream",
    preset: str | None = None,
    spb: SpbConfig | None = None,
    length: int = SPEC_LENGTH,
):
    """One cached single-core run, routed through the campaign engine."""
    if preset is not None:
        config = SystemConfig.preset(preset, store_prefetch=policy, sb_entries=sb)
    else:
        config = SystemConfig.skylake(sb_entries=sb, store_prefetch=policy)
    config = replace(config, cache_prefetcher=CachePrefetcherKind(prefetcher))
    if spb is not None:
        config = replace(config, spb=spb)
    return execute_job(Job(workload=app, length=length, config=config),
                       cache=_spec_cache)


def ideal_run(app: str, *, prefetcher: str = "stream", preset: str | None = None,
              length: int = SPEC_LENGTH):
    """The Ideal (1024-entry, no-stall) reference for one app."""
    return spec_run(app, "ideal", 1024, prefetcher=prefetcher, preset=preset,
                    length=length)


def parsec_run(app: str, policy: str, sb: int):
    """One cached 8-core PARSEC run, routed through the campaign engine."""
    config = SystemConfig.skylake(
        sb_entries=sb, store_prefetch=policy, num_cores=PARSEC_THREADS
    )
    job = Job(workload=app, length=PARSEC_LENGTH, config=config,
              workload_kind="parsec", threads=PARSEC_THREADS)
    return execute_job(job, cache=_spec_cache)


def perf_vs_ideal(app: str, policy: str, sb: int, **kwargs) -> float:
    """Figure 5/6 metric: performance normalised to the Ideal SB.

    The Ideal reference never uses the SPB detector, so SPB parameter
    overrides apply only to the measured run.
    """
    ideal_kwargs = {k: v for k, v in kwargs.items() if k != "spb"}
    ideal = ideal_run(app, **ideal_kwargs)
    run = spec_run(app, policy, sb, **kwargs)
    return ideal.cycles / run.cycles


def spec_groups() -> dict[str, list[str]]:
    return {"ALL": spec2017_names(), "SB-BOUND": list(SB_BOUND_SPEC)}


def parsec_groups() -> dict[str, list[str]]:
    return {"ALL": parsec_names(), "SB-BOUND": list(SB_BOUND_PARSEC)}


def emit(name: str, payload: dict) -> dict:
    """Print a figure's data and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\n=== {name} ===")
    for key, value in payload.items():
        print(f"{key}: {value}")
    return payload


def run_once(benchmark, func):
    """Benchmark a figure builder exactly once (simulations memoise)."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


@pytest.fixture
def figure(benchmark):
    """Fixture: run the figure builder once under the benchmark timer."""

    def runner(func):
        return run_once(benchmark, func)

    return runner


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Show how much work the cache tiers saved this session."""
    stats = _spec_cache.stats()
    line = (
        f"results cache: {stats['misses']} simulated, "
        f"{stats['memory_hits']} memory hit(s), "
        f"{stats['disk_hits']} disk hit(s)"
    )
    if _store is not None:
        line += (
            f"; store at {CACHE_DIR}: {len(_store)} entr(ies), "
            f"{_store.saves} save(s), {_store.corrupt_loads} corrupt skip(s)"
        )
    else:
        line += "; disk tier disabled (REPRO_NO_DISK_CACHE)"
    terminalreporter.write_line(line)


__all__ = [
    "CACHE_DIR",
    "SPEC_LENGTH",
    "CLASSIFY_LENGTH",
    "PARSEC_LENGTH",
    "PARSEC_THREADS",
    "spec_run",
    "ideal_run",
    "parsec_run",
    "perf_vs_ideal",
    "spec_groups",
    "parsec_groups",
    "geomean",
    "emit",
    "run_once",
]

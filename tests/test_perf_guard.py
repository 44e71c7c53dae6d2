"""Performance-regression guard for the two execution engines.

Two assertions, both on the canonical compute-bound workload (exchange2,
where the pipeline loop — not the memory hierarchy — dominates, so engine
speedups are cleanest):

* the fast engine is at least 1.5× the reference engine, measured
  in-process on the same machine in the same run (machine-independent);
* the reference engine has not regressed more than 20% against the
  throughput recorded in the committed ``BENCH_fastpath.json`` snapshot.
  Both sides are *normalised* throughputs — µops per run of a fixed
  pure-Python calibration loop (:mod:`repro.sim.hostspeed`) timed right
  before and after every reference run, in the same process — so a slower
  or busier host slows both sides alike.  The loop and the simulator do not
  speed up alike across interpreter versions (3.10 and 3.12 read about
  40 % above 3.11), so the snapshot keeps one baseline per ``major.minor``
  and the guard picks the running interpreter's; an unrecorded interpreter
  falls back to the 3.11 baseline.

A second pair of assertions covers the multicore event-heap scheduler:
fast ≥ 1.5× reference in-process on a 4-core dedup cell (``run()`` timed
only — construction is engine-independent), and the committed
``BENCH_multicore.json`` snapshot must record a geomean ≥ 1.8×.

``REPRO_SKIP_PERF=1`` skips the whole module (laptops, loaded CI boxes).
Regenerate both snapshots with ``python benchmarks/bench_simulator_throughput.py``;
its ``baseline`` argument re-records only the running interpreter's baseline.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro import SystemConfig, simulate, spec2017
from repro.sim.hostspeed import calibration_seconds, normalised_throughput

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1: perf guard disabled on this machine",
)

LENGTH = 10_000
ROUNDS = 7
_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = _ROOT / "BENCH_fastpath.json"
MULTICORE_BENCH_PATH = _ROOT / "BENCH_multicore.json"
MULTICORE_THREADS = 4
MULTICORE_LENGTH = 8_000
MULTICORE_ROUNDS = 3


@pytest.fixture(scope="module")
def timings():
    """Best-of-N seconds per engine, interleaved so load drift cancels.

    Reference runs are bracketed by calibration loops; ``calibrated`` holds
    their ``(loop before, run, loop after)`` seconds per round for the
    normalised snapshot check.
    """
    trace = spec2017("exchange2", length=LENGTH)
    configs = {
        engine: SystemConfig.skylake(
            sb_entries=14, store_prefetch="at-commit", engine=engine
        )
        for engine in ("reference", "fast")
    }
    for config in configs.values():
        simulate(trace, config)  # warm imports/JIT-free but touches caches
    best = {engine: float("inf") for engine in configs}
    calibrated = []
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for engine, config in configs.items():
                gc.collect()
                if engine == "reference":
                    before = calibration_seconds()
                start = time.perf_counter()
                result = simulate(trace, config)
                seconds = time.perf_counter() - start
                best[engine] = min(best[engine], seconds)
                if engine == "reference":
                    calibrated.append((before, seconds, calibration_seconds()))
                assert result.pipeline.committed_uops == LENGTH
    finally:
        gc.enable()
    best["calibrated"] = calibrated
    return best


def test_fast_engine_at_least_1_5x_reference(timings):
    speedup = timings["reference"] / timings["fast"]
    assert speedup >= 1.5, (
        f"fast engine only {speedup:.2f}x reference "
        f"(ref {timings['reference']:.4f}s, fast {timings['fast']:.4f}s); "
        "the cycle-skipping path has regressed"
    )


def guard_baseline(snapshot: dict, version: str) -> tuple[str, int]:
    """The interpreter whose baseline applies to ``version``, and its value."""
    baselines = snapshot["reference_uops_per_calibration"]
    key = version if version in baselines else "3.11"
    return key, baselines[key]


def test_guard_baseline_per_interpreter():
    snapshot = json.loads(BENCH_PATH.read_text())
    assert set(snapshot["reference_uops_per_calibration"]) >= {"3.10", "3.11", "3.12"}
    assert guard_baseline(snapshot, "3.12")[0] == "3.12"
    assert guard_baseline(snapshot, "3.13") == guard_baseline(snapshot, "3.11")


def test_reference_engine_not_regressed_vs_snapshot(timings):
    snapshot = json.loads(BENCH_PATH.read_text())
    version = ".".join(platform.python_version_tuple()[:2])
    recorded, baseline = guard_baseline(snapshot, version)
    measured = normalised_throughput(LENGTH, timings["calibrated"])
    floor = 0.8 * baseline
    assert measured >= floor, (
        f"reference engine at {measured:.0f} µops per calibration loop under "
        f"Python {platform.python_version()}, more than 20% below the "
        f"committed Python {recorded} baseline of {baseline} "
        f"(floor {floor:.0f}; {LENGTH / timings['reference']:.0f} µops/s "
        "absolute); either fix the regression or re-record the baseline via "
        "'python benchmarks/bench_simulator_throughput.py baseline' "
        "(REPRO_SKIP_PERF=1 skips on slow machines)"
    )


def test_snapshot_records_the_target_speedup():
    """The committed snapshot itself must document the ≥2× headline."""
    snapshot = json.loads(BENCH_PATH.read_text())
    assert snapshot["geomean_speedup"] >= 2.0
    assert snapshot["max_speedup"] >= 2.0
    assert set(snapshot["cells"]) == {
        "compute/at-commit", "memory/at-commit", "burst/at-commit", "burst/spb",
    }


@pytest.fixture(scope="module")
def multicore_timings():
    """Best-of-N run() seconds per engine on a 4-core dedup cell.

    Construction (trace annotation, per-µop array precompute) is shared,
    engine-independent work, so each timed region covers ``system.run()``
    only — a fresh ``MulticoreSystem`` is built untimed before each run.
    """
    from repro import parsec
    from repro.multicore.system import MulticoreSystem

    traces = parsec("dedup", threads=MULTICORE_THREADS, length=MULTICORE_LENGTH)
    configs = {
        engine: SystemConfig.skylake(
            sb_entries=14, store_prefetch="spb",
            num_cores=MULTICORE_THREADS, engine=engine,
        )
        for engine in ("reference", "fast")
    }
    for config in configs.values():
        MulticoreSystem(config, list(traces)).run()  # warm-up
    best = {engine: float("inf") for engine in configs}
    gc.disable()
    try:
        for _ in range(MULTICORE_ROUNDS):
            for engine, config in configs.items():
                system = MulticoreSystem(config, list(traces))
                gc.collect()
                start = time.perf_counter()
                result = system.run()
                best[engine] = min(best[engine], time.perf_counter() - start)
                assert result.committed_uops == (
                    MULTICORE_THREADS * MULTICORE_LENGTH
                )
    finally:
        gc.enable()
    return best


def test_multicore_fast_engine_at_least_1_5x_reference(multicore_timings):
    speedup = multicore_timings["reference"] / multicore_timings["fast"]
    assert speedup >= 1.5, (
        f"multicore fast engine only {speedup:.2f}x reference "
        f"(ref {multicore_timings['reference']:.4f}s, "
        f"fast {multicore_timings['fast']:.4f}s); "
        "the event-heap scheduler has regressed"
    )


def test_multicore_snapshot_records_target_speedup():
    """The committed multicore snapshot must document the ≥1.8× headline."""
    snapshot = json.loads(MULTICORE_BENCH_PATH.read_text())
    assert snapshot["geomean_speedup"] >= 1.8
    assert snapshot["threads"] == 8
    assert snapshot["cells"]

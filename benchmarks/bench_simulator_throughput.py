"""Simulator micro-benchmarks: µops simulated per second, per engine.

Unlike the figure benchmarks (one-shot, result-oriented), these measure the
simulator itself over several rounds, so regressions in the hot paths (the
pipeline cycle loop, the hierarchy, the SPB burst path) show up in CI-style
comparisons of the pytest-benchmark tables.  Every workload runs under both
execution engines, so one table shows the reference/fast speedup directly;
``BENCH_fastpath.json`` at the repo root records a committed snapshot of
those ratios, and ``BENCH_multicore.json`` records the 8-core event-heap
scheduler speedups.  Regenerate them with::

    python benchmarks/bench_simulator_throughput.py [fastpath|multicore|baseline]

``baseline`` only re-measures the running interpreter's perf-guard
baseline (the compute cell) and keeps the rest of the snapshot.  The
module never imports
pytest (parametrization goes through the ``pytest_generate_tests`` hook),
so the snapshot paths also run under interpreters without it.
"""

import functools
import platform

from repro import SystemConfig, simulate, spec2017

LENGTH = 10_000
ENGINES = ["reference", "fast"]


@functools.lru_cache(maxsize=None)
def _trace(app):
    return spec2017(app, length=LENGTH)


def _simulate(trace, policy, engine="reference"):
    config = SystemConfig.skylake(
        sb_entries=14, store_prefetch=policy, engine=engine
    )
    return simulate(trace, config)


def pytest_generate_tests(metafunc):
    metafunc.parametrize("engine", ENGINES)
    if "app" in metafunc.fixturenames:
        metafunc.parametrize("app", ["exchange2", "mcf", "bwaves"])


def test_throughput_at_commit(benchmark, app, engine):
    result = benchmark.pedantic(
        _simulate, args=(_trace(app), "at-commit", engine), rounds=3, iterations=1
    )
    assert result.pipeline.committed_uops == LENGTH


def test_throughput_spb(benchmark, engine):
    result = benchmark.pedantic(
        _simulate, args=(_trace("bwaves"), "spb", engine), rounds=3, iterations=1
    )
    assert result.pipeline.committed_uops == LENGTH


#: (label, app, policy) cells of ``BENCH_fastpath.json``; the first is the
#: perf guard's.
_CELLS = (
    ("compute/at-commit", "exchange2", "at-commit"),
    ("memory/at-commit", "mcf", "at-commit"),
    ("burst/at-commit", "bwaves", "at-commit"),
    ("burst/spb", "bwaves", "spb"),
)


def _measure_speedups(rounds: int = 10, cells=_CELLS) -> dict:
    """Interleaved min-of-N timing of both engines on every cell.

    Alternating reference/fast runs inside each round cancels slow drifts in
    machine load; ``min`` over rounds discards transient interference.  GC is
    disabled during timed regions so collection pauses don't land on one
    engine's ledger.

    Every cell also records ``reference_uops_per_calibration``: the
    reference engine's throughput normalised by a fixed pure-Python loop
    timed right before and after each of its runs
    (:func:`repro.sim.hostspeed.normalised_throughput`).  ``python``
    records the interpreter the cells were measured under.  The calibration
    loop and the simulator speed up differently from one interpreter
    version to the next (3.10 and 3.12 read about 40 % above 3.11), so the
    compute cell's figure is also kept per ``major.minor`` as the perf
    guard's baseline.
    """
    import gc
    import time

    from repro.sim.hostspeed import calibration_seconds, normalised_throughput

    report = {
        "length": LENGTH,
        "sb_entries": 14,
        "rounds": rounds,
        "python": platform.python_version(),
        "cells": {},
    }
    gc.disable()
    try:
        for label, app, policy in cells:
            trace = _trace(app)
            best = {"reference": float("inf"), "fast": float("inf")}
            calibrated = []
            for _ in range(rounds):
                for engine in ENGINES:
                    gc.collect()
                    if engine == "reference":
                        before = calibration_seconds()
                    start = time.perf_counter()
                    _simulate(trace, policy, engine)
                    seconds = time.perf_counter() - start
                    best[engine] = min(best[engine], seconds)
                    if engine == "reference":
                        calibrated.append((before, seconds, calibration_seconds()))
            report["cells"][label] = {
                "reference_s": round(best["reference"], 4),
                "fast_s": round(best["fast"], 4),
                "speedup": round(best["reference"] / best["fast"], 3),
                "fast_uops_per_s": round(LENGTH / best["fast"]),
                "reference_uops_per_s": round(LENGTH / best["reference"]),
                "reference_uops_per_calibration": round(
                    normalised_throughput(LENGTH, calibrated)
                ),
            }
    finally:
        gc.enable()
    speedups = [cell["speedup"] for cell in report["cells"].values()]
    product = 1.0
    for value in speedups:
        product *= value
    report["geomean_speedup"] = round(product ** (1 / len(speedups)), 3)
    report["max_speedup"] = max(speedups)
    return report


MULTICORE_THREADS = 8
MULTICORE_LENGTH = 40_000


def _measure_multicore_speedups(rounds: int = 5) -> dict:
    """Interleaved min-of-N timing of both multicore engines per cell.

    Same discipline as :func:`_measure_speedups` (alternating engines per
    round, min over rounds, GC disabled in timed regions) with one twist:
    only ``MulticoreSystem.run()`` is timed.  Construction — trace
    annotation and per-µop array precompute — is engine-independent shared
    work, so a fresh system is built *untimed* before every timed run.
    """
    import gc
    import time

    from repro import parsec
    from repro.multicore.system import MulticoreSystem

    cells = [
        ("dedup/spb", "dedup", "spb"),
        ("dedup/at-commit", "dedup", "at-commit"),
        ("canneal/at-commit", "canneal", "at-commit"),
        ("canneal/spb", "canneal", "spb"),
        ("x264/spb", "x264", "spb"),
        ("swaptions/at-commit", "swaptions", "at-commit"),
    ]
    trace_cache = {}
    report = {
        "threads": MULTICORE_THREADS,
        "length": MULTICORE_LENGTH,
        "sb_entries": 14,
        "rounds": rounds,
        "cells": {},
    }
    gc.disable()
    try:
        for label, app, policy in cells:
            traces = trace_cache.setdefault(
                app, parsec(app, threads=MULTICORE_THREADS, length=MULTICORE_LENGTH)
            )
            best = {"reference": float("inf"), "fast": float("inf")}
            for _ in range(rounds):
                for engine in ENGINES:
                    config = SystemConfig.skylake(
                        sb_entries=14, store_prefetch=policy,
                        num_cores=MULTICORE_THREADS, engine=engine,
                    )
                    system = MulticoreSystem(config, list(traces))
                    gc.collect()
                    start = time.perf_counter()
                    system.run()
                    best[engine] = min(best[engine], time.perf_counter() - start)
            report["cells"][label] = {
                "reference_s": round(best["reference"], 4),
                "fast_s": round(best["fast"], 4),
                "speedup": round(best["reference"] / best["fast"], 3),
            }
    finally:
        gc.enable()
    speedups = [cell["speedup"] for cell in report["cells"].values()]
    product = 1.0
    for value in speedups:
        product *= value
    report["geomean_speedup"] = round(product ** (1 / len(speedups)), 3)
    report["max_speedup"] = max(speedups)
    return report


if __name__ == "__main__":
    import json
    import pathlib
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    only = sys.argv[1] if len(sys.argv) > 1 else None
    if only in (None, "fastpath", "baseline"):
        path = root / "BENCH_fastpath.json"
        old = json.loads(path.read_text()) if path.exists() else {}
        baselines = dict(old.get("reference_uops_per_calibration", {}))
        result = _measure_speedups(cells=_CELLS[:1] if only == "baseline" else _CELLS)
        compute = result["cells"]["compute/at-commit"]
        version = ".".join(platform.python_version_tuple()[:2])
        baselines[version] = compute["reference_uops_per_calibration"]
        if only == "baseline":
            result = old
        result["reference_uops_per_calibration"] = dict(sorted(baselines.items()))
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        print(f"wrote {path}")
    if only in (None, "multicore"):
        result = _measure_multicore_speedups()
        path = root / "BENCH_multicore.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        print(f"wrote {path}")

"""Repository benchmark: campaign sweeps, warm requeries and the SPB outcome.

Run from the repository root::

    python3 perfbench/run.py --workload spec-store --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs one traced and one untraced round of the same
work and prints the per-layer metrics plus the tracing overhead.  Either
way the correctness checks run after the timed phase, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import suite  # noqa: E402
from layers import LayerTracer, simulated_layers  # noqa: E402

SETUP_REPEATS = 3  # fresh processes timed per run; setup_s is their median
TAIL_SAMPLES = 10  # a percentile is reported only with this many beyond it


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ipc(cell: checks.Cell) -> float:
    return cell.result.system_ipc if cell.job.threads else cell.result.ipc


def spb_speedup(cells: list[checks.Cell]) -> float:
    """Geomean over (app, SB size) of at-commit cycles ÷ SPB cycles."""
    table = {(c.app, c.policy, c.sb): c for c in cells}
    return geomean(
        table[app, "at-commit", sb].cycles / cell.cycles
        for (app, policy, sb), cell in table.items()
        if policy == "spb" and (app, "at-commit", sb) in table
    )


def vs_ideal(cells: list[checks.Cell]) -> dict[tuple[str, int], float]:
    """Geomean over apps of Ideal cycles ÷ cycles, per (policy, SB size).

    The paper's Fig. 5 y-axis (performance normalised to the Ideal SB);
    empty for workloads without Ideal cells.
    """
    ideal = {c.app: c.cycles for c in cells if c.policy == "ideal"}
    groups: dict[tuple[str, int], list[float]] = {}
    for c in cells:
        if c.policy != "ideal" and c.app in ideal:
            groups.setdefault((c.policy, c.sb), []).append(ideal[c.app] / c.cycles)
    return {config: geomean(values) for config, values in sorted(groups.items())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(latencies: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9/p99/p90 with ≥ :data:`TAIL_SAMPLES` beyond it."""
    for pct in (99.9, 99, 90):
        if len(latencies) * (100 - pct) / 100 >= TAIL_SAMPLES:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return None


# ----------------------------------------------------------------------
# Set-up timing
# ----------------------------------------------------------------------
def probe_setup(args) -> None:
    """Child side of :func:`time_setups`: set up, say so, exit."""
    suite.set_up(suite.WORKLOADS[args.workload], args.seed, args.work_dir,
                 args.length)
    print("ready", flush=True)


def time_setups(args, work_dir: str) -> float:
    """Median seconds from process start to "ready to submit"."""
    samples = []
    for repeat in range(SETUP_REPEATS):
        probe_dir = os.path.join(work_dir, f"setup-{repeat}")
        command = [
            sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--work-dir", probe_dir,
        ]
        if args.length:
            command += ["--length", str(args.length)]
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            samples.append(time.perf_counter() - started)
            child.stdout.read()
        if child.returncode != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed ({child.returncode}): {line!r}")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def run_checks(workload: suite.Workload, cells: list[checks.Cell],
               seed: int) -> list[str]:
    """Every correctness check that applies to ``workload``."""
    sample = random.Random(seed).sample(
        cells, min(workload.reference_samples, len(cells))
    )
    return (
        checks.check_commits(cells)
        + checks.check_reference(sample)
        + checks.check_storeless(cells, workload.storeless)
        + checks.check_spb_stalls(cells)
        + checks.check_sb_monotone(cells)
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def timed_run(args, work_dir: str) -> dict:
    """Untraced rounds for ``--seconds``; the end-to-end metrics.

    Rates are taken over the whole timed phase rather than as a median of
    per-round rates: host speed drifts by whole seconds at a time on a
    shared machine, which a mean over every second of the run averages
    best (see the README's steadiness section).
    """
    workload = suite.WORKLOADS[args.workload]
    setup_s = time_setups(args, work_dir)
    setup = suite.set_up(workload, args.seed, work_dir, args.length)
    rounds = []
    elapsed = 0.0
    while not rounds or elapsed < args.seconds:
        store_dir = os.path.join(work_dir, f"round-{len(rounds)}")
        rounds.append(suite.run_round(setup, store_dir))
        shutil.rmtree(store_dir, ignore_errors=True)
        elapsed += rounds[-1].seconds
    cells = rounds[-1].cells  # every round answers the same cells
    latencies = [s for r in rounds for s in r.latencies]
    errors = [e for r in rounds for e in r.errors]
    errors += run_checks(workload, cells, args.seed)
    tail = tail_percentile(latencies)
    notes = [f"{len(rounds)} round(s), {len(latencies)} answers timed"]
    if tail is not None:
        notes.append(f"request_p{tail[0]:g}_ms {tail[1] * 1e3:.4f} ms")
    notes += [
        f"performance vs Ideal, {policy}/SB{sb}: {value:.4f}"
        for (policy, sb), value in vs_ideal(cells).items()
    ]
    return {
        "errors": errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "notes": notes,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "cells_per_s": (
                sum(r.attempted - r.failed for r in rounds) / elapsed, "cells/s"
            ),
            "uops_per_s": (sum(r.uops for r in rounds) / elapsed, "uops/s"),
            "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ipc_geomean": (geomean(ipc(c) for c in cells), "uops/cycle"),
            "spb_speedup": (spb_speedup(cells), "ratio"),
        },
    }


def traced_run(args, work_dir: str) -> dict:
    """One traced round, then the same round untraced; per-layer metrics."""
    workload = suite.WORKLOADS[args.workload]
    tracer = LayerTracer()
    tracer.install()  # before any system is built
    try:
        setup = suite.set_up(workload, args.seed, work_dir, args.length)
        tracer.reset()
        traced = suite.run_round(setup, os.path.join(work_dir, "traced"))
    finally:
        tracer.uninstall()
    cells = traced.cells
    host = tracer.host_metrics(traced.uops, sum(c.cycles for c in cells))
    live = tracer.live_multicore if workload.threads else [c.result for c in cells]
    simulated = simulated_layers(live)
    untraced = suite.run_round(setup, os.path.join(work_dir, "untraced"))
    errors = traced.errors + untraced.errors
    plain = {c.job: checks.encoded(c.result) for c in untraced.cells}
    for cell in cells:
        if plain.get(cell.job) != checks.encoded(cell.result):
            errors.append(f"{cell.job.describe()}: traced result differs "
                          f"from the untraced one")
    errors += run_checks(workload, cells, args.seed)
    overhead = traced.seconds / untraced.seconds
    return {
        "errors": errors,
        "attempted": traced.attempted + untraced.attempted,
        "failed": traced.failed + untraced.failed,
        "notes": [f"traced {traced.seconds:.3f} s, untraced "
                  f"{untraced.seconds:.3f} s"],
        "metrics": {**host, **simulated, "trace.overhead": (overhead, "ratio")},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=int, default=0,
                        help="µops per trace (thread), overriding the "
                             "workload's; for smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        probe_setup(args)
        return 0
    scratch = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(work_dir)
    try:
        outcome = (traced_run if args.trace else timed_run)(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is still using it
            pass
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    for note in outcome["notes"]:
        print(note)
    print(f"attempted {outcome['attempted']}, failed {outcome['failed']}")
    for error in outcome["errors"]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

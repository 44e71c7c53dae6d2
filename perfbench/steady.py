"""Run two sets of benchmark runs and report whether they agree.

For every workload in ``BENCHMARK.json`` this runs ``perfbench/run.py``
``--runs`` times per set, each run with its own seed (set one uses seeds
1, 2, ...; set two 1001, 1002, ..., so the second set also re-checks the
figures on seeds the first never saw).  Per end-to-end metric it reports
each set's median and spread (the distance between the first and third
quartiles as a share of the median) and checks, against the metric's
``bound``:

* every spread except ``setup_s``'s stays within the bound,
* the second set's median is not worse than the first's by more than it,
* the share of failed operations is identical in both sets.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 [--workloads spec-store,spec-load]

It exits 0 when every workload agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SET_SEED_STRIDE = 1000


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = " ".join(
        f"{name}={entry['value']:.5g}" for name, entry in result["metrics"].items()
    )
    print(f"{workload} seed {seed}: {values}", flush=True)
    for line in done.stdout.splitlines():
        if line.startswith("CHECK FAILED"):
            print(f"  {line}", flush=True)
    return result


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(spec: dict, workload: str, sets: list[list[dict]]) -> bool:
    """Print one workload's table; True when the two sets agree."""
    agree = True
    shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
    if len(shares) != 1 or not all(run["correct"] for runs in sets for run in runs):
        print(f"{workload}: failed shares {sorted(shares)}, or a check failed")
        agree = False
    print(f"\n{workload}")
    print(f"  {'metric':16s} {'median 1':>12s} {'median 2':>12s} "
          f"{'spread 1':>9s} {'spread 2':>9s} {'worse':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        worse = worse_by(medians[0], medians[1], metric["better"])
        ok = worse <= bound and (
            name == "setup_s" or all(s <= bound for s in spreads)
        )
        steady = name == "setup_s" or all(s < bound / 3 for s in spreads)
        agree &= ok
        flag = "ok" if ok and steady else ("unsteady" if ok else "FAIL")
        print(f"  {name:16s} {medians[0]:12.5g} {medians[1]:12.5g} "
              f"{spreads[0]:9.4f} {spreads[1]:9.4f} {worse:7.4f} {bound:6.3f}"
              f"  {flag}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", help="comma-separated subset")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    agree = True
    for workload in names:
        sets = [
            [run_once(spec, workload, base + seed)
             for seed in range(1, args.runs + 1)]
            for base in (0, SET_SEED_STRIDE)
        ]
        agree &= compare(spec, workload, sets)
    print("\nsets agree" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

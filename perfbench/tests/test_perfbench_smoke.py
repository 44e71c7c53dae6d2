"""Tiny-length runs of all four workloads, untraced and traced."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from layers import LayerTracer
from repro.memory.hierarchy import MemoryHierarchy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("spec-store", "spec-load", "parsec-8core", "warm-requery")
TINY = 2_000  # µops per trace (thread)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--length", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run(workload, trace):
    result = run(workload, trace)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed
    }


def test_uninstall_restores_every_wrapped_attribute():
    load = MemoryHierarchy.__dict__["load"]
    tracer = LayerTracer()
    tracer.install()
    try:
        assert MemoryHierarchy.__dict__["load"] is not load
    finally:
        tracer.uninstall()
    assert MemoryHierarchy.__dict__["load"] is load


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and perfbench/, the run fails, printing no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spec-store",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

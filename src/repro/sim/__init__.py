"""Simulation entry points, execution engines and experiment sweeps."""

from repro.sim.diffcheck import (
    DiffCase,
    DiffReport,
    MulticoreDiffCase,
    default_matrix,
    diff_trace,
    multicore_matrix,
    run_case,
    run_matrix,
    run_multicore_case,
    run_multicore_matrix,
    shrink_case,
    shrink_multicore_case,
)
from repro.sim.fastpath import ENGINE_CLASSES, FastPipeline, pipeline_class
from repro.sim.runner import (
    ResultsCache,
    simulate,
    simulate_multicore,
    split_warmup,
)
from repro.sim.sweep import (
    geomean,
    normalized_performance,
    policy_sweep,
    sb_size_sweep,
)

__all__ = [
    "simulate",
    "simulate_multicore",
    "ResultsCache",
    "split_warmup",
    "ENGINE_CLASSES",
    "FastPipeline",
    "pipeline_class",
    "DiffCase",
    "DiffReport",
    "MulticoreDiffCase",
    "default_matrix",
    "diff_trace",
    "multicore_matrix",
    "run_case",
    "run_matrix",
    "run_multicore_case",
    "run_multicore_matrix",
    "shrink_case",
    "shrink_multicore_case",
    "policy_sweep",
    "sb_size_sweep",
    "normalized_performance",
    "geomean",
]

"""Multicore differential matrix: event-heap scheduler vs lockstep oracle.

Every cell of :func:`repro.sim.diffcheck.multicore_matrix` runs one PARSEC
workload through both engines and must be bit-identical across the complete
per-core statistics tree, the shared-uncore tree and every core's event
stream.  The matrix includes SPB cells on dedup, whose shared heap drives
cross-core invalidations through the directory — a dedicated test pins that
coverage so the matrix cannot silently stop exercising coherence.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.system import SystemConfig
from repro.multicore.system import MulticoreSystem
from repro.sim.diffcheck import (
    MulticoreDiffCase,
    multicore_matrix,
    run_multicore_case,
    shrink_multicore_case,
)
from repro.workloads.parsec import parsec

import pytest

MATRIX = multicore_matrix()


@pytest.mark.parametrize("case", MATRIX, ids=[c.describe() for c in MATRIX])
def test_engines_bit_identical(case):
    report = run_multicore_case(case)
    assert report.identical, report.message()


def test_matrix_includes_spb_cross_core_invalidation():
    """The SPB/dedup cell really does send cross-core invalidations.

    Without this pin, a workload-generator change could quietly make the
    matrix coherence-free and the differential proof would no longer cover
    the scheduler's MESI interleaving.
    """
    case = next(
        c for c in MATRIX
        if c.workload == "dedup" and c.config.store_prefetch.value == "spb"
    )
    traces = parsec(
        case.workload, threads=case.threads, length=case.length, seed=case.seed
    )
    system = MulticoreSystem(
        case.config.with_engine("fast"), traces, seed=case.sim_seed
    )
    system.run()
    assert system.uncore.directory.stats.invalidations_sent > 0


def test_matrix_covers_every_policy_and_multiple_core_counts():
    policies = {c.config.store_prefetch.value for c in MATRIX}
    assert policies == {"none", "at-execute", "at-commit", "spb", "ideal"}
    assert {c.threads for c in MATRIX} >= {1, 2, 4}


def test_shrink_returns_identical_case_unchanged():
    case = MulticoreDiffCase(
        workload="swaptions",
        config=SystemConfig.skylake(sb_entries=14, num_cores=2),
        threads=2,
        length=256,
    )
    assert shrink_multicore_case(case) == case


def test_shrink_reduces_threads_and_length():
    """Greedy shrink halves along both axes while divergence persists.

    There is no real engine divergence to shrink, so this drives the search
    with a stub that reports every trial as diverging, which forces the
    shrink to the floor on both axes and checks ``config.num_cores`` tracks
    the thread count.
    """
    import repro.sim.diffcheck as diffcheck

    case = MulticoreDiffCase(
        workload="swaptions",
        config=SystemConfig.skylake(sb_entries=14, num_cores=4),
        threads=4,
        length=512,
    )

    class FakeReport:
        identical = False

    def fake_run(trial):
        return FakeReport()

    real_run = diffcheck.run_multicore_case
    diffcheck.run_multicore_case = fake_run
    try:
        shrunk = diffcheck.shrink_multicore_case(case)
    finally:
        diffcheck.run_multicore_case = real_run
    assert shrunk.length == 64
    assert shrunk.threads == 1
    assert shrunk.config.num_cores == 1
    assert shrunk == replace(
        case, length=64, threads=1, config=replace(case.config, num_cores=1)
    )

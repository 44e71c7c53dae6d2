"""Tests for the multi-core system (paper §VI-F)."""

import pytest

from repro import SystemConfig, simulate_multicore, parsec
from repro.multicore.system import MulticoreSystem


class TestConstruction:
    def test_rejects_empty_traces(self):
        with pytest.raises(ValueError):
            MulticoreSystem(SystemConfig(), [])

    def test_cores_share_one_uncore(self):
        traces = parsec("swaptions", threads=4, length=1_000)
        system = MulticoreSystem(SystemConfig(num_cores=4), traces)
        uncores = {p.hierarchy.uncore for p in system.pipelines}
        assert len(uncores) == 1

    def test_private_levels_are_per_core(self):
        traces = parsec("swaptions", threads=2, length=1_000)
        system = MulticoreSystem(SystemConfig(num_cores=2), traces)
        l1s = {id(p.hierarchy.l1d) for p in system.pipelines}
        assert len(l1s) == 2


class TestExecution:
    def test_all_threads_complete(self):
        traces = parsec("dedup", threads=4, length=4_000)
        result = simulate_multicore(traces, SystemConfig(num_cores=4))
        assert len(result.per_core) == 4
        assert all(s.committed_uops == 4_000 for s in result.per_core)

    def test_system_ipc_aggregates(self):
        traces = parsec("swaptions", threads=4, length=4_000)
        result = simulate_multicore(traces, SystemConfig(num_cores=4))
        assert result.committed_uops == 16_000
        assert result.system_ipc > 1.0  # four cores in parallel

    def test_deterministic(self):
        traces = parsec("dedup", threads=2, length=3_000)
        a = simulate_multicore(traces, SystemConfig(num_cores=2))
        b = simulate_multicore(traces, SystemConfig(num_cores=2))
        assert a.cycles == b.cycles

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_single_core_multicore_matches_simulate_exactly(self, engine):
        """A 1-core multicore run times out identically to ``simulate``.

        Both fast runs go through the one cycle kernel, with the scheduler's
        shared clock or without; the two skip-accounting modes differ only
        in how they *attribute* skipped cycles to stall causes (canneal,
        SB 56: ``rob_full`` 58 multicore vs 1 551 single-core), never in
        when anything happens, so cycle counts and committed work match.
        The one-core row of the multicore differential matrix compares the
        rest field for field with the lockstep oracle.
        """
        from repro import simulate

        for app, length in (("dedup", 4_000), ("swaptions", 2_000)):
            traces = parsec(app, threads=1, length=length)
            config = SystemConfig.skylake(num_cores=1, engine=engine)
            multi = simulate_multicore(traces, config)
            single = simulate(traces[0], config)
            assert multi.cycles == single.cycles
            assert multi.per_core[0].committed_uops == (
                single.pipeline.committed_uops
            )

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_runaway_guard(self, engine):
        traces = parsec("dedup", threads=2, length=2_000)
        config = SystemConfig.skylake(num_cores=2, engine=engine)
        for limit in (10, -1):
            system = MulticoreSystem(config, traces)
            with pytest.raises(RuntimeError, match=f"exceeded {limit} cycles") as excinfo:
                system.run(max_cycles=limit)
            if engine == "fast":
                assert excinfo.traceback[-1].name == "cycle_kernel"

    def test_engine_override_beats_config(self):
        traces = parsec("swaptions", threads=2, length=2_000)
        config = SystemConfig.skylake(num_cores=2, engine="reference")
        ref = simulate_multicore(traces, config)
        fast = simulate_multicore(traces, config.with_engine("fast"))
        assert fast.cycles == ref.cycles
        assert fast.per_core == ref.per_core

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_one_core_finishing_far_earlier_than_peers(self, engine):
        """A core with 1/16th the work retires and unblocks the others."""
        long_trace = parsec("dedup", threads=1, length=8_000)[0]
        short_trace = parsec("swaptions", threads=1, length=500)[0]
        config = SystemConfig.skylake(num_cores=2, engine=engine)
        result = simulate_multicore([long_trace, short_trace], config)
        assert result.per_core[0].committed_uops == 8_000
        assert result.per_core[1].committed_uops == 500
        assert result.per_core[1].cycles < result.per_core[0].cycles
        assert result.cycles == result.per_core[0].cycles

    def test_uneven_trace_lengths_bit_identical_across_engines(self):
        """The early-finisher path (heap drops the core) matches lockstep."""
        long_trace = parsec("dedup", threads=1, length=8_000)[0]
        short_trace = parsec("swaptions", threads=1, length=500)[0]
        runs = {}
        for engine in ("reference", "fast"):
            config = SystemConfig.skylake(num_cores=2, engine=engine)
            runs[engine] = simulate_multicore([long_trace, short_trace], config)
        assert runs["fast"].cycles == runs["reference"].cycles
        assert runs["fast"].per_core == runs["reference"].per_core


class TestCoherenceInteraction:
    def test_shared_writes_generate_invalidations(self):
        # dedup's shared region (1 MiB) is small enough that four threads
        # collide on blocks within a few thousand accesses.
        traces = parsec("dedup", threads=4, length=8_000)
        system = MulticoreSystem(SystemConfig(num_cores=4), traces)
        system.run()
        directory = system.uncore.directory
        assert directory.stats.invalidations_sent > 0
        assert directory.stats.downgrades_sent > 0

    def test_spb_not_slower_than_at_commit_on_shared_apps(self):
        # §VI-F: no PARSEC benchmark degrades under SPB (coherence-friendly).
        traces = parsec("canneal", threads=4, length=6_000)
        base = simulate_multicore(
            traces, SystemConfig.skylake(store_prefetch="at-commit", num_cores=4)
        )
        spb = simulate_multicore(
            traces, SystemConfig.skylake(store_prefetch="spb", num_cores=4)
        )
        assert spb.cycles <= base.cycles * 1.02

    def test_sb_stall_ratio_bounded(self):
        traces = parsec("dedup", threads=2, length=4_000)
        result = simulate_multicore(traces, SystemConfig(num_cores=2))
        assert 0.0 <= result.sb_stall_ratio <= 1.0

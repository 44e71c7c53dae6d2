"""Extension — SPB versus non-speculative store coalescing (§VII-B).

The paper's related work discusses coalescing stores [24] as the other way
to stretch SB capacity, noting that coalescing to full block size "would
entail increasing the size of the SB significantly" while SPB gets near
ideal with 67 bits.  This benchmark implements TSO-safe tail coalescing and
compares: coalescing alone, SPB alone, and both combined, on the SB-bound
applications at small SB sizes.
"""

from dataclasses import replace

from conftest import emit, geomean, ideal_run
from repro import ResultsCache, SystemConfig
from repro.campaign import Job, execute_job
from repro.workloads import SB_BOUND_SPEC

LENGTH = 30_000
_cache = ResultsCache()


def _perf(app, policy, sb, coalescing):
    config = SystemConfig.skylake(sb_entries=sb, store_prefetch=policy)
    config = replace(config, core=replace(config.core, sb_coalescing=coalescing))
    run = execute_job(Job(workload=app, length=LENGTH, config=config),
                      cache=_cache)
    return ideal_run(app).cycles / run.cycles


def build_coalescing_study():
    payload = {}
    for sb in (14, 28):
        for name, (policy, coalescing) in (
            ("at-commit", ("at-commit", False)),
            ("coalescing", ("at-commit", True)),
            ("spb", ("spb", False)),
            ("spb+coalescing", ("spb", True)),
        ):
            value = geomean(
                [_perf(app, policy, sb, coalescing) for app in SB_BOUND_SPEC]
            )
            payload[f"SB{sb}/{name}"] = round(value, 4)
    return emit("ext_coalescing", payload)


def test_ext_coalescing(figure):
    payload = figure(build_coalescing_study)
    for sb in (14, 28):
        base = payload[f"SB{sb}/at-commit"]
        coalescing = payload[f"SB{sb}/coalescing"]
        spb = payload[f"SB{sb}/spb"]
        combined = payload[f"SB{sb}/spb+coalescing"]
        # Both techniques individually beat the baseline on dense bursts.
        assert coalescing > base
        assert spb > base
        # They attack different problems (capacity vs latency) and compose:
        # the combination matches or beats the best single technique.
        assert combined >= max(spb, coalescing) - 0.01

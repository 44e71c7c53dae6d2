"""Extension — SPB under real branch-predictor models.

The calibrated workloads annotate mispredictions at fixed per-site rates
(the ``trace`` predictor).  This benchmark swaps in the modelled predictors
(bimodal, gshare, TAGE — Table I lists L-TAGE) and checks that SPB's win is
robust to the front-end model: the conclusion must not depend on how
mispredictions are produced.
"""

from dataclasses import replace

from conftest import emit, geomean
from repro import ResultsCache, SystemConfig
from repro.campaign import Job, execute_job

APPS = ("bwaves", "x264", "roms")
LENGTH = 30_000
_cache = ResultsCache()


def _run(app, policy, sb, predictor):
    config = SystemConfig.skylake(sb_entries=sb, store_prefetch=policy)
    config = replace(config, core=replace(config.core,
                                          branch_predictor=predictor))
    return execute_job(Job(workload=app, length=LENGTH, config=config),
                       cache=_cache)


def build_predictor_study():
    payload = {}
    for predictor in ("trace", "bimodal", "gshare", "tage"):
        for sb in (14, 56):
            speedup = geomean(
                [
                    _run(app, "at-commit", sb, predictor).cycles
                    / _run(app, "spb", sb, predictor).cycles
                    for app in APPS
                ]
            )
            payload[f"{predictor}/SB{sb}/spb_speedup"] = round(speedup, 4)
        rates = []
        for app in APPS:
            stats = _run(app, "at-commit", 56, predictor).pipeline
            rates.append(
                stats.mispredicted_branches / max(1, stats.committed_branches)
            )
        payload[f"{predictor}/mispredict_rate"] = round(
            sum(rates) / len(rates), 4
        )
    return emit("ext_predictors", payload)


def test_ext_predictors(figure):
    payload = figure(build_predictor_study)
    for predictor in ("trace", "bimodal", "gshare", "tage"):
        # SPB's win survives every front-end model, and is larger at SB14.
        assert payload[f"{predictor}/SB14/spb_speedup"] > 1.05
        assert (
            payload[f"{predictor}/SB14/spb_speedup"]
            > payload[f"{predictor}/SB56/spb_speedup"]
        )
    # The modelled predictors order as expected on these workloads:
    # bimodal cannot learn the data-dependent branches' history patterns.
    assert (
        payload["tage/mispredict_rate"] <= payload["bimodal/mispredict_rate"]
    )

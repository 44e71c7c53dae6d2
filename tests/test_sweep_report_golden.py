"""Golden-output tests for ``repro.sim.sweep`` and ``repro.analysis.report``.

A tiny two-config sweep (one workload × {at-commit, spb} at SB 14) is pinned
as ``tests/golden/sweep_tiny.json``, and the markdown report compiled from a
fixed results directory is pinned as ``tests/golden/report_tiny.md``.  Both
regenerate with::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sweep_report_golden.py

and the regenerated files must be committed alongside any intentional
behaviour change.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.analysis.report import compile_report
from repro.sim.runner import ResultsCache
from repro.sim.sweep import (
    geomean,
    normalized_performance,
    policy_sweep,
    sb_size_sweep,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SWEEP_GOLDEN = os.path.join(GOLDEN_DIR, "sweep_tiny.json")
REPORT_GOLDEN = os.path.join(GOLDEN_DIR, "report_tiny.md")

APPS = ["bwaves"]
POLICIES = ["at-commit", "spb"]
LENGTH = 2_000

#: Inputs for the report golden: two fake figure files whose rendering
#: exercises flat series, nested sections and float formatting.
REPORT_INPUTS = {
    "fig01_sb_stall_ratio": {"sb14": 0.41235, "sb56": 0.10111},
    "fig05_normalized_performance": {
        "ALL": {"at-commit": 0.82345, "spb": 0.91234},
        "note": "tiny fixture",
    },
    "unknown_series": {"value": 3},
}


def _tiny_sweep_summary() -> dict:
    """The golden payload: stable scalars from the two-config sweep."""
    cache = ResultsCache()
    results = policy_sweep(
        cache, "spec2017", APPS, sb_entries=14, policies=POLICIES, length=LENGTH
    )
    summary = {}
    for app, by_policy in results.items():
        summary[app] = {
            policy: {
                "cycles": result.cycles,
                "committed_uops": result.pipeline.committed_uops,
                "sb_stall_cycles": result.pipeline.sb_stall_cycles,
                "demand_stores": result.traffic.demand_stores,
                "store_prefetches": result.traffic.cpu_store_prefetch_requests,
            }
            for policy, result in by_policy.items()
        }
    return summary


class TestSweepGolden:
    def test_tiny_policy_sweep_matches_golden(self):
        if os.environ.get("REPRO_REGOLDEN"):
            pytest.skip("regenerating, see test_regenerate_goldens")
        assert os.path.exists(SWEEP_GOLDEN), (
            "golden file missing — run REPRO_REGOLDEN=1 pytest "
            "tests/test_sweep_report_golden.py and commit the result"
        )
        golden = json.loads(open(SWEEP_GOLDEN, encoding="ascii").read())
        fresh = _tiny_sweep_summary()
        assert fresh == golden, (
            "sweep output diverges from tests/golden/sweep_tiny.json — if the "
            "change is intentional, regenerate with REPRO_REGOLDEN=1 and "
            "commit the new golden file"
        )

    def test_sweep_identical_under_fast_engine(self):
        """The golden also pins the fast engine: same sweep, same numbers."""
        from repro.config.system import SystemConfig

        cache = ResultsCache()
        reference = policy_sweep(
            cache, "spec2017", APPS, sb_entries=14, policies=POLICIES, length=LENGTH
        )
        fast = policy_sweep(
            ResultsCache(), "spec2017", APPS, sb_entries=14, policies=POLICIES,
            length=LENGTH, base_config=SystemConfig(engine="fast"),
        )
        for app in APPS:
            for policy in POLICIES:
                assert reference[app][policy].cycles == fast[app][policy].cycles
                assert (
                    reference[app][policy].pipeline == fast[app][policy].pipeline
                )

    def test_sb_size_sweep_shape_and_determinism(self):
        cache = ResultsCache()
        results = sb_size_sweep(
            cache, "spec2017", APPS, sb_sizes=[14, 28], policy="at-commit",
            length=LENGTH,
        )
        again = sb_size_sweep(
            cache, "spec2017", APPS, sb_sizes=[14, 28], policy="at-commit",
            length=LENGTH,
        )
        assert set(results) == set(APPS)
        assert set(results["bwaves"]) == {14, 28}
        assert {
            app: {size: r.cycles for size, r in by.items()}
            for app, by in results.items()
        } == {
            app: {size: r.cycles for size, r in by.items()}
            for app, by in again.items()
        }

    def test_normalized_performance_against_ideal(self):
        cache = ResultsCache()
        results = policy_sweep(
            cache, "spec2017", APPS, sb_entries=14,
            policies=["at-commit", "ideal"], length=LENGTH,
        )
        normalized = normalized_performance(
            {app: by["at-commit"] for app, by in results.items()},
            {app: by["ideal"] for app, by in results.items()},
        )
        value = normalized["bwaves"]
        assert 0.0 < value <= 1.0 + 1e-9

    def test_geomean_warns_on_dropped_values(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert geomean([4.0, 0.0]) == pytest.approx(4.0)
        assert any("dropped 1" in str(w.message) for w in caught)


class TestReportGolden:
    def _results_dir(self, tmp_path):
        for name, payload in REPORT_INPUTS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        return str(tmp_path)

    def test_report_matches_golden(self, tmp_path):
        if os.environ.get("REPRO_REGOLDEN"):
            pytest.skip("regenerating, see test_regenerate_goldens")
        assert os.path.exists(REPORT_GOLDEN), (
            "golden file missing — run REPRO_REGOLDEN=1 pytest "
            "tests/test_sweep_report_golden.py and commit the result"
        )
        golden = open(REPORT_GOLDEN, encoding="utf-8").read()
        fresh = compile_report(self._results_dir(tmp_path))
        assert fresh == golden, (
            "report markdown diverges from tests/golden/report_tiny.md — "
            "regenerate with REPRO_REGOLDEN=1 if intentional"
        )

    def test_report_writes_output_file(self, tmp_path):
        out = tmp_path / "report.md"
        text = compile_report(self._results_dir(tmp_path), str(out))
        assert out.read_text() == text

    def test_missing_results_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compile_report(str(tmp_path / "nowhere"))


@pytest.mark.skipif(
    not os.environ.get("REPRO_REGOLDEN"),
    reason="set REPRO_REGOLDEN=1 to regenerate the golden files",
)
def test_regenerate_goldens(tmp_path):
    with open(SWEEP_GOLDEN, "w", encoding="ascii") as handle:
        json.dump(_tiny_sweep_summary(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, payload in REPORT_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    with open(REPORT_GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(compile_report(str(tmp_path)))

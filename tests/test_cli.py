"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.config.system import CachePrefetcherKind


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "gcc"])
        assert args.policy == "at-commit"
        assert args.sb == 56

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gcc", "--policy", "magic"])

    @pytest.mark.parametrize("argv", [["run", "gcc"], ["multicore", "dedup"]])
    def test_prefetcher_choices_follow_the_enum(self, argv):
        for kind in CachePrefetcherKind:
            args = build_parser().parse_args(argv + ["--prefetcher", kind.value])
            assert args.prefetcher == kind.value
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--prefetcher", "magic"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "bwaves" in out
        assert "dedup" in out

    def test_run(self, capsys):
        assert main(["run", "gcc", "--length", "3000", "--policy", "spb"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "SPB:" in out

    def test_compare(self, capsys):
        assert main(["compare", "gcc", "--length", "3000", "--sb", "14"]) == 0
        out = capsys.readouterr().out
        for policy in ("none", "at-commit", "spb", "ideal"):
            assert policy in out

    def test_trace_and_run_from_file(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl.gz")
        assert main(["trace", "gcc", path, "--length", "3000"]) == 0
        assert main(["run", "gcc", "--trace-file", path]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_report(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "sens_n.json").write_text(json.dumps({"SB14/N48": 0.9}))
        out_file = tmp_path / "REPORT.md"
        assert main([
            "report", "--results-dir", str(results), "--output", str(out_file)
        ]) == 0
        assert out_file.exists()


class TestEngineFlag:
    def test_engine_defaults_to_reference(self):
        for argv in (["run", "gcc"], ["compare", "gcc"], ["campaign"]):
            assert build_parser().parse_args(argv).engine == "reference"

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gcc", "--engine", "turbo"])

    def test_run_fast_engine_matches_reference_output(self, capsys):
        assert main(["run", "bwaves", "--length", "6000", "--sb", "14"]) == 0
        reference_out = capsys.readouterr().out
        assert (
            main(["run", "bwaves", "--length", "6000", "--sb", "14",
                  "--engine", "fast"]) == 0
        )
        assert capsys.readouterr().out == reference_out

    def test_run_fast_engine_passes_shadow_check(self, capsys):
        assert (
            main(["run", "bwaves", "--length", "6000", "--sb", "14",
                  "--engine", "fast", "--shadow-check"]) == 0
        )
        assert "shadow check" in capsys.readouterr().out

    def test_compare_accepts_fast_engine(self, capsys):
        assert (
            main(["compare", "bwaves", "--length", "6000", "--engine", "fast"])
            == 0
        )
        assert "at-commit" in capsys.readouterr().out

    def test_campaign_accepts_fast_engine(self, capsys):
        assert (
            main(["campaign", "--apps", "bwaves", "--policies", "at-commit",
                  "--sb-sizes", "14", "--length", "6000", "--engine", "fast",
                  "--no-cache", "--quiet", "--workers", "1"]) == 0
        )
        assert "bwaves" in capsys.readouterr().out

    def test_campaign_manifest_engine_key(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "apps": ["bwaves"], "policies": ["at-commit"], "sb_sizes": [14],
            "length": 6000, "engine": "fast",
        }))
        assert main(["campaign", "--manifest", str(manifest), "--no-cache",
                     "--quiet", "--workers", "1"]) == 0
        assert "bwaves" in capsys.readouterr().out

"""Every correctness check passes on real results and fires on tampered ones."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import Campaign, ResultStore, run_campaign, run_job
from repro.sim.runner import ResultsCache

import checks
from checks import Cell

LENGTH = 10_000  # long enough for bwaves' first memcpy stores


@pytest.fixture(scope="module")
def cells() -> list[Cell]:
    """bwaves (stores) and exchange2 (storeless) × {at-commit, spb} × SB."""
    campaign = Campaign.matrix(
        ["bwaves", "exchange2"], ["at-commit", "spb"], [14, 56],
        length=LENGTH, engine="fast",
    )
    report = run_campaign(campaign, max_workers=1)
    return [Cell(job, report.results[job.key]) for job in campaign]


def find(cells, app, policy, sb) -> int:
    return next(
        index for index, cell in enumerate(cells)
        if (cell.app, cell.policy, cell.sb) == (app, policy, sb)
    )


def test_real_results_pass_every_check(cells):
    assert checks.check_commits(cells) == []
    assert checks.check_reference(cells[:1]) == []
    assert checks.check_storeless(cells, ("exchange2",)) == []
    assert checks.check_spb_stalls(cells) == []
    assert checks.check_sb_monotone(cells) == []


def test_off_by_one_commit_count_fires(cells):
    cell = cells[0]
    pipeline = replace(cell.result.pipeline,
                       committed_uops=cell.result.pipeline.committed_uops - 1)
    tampered = Cell(cell.job, replace(cell.result, pipeline=pipeline))
    assert checks.check_commits([tampered])


def test_ipc_above_width_fires(cells):
    cell = cells[0]
    pipeline = replace(cell.result.pipeline, cycles=1)
    assert checks.check_commits([Cell(cell.job, replace(cell.result, pipeline=pipeline))])


def test_swapped_spb_and_at_commit_fires(cells):
    commit = find(cells, "bwaves", "at-commit", 14)
    spb = find(cells, "bwaves", "spb", 14)
    swapped = list(cells)
    swapped[commit] = Cell(cells[commit].job, cells[spb].result)
    swapped[spb] = Cell(cells[spb].job, cells[commit].result)
    assert checks.check_spb_stalls(swapped)


def test_swapped_sb_sizes_fire(cells):
    small = find(cells, "bwaves", "at-commit", 14)
    large = find(cells, "bwaves", "at-commit", 56)
    swapped = list(cells)
    swapped[small] = Cell(cells[small].job, cells[large].result)
    swapped[large] = Cell(cells[large].job, cells[small].result)
    assert checks.check_sb_monotone(swapped)


def test_reference_mismatch_fires(cells):
    def off_by_one(job):
        result = run_job(job)
        return replace(result, pipeline=replace(result.pipeline,
                                                cycles=result.cycles + 1))

    assert checks.check_reference(cells[:1], rerun=off_by_one)


def test_storeless_cycle_difference_fires(cells):
    index = find(cells, "exchange2", "spb", 56)
    cell = cells[index]
    pipeline = replace(cell.result.pipeline, cycles=cell.result.cycles + 1)
    tampered = list(cells)
    tampered[index] = Cell(cell.job, replace(cell.result, pipeline=pipeline))
    assert checks.check_storeless(tampered, ("exchange2",))


def test_storeless_claim_on_a_storing_app_fires(cells):
    assert checks.check_storeless(cells, ("bwaves",))


class SwappingStore(ResultStore):
    """A store that answers every key with another key's result."""

    def __init__(self, root: str, other: str) -> None:
        super().__init__(root)
        self.other = other

    def load(self, key):
        return super().load(self.other)


def test_requery_checks(cells, tmp_path):
    first, second = cells[0], cells[1]
    oracle = {first.job.key: first.result, second.job.key: second.result}
    store = ResultStore(str(tmp_path))
    for cell in (first, second):
        store.save(cell.job.key, cell.result)

    def ask(store):
        report = run_campaign([first.job], cache=ResultsCache(store=store),
                              max_workers=1)
        return checks.check_requery(first.job, first.job.key, report, oracle)

    assert ask(store) == []
    assert ask(SwappingStore(str(tmp_path), second.job.key))
    # an empty store makes the campaign simulate: not a disk hit
    assert ask(ResultStore(str(tmp_path / "empty")))

"""Campaign reruns pay only for what the cache cannot answer.

Cells whose scores the cache holds, and blank cells, are answered in the
calling process before any pool starts; the journal syncs once per batch
of results that arrive together.  Every rerun here must write the same
bytes as the cold run.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.core.parallel as parallel
from repro.core.cache import ArtifactCache
from repro.core.experiment import ExperimentConfig, Harness
from repro.obs import collecting
from repro.sweep import run_campaign, run_campaign_dir

from tests.sweep.conftest import make_fidelity_spec

#: Two machines, one blank cell (no LBR on Magny-Cours): two slices.
SPEC = make_fidelity_spec(machines=("westmere", "magnycours"))


def artifacts(out: Path) -> dict[str, bytes]:
    """Every byte-identical artifact of one campaign directory."""
    names = ["campaign.json", "report.md",
             *sorted(path.name for path in out.glob("*.csv"))]
    return {name: (out / name).read_bytes() for name in names}


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cold ``--jobs 2`` run of :data:`SPEC` into a fresh cache."""
    root = tmp_path_factory.mktemp("cold-rerun")
    out = root / "out"
    run_campaign_dir(SPEC, out, jobs=2, cache=ArtifactCache(root / "cache"))
    return SimpleNamespace(cache=root / "cache", artifacts=artifacts(out))


def evaluable_cells():
    """(cell, stats digest, fidelity digest) of every non-blank point."""
    (repeats,) = SPEC.seed_counts
    harness = Harness(ExperimentConfig(
        scale=SPEC.scale, repeats=repeats, seed_base=SPEC.seed_base,
        machines=SPEC.machines))
    cells = []
    for point in SPEC.expand():
        cell = point.cell.resolved(
            point.cell.period or harness.period_for(point.cell.workload))
        if harness.lookup_cell(cell) is not None:      # blank
            continue
        cells.append((cell, harness._cell_digest(cell),
                      harness._fidelity_digest(cell, SPEC.fidelity_top_n)))
    return cells


def copy_without(cache: Path, root: Path, *digests: str) -> Path:
    """A copy of ``cache`` under ``root`` without the given entries."""
    copy = root / "cache"
    shutil.copytree(cache, copy)
    for digest in digests:
        next(copy.rglob(f"{digest}.json")).unlink()
    return copy


def test_fully_cached_rerun_starts_no_pool(cold, tmp_path, monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("a fully cached rerun started a pool")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "warm"
    with collecting() as collector:
        run_campaign_dir(SPEC, out, jobs=2, cache=ArtifactCache(cold.cache))
    assert artifacts(out) == cold.artifacts
    counters = collector.metrics.counters()
    assert "parallel.cells_dispatched" not in counters
    assert "harness.cells_evaluated" not in counters
    assert counters["sweep.cells_done"] == SPEC.num_points


def test_partly_cached_rerun_dispatches_only_the_misses(cold, tmp_path):
    (_, stats_gone, _), (_, _, fidelity_gone) = evaluable_cells()[:2]
    cache = copy_without(cold.cache, tmp_path, stats_gone, fidelity_gone)
    out = tmp_path / "partial"
    with collecting() as collector:
        run_campaign_dir(SPEC, out, jobs=2, cache=ArtifactCache(cache))
    assert artifacts(out) == cold.artifacts
    counters = collector.metrics.counters()
    assert counters["parallel.cells_dispatched"] == 2
    # Only the missing half of each dispatched cell is written again.
    assert counters["harness.cells_evaluated"] == 1
    assert counters["harness.fidelity_evaluated"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_journal_syncs_once_per_batch(cold, tmp_path, monkeypatch, jobs):
    synced = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd), fsync(fd))[1])
    # A warm rerun: the header, then every cell in one cached batch.
    run_campaign(SPEC, tmp_path / "warm.jsonl", jobs=jobs,
                 cache=ArtifactCache(cold.cache))
    assert len(synced) == 2
    # Cold, without a cache: the header, the batch holding the blank
    # cell, then one sync per finished slice (jobs=2) or per cell.
    synced.clear()
    run_campaign(SPEC, tmp_path / "cold.jsonl", jobs=jobs)
    cells = [cell for cell, _, _ in evaluable_cells()]
    batches = len({(cell.workload, cell.machine) for cell in cells}) \
        if jobs > 1 else len(cells)
    assert len(synced) == 2 + batches


def test_resume_after_sigkill_mid_batch(cold, tmp_path):
    """Killed inside the cached batch, after one of its lines: the
    resumed campaign writes the uninterrupted artifacts."""
    (_, stats_gone, _), *_ = evaluable_cells()
    cache = copy_without(cold.cache, tmp_path, stats_gone)
    out = tmp_path / "killed"
    spec_path = SPEC.save(tmp_path / "spec.json")
    code = f"""
import os, signal
from repro.core.cache import ArtifactCache
from repro.sweep import CampaignSpec, run_campaign_dir
from repro.sweep.journal import CampaignJournal

record, recorded = CampaignJournal.record, []

def dying(self, *args, **kwargs):
    if recorded:
        os.kill(os.getpid(), signal.SIGKILL)
    recorded.append(record(self, *args, **kwargs))

CampaignJournal.record = dying
run_campaign_dir(CampaignSpec.load({str(spec_path)!r}), {str(out)!r},
                 jobs=2, cache=ArtifactCache({str(cache)!r}))
"""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    killed = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, timeout=120)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    lines = (out / "journal.jsonl").read_text().splitlines()
    assert len(lines) == 2                      # the header and one point

    run_campaign_dir(SPEC, out, jobs=2, cache=ArtifactCache(cache),
                     resume=True)
    assert artifacts(out) == cold.artifacts

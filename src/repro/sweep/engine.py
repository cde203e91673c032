"""The campaign engine: expand, execute, journal, resume.

One campaign run is:

1. expand the :class:`~repro.sweep.spec.CampaignSpec` into its
   deterministic point list,
2. subtract every point already recorded in the journal (``--resume``),
3. evaluate the remainder through the existing parallel scheduler
   (:func:`repro.core.parallel.evaluate_cells`) and artifact cache,
   appending each completed point to the journal the moment it lands
   and syncing the journal once per batch of points that land together
   (the cells the cache answered, each finished slice, each serial cell),
4. assemble the full :class:`CampaignResult` (resumed + fresh cells) in
   expansion order.

Because every cell is a pure function of its spec and seeds (DESIGN.md
§7), a campaign interrupted at any point and resumed produces a result —
and therefore a report — byte-identical to an uninterrupted run.

Observability: the run executes under a ``campaign`` span and maintains
three counters — ``sweep.cells_done`` (evaluated this run),
``sweep.cells_resumed`` (replayed from the journal), and
``sweep.cells_skipped`` (blank cells: method not implementable on the
machine).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import SweepError
from repro.obs import count, span, write_atomic
from repro.core.cache import ArtifactCache
from repro.core.experiment import CellScores, CellSpec, ExperimentConfig
from repro.core.parallel import evaluate_cells
from repro.core.stats import AccuracyStats
from repro.fidelity.stats import FidelityStats
from repro.sweep.journal import CampaignJournal, load_journal
from repro.sweep.spec import CampaignSpec, SweepPoint

#: On-disk campaign document version (see :meth:`CampaignResult.save`).
CAMPAIGN_DOCUMENT_VERSION = 1

#: Files a campaign directory contains.
SPEC_FILENAME = "spec.json"
JOURNAL_FILENAME = "journal.jsonl"
DOCUMENT_FILENAME = "campaign.json"

#: Progress callback: (point, stats, done, total).
ProgressFn = Callable[[SweepPoint, "AccuracyStats | None", int, int], None]


@dataclass
class CampaignResult:
    """All cells of one campaign, keyed by :class:`SweepPoint`."""

    spec: CampaignSpec
    cells: dict[SweepPoint, AccuracyStats | None] = field(default_factory=dict)
    #: Per-point consumer-fidelity scores (populated only for campaigns
    #: run with ``spec.fidelity``; blank cells stay ``None``).
    fidelity: dict[SweepPoint, FidelityStats | None] = field(
        default_factory=dict
    )

    # -- counts ------------------------------------------------------------

    @property
    def num_points(self) -> int:
        return len(self.cells)

    @property
    def num_blank(self) -> int:
        return sum(1 for stats in self.cells.values() if stats is None)

    @property
    def has_fidelity(self) -> bool:
        """Whether any cell carries fidelity scores (gates report sections)."""
        return any(fid is not None for fid in self.fidelity.values())

    # -- document round trip ----------------------------------------------

    def to_document(self) -> dict[str, object]:
        """The machine-readable campaign document (raw per-seed errors).

        Fidelity adds one additive per-cell key only on cells that carry
        scores, so plain campaigns' documents stay byte-identical.
        """
        cells: list[dict[str, object]] = []
        for point, stats in self.cells.items():
            cell: dict[str, object] = {
                "machine": point.cell.machine,
                "workload": point.cell.workload,
                "method": point.cell.method,
                "period": point.cell.period,
                "repeats": point.repeats,
                "errors": None if stats is None else list(stats.errors),
            }
            fid = self.fidelity.get(point)
            if fid is not None:
                cell["fidelity"] = fid.to_dict()
            cells.append(cell)
        return {
            "format": CAMPAIGN_DOCUMENT_VERSION,
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec.digest(),
            "cells": cells,
        }

    @classmethod
    def from_document(cls, document: dict[str, object]) -> "CampaignResult":
        if document.get("format") != CAMPAIGN_DOCUMENT_VERSION:
            raise SweepError(
                f"unsupported campaign document format "
                f"{document.get('format')!r}"
            )
        result = cls(spec=CampaignSpec.from_dict(document["spec"]))
        for cell in document["cells"]:
            point = SweepPoint(
                CellSpec(cell["machine"], cell["workload"], cell["method"],
                         int(cell["period"])),
                int(cell["repeats"]),
            )
            errors = cell["errors"]
            result.cells[point] = (
                None if errors is None
                else AccuracyStats(
                    method=point.cell.method,
                    errors=tuple(float(e) for e in errors),
                )
            )
            if cell.get("fidelity") is not None:
                result.fidelity[point] = FidelityStats.from_dict(
                    cell["fidelity"]
                )
        return result

    def save(self, path: str | Path) -> Path:
        """Atomically write the campaign document as JSON."""
        return write_atomic(path,
                            json.dumps(self.to_document(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CampaignResult":
        """Load a campaign document (a file, or a campaign directory)."""
        path = Path(path)
        if path.is_dir():
            path = path / DOCUMENT_FILENAME
        return cls.from_document(
            json.loads(path.read_text(encoding="utf-8"))
        )


def _config_for(spec: CampaignSpec, repeats: int) -> ExperimentConfig:
    return ExperimentConfig(
        scale=spec.scale,
        repeats=repeats,
        seed_base=spec.seed_base,
        machines=spec.machines,
    )


def resume_state(spec: CampaignSpec, journal_path: str | Path):
    """Validate an existing journal against ``spec`` and return its state."""
    state = load_journal(journal_path)
    if state.spec_digest != spec.digest():
        raise SweepError(
            f"journal {journal_path} belongs to a different campaign "
            f"(spec digest {state.spec_digest[:12]}… != "
            f"{spec.digest()[:12]}…); use a fresh --out directory"
        )
    return state


def result_from_journal(
    spec: CampaignSpec, journal_path: str | Path
) -> CampaignResult:
    """Rebuild a complete :class:`CampaignResult` from a finished journal.

    Lets ``repro-pmu sweep report`` regenerate every report artifact from
    the checkpoint alone.  An incomplete journal raises
    :class:`SweepError` naming the remaining cell count (resume first).
    """
    state = resume_state(spec, journal_path)
    points = spec.expand()
    missing = [p for p in points if p.point_id not in state.completed]
    if missing:
        raise SweepError(
            f"campaign {spec.name!r} is incomplete: {len(missing)} of "
            f"{len(points)} cells not journaled yet (run with --resume)"
        )
    result = CampaignResult(spec=spec)
    for point in points:
        result.cells[point] = state.stats_for(point)
        if spec.fidelity:
            result.fidelity[point] = state.fidelity_for(point)
    return result


def run_campaign(
    spec: CampaignSpec,
    journal_path: str | Path,
    *,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    resume: bool = False,
    on_point: ProgressFn | None = None,
) -> CampaignResult:
    """Execute (or finish) one campaign, journaling every completed cell.

    Without ``resume``, an existing journal at ``journal_path`` is an
    error — interrupted campaigns must be either resumed or restarted in
    a fresh directory, never silently clobbered.
    """
    journal_path = Path(journal_path)
    if journal_path.exists() and not resume:
        raise SweepError(
            f"campaign journal {journal_path} already exists; "
            f"pass resume=True (--resume) to continue it"
        )

    points = spec.expand()
    total = len(points)
    result = CampaignResult(spec=spec)

    completed: dict[str, tuple[float, ...] | None] = {}
    state = None
    if resume and journal_path.exists():
        state = resume_state(spec, journal_path)
        completed = state.completed

    pending: list[SweepPoint] = []
    done = 0
    for point in points:
        if point.point_id in completed:
            stats = (
                None if completed[point.point_id] is None
                else AccuracyStats(method=point.cell.method,
                                   errors=completed[point.point_id])
            )
            result.cells[point] = stats
            if spec.fidelity and state is not None:
                result.fidelity[point] = state.fidelity_for(point)
            done += 1
            count("sweep.cells_resumed")
            if stats is None:
                count("sweep.cells_skipped")
        else:
            pending.append(point)

    progress = {"done": done}
    with span("campaign", campaign=spec.name, points=total,
              resumed=done, jobs=jobs):
        with CampaignJournal(journal_path) as journal:
            journal.open(spec, resume=resume)
            fresh: dict[SweepPoint, CellScores] = {}

            # One scheduler pass per distinct repeat count: the repeat axis
            # changes the ExperimentConfig, everything else rides in the
            # CellSpec.  Order follows the spec's seed_counts.
            for repeats in dict.fromkeys(spec.seed_counts):
                group = [p for p in pending if p.repeats == repeats]
                if not group:
                    continue
                by_cell = {p.cell: p for p in group}

                def on_result(cell_spec, scores, _seconds, _done, _total,
                              by_cell=by_cell):
                    point = by_cell[cell_spec]
                    stats, fid = scores
                    journal.record(point, stats, fid)
                    count("sweep.cells_done")
                    if stats is None:
                        count("sweep.cells_skipped")
                    progress["done"] += 1
                    if on_point is not None:
                        on_point(point, stats, progress["done"], total)

                evaluated = evaluate_cells(
                    _config_for(spec, repeats),
                    [p.cell for p in group],
                    jobs=jobs,
                    cache=cache,
                    on_result=on_result,
                    on_batch=journal.sync,
                    fidelity_top_n=(spec.fidelity_top_n if spec.fidelity
                                    else None),
                )
                for point in group:
                    fresh[point] = evaluated[point.cell]

            for point in pending:
                result.cells[point], fid = fresh[point]
                if fid is not None:
                    result.fidelity[point] = fid

    # Re-key in expansion order so resumed and uninterrupted runs are
    # indistinguishable downstream (reports iterate this dict).
    result.cells = {point: result.cells[point] for point in points}
    if spec.fidelity:
        result.fidelity = {
            point: result.fidelity.get(point) for point in points
        }
    return result

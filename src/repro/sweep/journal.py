"""Append-only campaign checkpoints.

The journal is the campaign's crash-safety mechanism: every completed cell
appends exactly one JSON line, flushed to the OS immediately, so an
interrupted run (SIGKILL included) loses at most the cell that was in
flight.  Lines reach the disk with one ``fsync`` per batch of results that
arrive together (:meth:`CampaignJournal.sync`: the cells the cache
answered, each finished pool slice, each serially evaluated cell) and
with the header, so a power loss loses at most one batch; resume answers
those cells again from the cache or re-evaluates them.  On resume the
engine replays the journal, skips every recorded point, and evaluates only
the remainder — ``repro-pmu sweep run SPEC --resume``.

Format (one JSON object per line)::

    {"v": 1, "type": "campaign_start", "name": ..., "spec_digest": ...,
     "points": N}
    {"v": 1, "type": "point", "id": "<machine/workload/method@period>x<r>",
     "errors": [..] | null}

``errors: null`` records a blank cell (method not implementable on the
machine) — blanks are journaled too, so resume never re-touches them.  A
truncated trailing line (the crash case) is tolerated and dropped; a
corrupt line anywhere else is an error, because silently skipping one
would re-evaluate — and therefore re-journal — a cell out of order.

Fidelity campaigns (``spec.fidelity``) add one additive key to each
non-blank point line — ``"fidelity": {...}`` (the schema-versioned
:meth:`~repro.fidelity.stats.FidelityStats.to_dict` document) — so resume
replays fidelity without re-evaluating; journals of plain campaigns carry
no trace of it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from repro.errors import SweepError
from repro.core.stats import AccuracyStats
from repro.fidelity.stats import FidelityStats
from repro.sweep.spec import CampaignSpec, SweepPoint

#: Journal line format version.
JOURNAL_VERSION = 1


@dataclass
class JournalState:
    """Everything a resume needs from an existing journal."""

    name: str
    spec_digest: str
    points: int
    #: point_id -> per-seed errors (``None`` for blank cells).
    completed: dict[str, tuple[float, ...] | None]
    #: point_id -> raw fidelity document (``None``/absent when the point
    #: carried none — plain campaigns and blank cells).
    fidelity: dict[str, dict | None] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.fidelity is None:
            self.fidelity = {}

    def stats_for(self, point: SweepPoint) -> AccuracyStats | None:
        """Reconstruct one journaled point's stats (``None`` if blank)."""
        errors = self.completed[point.point_id]
        if errors is None:
            return None
        return AccuracyStats(method=point.cell.method, errors=errors)

    def fidelity_for(self, point: SweepPoint) -> FidelityStats | None:
        """Reconstruct one journaled point's fidelity (``None`` if absent)."""
        document = self.fidelity.get(point.point_id)
        if document is None:
            return None
        return FidelityStats.from_dict(document)


class CampaignJournal:
    """Writer for one campaign's append-only JSONL checkpoint."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None
        self._unsynced = False

    # -- writing -----------------------------------------------------------

    def open(self, spec: CampaignSpec, *, resume: bool = False) -> None:
        """Open for appending; writes the header line on a fresh journal.

        Resuming over a journal whose last line was torn by a crash first
        truncates the torn tail (the loader already ignores it) so the
        next record starts on its own line.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not (resume and self.path.exists())
        if not fresh:
            self._trim_torn_tail()
        self._fh = open(self.path, "a" if resume else "w", encoding="utf-8")
        if fresh:
            self._write({
                "v": JOURNAL_VERSION,
                "type": "campaign_start",
                "name": spec.name,
                "spec_digest": spec.digest(),
                "points": spec.num_points,
            })
            self.sync()

    def _trim_torn_tail(self) -> None:
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1      # 0 when no newline at all
        with open(self.path, "r+b") as fh:
            fh.truncate(cut)

    def record(
        self,
        point: SweepPoint,
        stats: AccuracyStats | None,
        fidelity: FidelityStats | None = None,
    ) -> None:
        """Append one completed point, flushed to the OS immediately
        (durable on disk at the next :meth:`sync`).

        ``fidelity`` adds its additive key only when present, so plain
        campaigns' journal bytes stay exactly as before.
        """
        event: dict[str, object] = {
            "v": JOURNAL_VERSION,
            "type": "point",
            "id": point.point_id,
            "errors": None if stats is None else list(stats.errors),
        }
        if fidelity is not None:
            event["fidelity"] = fidelity.to_dict()
        self._write(event)

    def _write(self, event: dict[str, object]) -> None:
        if self._fh is None:
            raise SweepError("journal is not open")
        self._fh.write(json.dumps(event) + "\n")
        self._fh.flush()
        self._unsynced = True

    def sync(self) -> None:
        """Make every line written so far durable: one ``fsync``, skipped
        when nothing was written since the last one."""
        if self._fh is not None and self._unsynced:
            os.fsync(self._fh.fileno())
            self._unsynced = False

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def load_journal(path: str | Path) -> JournalState:
    """Replay a journal file into a :class:`JournalState`.

    Tolerates a truncated final line (a run killed mid-append); any other
    malformed line raises :class:`SweepError`.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise SweepError(f"no campaign journal at {path}") from None
    if not lines:
        raise SweepError(f"campaign journal {path} is empty")

    events: list[dict[str, object]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines):
                break               # crash-truncated tail: drop it
            raise SweepError(
                f"corrupt journal line {lineno} in {path}"
            ) from None

    if not events or events[0].get("type") != "campaign_start":
        raise SweepError(f"journal {path} has no campaign_start header")
    header = events[0]
    if header.get("v") != JOURNAL_VERSION:
        raise SweepError(
            f"unsupported journal version {header.get('v')!r} in {path}"
        )

    completed: dict[str, tuple[float, ...] | None] = {}
    fidelity: dict[str, dict | None] = {}
    for event in events[1:]:
        if event.get("type") != "point":
            raise SweepError(
                f"unexpected journal event {event.get('type')!r} in {path}"
            )
        errors = event["errors"]
        point_id = str(event["id"])
        completed[point_id] = (
            None if errors is None else tuple(float(e) for e in errors)
        )
        if event.get("fidelity") is not None:
            fidelity[point_id] = event["fidelity"]
    return JournalState(
        name=str(header.get("name", "")),
        spec_digest=str(header.get("spec_digest", "")),
        points=int(header.get("points", 0)),
        completed=completed,
        fidelity=fidelity,
    )

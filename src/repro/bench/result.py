"""The versioned ``BENCH_<area>.json`` result format.

The paper's thesis — performance numbers are only trustworthy when the
measurement substrate is validated — applies to our own benchmarks too, so
a bench result is never a bare number.  Every metric carries its unit, the
direction in which bigger is better, the per-iteration samples it was
derived from, and the sanity guards that vouch for it; a guard violation
marks the metric (and the whole result) ``invalid`` instead of silently
dropping or, worse, reporting it.  The document also captures the run's
configuration, raw measurement details, environment, and a provenance
manifest, so any number in a trajectory can be traced back to the run that
produced it.

Document shape (see DESIGN.md §"BENCH_<area>.json schema")::

    {
      "bench_schema_version": 1,
      "area": "table1",
      "kind": "bench" | "hammer",
      "status": "ok" | "invalid" | "failed",
      "created": "2026-08-08T12:00:00+0000",
      "error": null,
      "config": {...input knobs...},
      "metrics": [
        {"name": "cold.cells_per_s", "value": 12.3, "unit": "cells/s",
         "direction": "higher", "samples": [12.1, 12.3, 12.6],
         "guards": [{"name": "min_elapsed", "passed": true,
                     "detail": "0.93s >= 0.05s"}]},
        ...
      ],
      "details": {...raw measurements...},
      "environment": {...python/platform capture...},
      "provenance": {...repro.obs manifest...}
    }

Documents with a different ``bench_schema_version`` are rejected on load
(:class:`~repro.errors.BenchError`) instead of being silently misread.
"""

from __future__ import annotations

import json
import os
import platform
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.errors import BenchError
from repro.obs import write_atomic

#: On-disk bench document version.  Bumped whenever a field is added,
#: removed, or changes meaning.
BENCH_SCHEMA_VERSION = 1

#: Valid overall/metric statuses.
STATUS_OK = "ok"
STATUS_INVALID = "invalid"
STATUS_FAILED = "failed"

_AREA_RE = re.compile(r"^[a-z0-9][a-z0-9_]*$")


@dataclass(frozen=True)
class GuardCheck:
    """One sanity-guard verdict attached to a metric.

    ``passed=False`` never removes the metric — it flags it (and the whole
    result) as ``invalid`` so downstream consumers refuse to trust it.
    """

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GuardCheck":
        return cls(name=str(data["name"]), passed=bool(data["passed"]),
                   detail=str(data.get("detail", "")))


@dataclass(frozen=True)
class Metric:
    """One measured quantity plus everything needed to trust (or not) it.

    ``value`` is ``None`` when the run could not defend any number for
    this metric (e.g. zero work was detected); ``samples`` are the
    per-iteration values the headline ``value`` summarizes (median).
    ``direction`` says which way improvement points: ``"higher"`` for
    throughputs, ``"lower"`` for latencies and error rates — the compare
    gate needs it to tell a regression from a win.
    """

    name: str
    value: float | None
    unit: str
    direction: str = "higher"                # "higher" | "lower" is better
    samples: tuple[float, ...] = ()
    guards: tuple[GuardCheck, ...] = ()

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise BenchError(
                f"metric {self.name!r}: direction must be 'higher' or "
                f"'lower', got {self.direction!r}"
            )

    @property
    def status(self) -> str:
        """``ok`` iff every guard passed (no guards = nothing vouches —
        still ``ok`` for informational metrics)."""
        return (STATUS_OK if all(g.passed for g in self.guards)
                else STATUS_INVALID)

    @property
    def valid(self) -> bool:
        return self.status == STATUS_OK and self.value is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "status": self.status,
            "samples": list(self.samples),
            "guards": [g.to_dict() for g in self.guards],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Metric":
        value = data.get("value")
        return cls(
            name=str(data["name"]),
            value=None if value is None else float(value),
            unit=str(data.get("unit", "")),
            direction=str(data.get("direction", "higher")),
            samples=tuple(float(s) for s in data.get("samples", ())),
            guards=tuple(GuardCheck.from_dict(g)
                         for g in data.get("guards", ())),
        )


def capture_environment() -> dict[str, Any]:
    """Machine/interpreter facts worth pinning next to perf numbers."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


@dataclass(frozen=True)
class BenchResult:
    """One benchmark or load-test run, ready to serialize.

    ``status`` rolls up trustworthiness: ``failed`` when the run itself
    broke (daemon died mid-load, exception), ``invalid`` when any metric's
    guard tripped, ``ok`` otherwise.  A ``failed``/``invalid`` result is
    still written to disk — the point is an auditable record, not a happy
    path — but ``bench compare`` refuses to accept it as a baseline or
    pass it as a candidate.
    """

    area: str
    kind: str                                # "bench" | "hammer"
    config: dict[str, Any] = field(default_factory=dict)
    metrics: tuple[Metric, ...] = ()
    details: dict[str, Any] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=capture_environment)
    provenance: dict[str, Any] = field(default_factory=dict)
    created: str = field(
        default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S%z")
    )
    error: str | None = None
    schema_version: int = BENCH_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not _AREA_RE.match(self.area):
            raise BenchError(
                f"invalid bench area {self.area!r} "
                "(want lowercase [a-z0-9_], e.g. 'table1', 'serve')"
            )
        if self.kind not in ("bench", "hammer"):
            raise BenchError(
                f"invalid bench kind {self.kind!r} (want 'bench'|'hammer')"
            )

    @property
    def status(self) -> str:
        if self.error is not None:
            return STATUS_FAILED
        if any(m.status != STATUS_OK for m in self.metrics):
            return STATUS_INVALID
        return STATUS_OK

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def metric(self, name: str) -> Metric | None:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        return None

    def failed(self, error: str) -> "BenchResult":
        """This result marked as a run-level failure."""
        return replace(self, error=error)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "bench_schema_version": self.schema_version,
            "area": self.area,
            "kind": self.kind,
            "status": self.status,
            "created": self.created,
            "error": self.error,
            "config": dict(self.config),
            "metrics": [m.to_dict() for m in self.metrics],
            "details": dict(self.details),
            "environment": dict(self.environment),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "BenchResult":
        if not isinstance(data, dict):
            raise BenchError("bench document must be a JSON object")
        version = data.get("bench_schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise BenchError(
                f"unsupported bench_schema_version {version!r} "
                f"(this build speaks {BENCH_SCHEMA_VERSION})"
            )
        try:
            result = cls(
                area=str(data["area"]),
                kind=str(data["kind"]),
                config=dict(data.get("config", {})),
                metrics=tuple(Metric.from_dict(m)
                              for m in data.get("metrics", ())),
                details=dict(data.get("details", {})),
                environment=dict(data.get("environment", {})),
                provenance=dict(data.get("provenance", {})),
                created=str(data.get("created", "")),
                error=data.get("error"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchError(f"malformed bench document: {exc!r}") from None
        # The stored status is derived, never trusted: a hand-edited
        # document claiming "ok" over failed guards re-derives to invalid.
        stored = data.get("status")
        if stored is not None and stored != result.status:
            raise BenchError(
                f"bench document status {stored!r} contradicts its own "
                f"guards/error (derived {result.status!r})"
            )
        return result

    def render(self) -> str:
        """Human-readable one-result summary."""
        lines = [f"BENCH {self.area} [{self.kind}] status={self.status}"]
        if self.error is not None:
            lines.append(f"  error: {self.error}")
        for metric in self.metrics:
            value = ("--" if metric.value is None
                     else f"{metric.value:,.4g}")
            flags = "" if metric.status == STATUS_OK else "  INVALID"
            lines.append(
                f"  {metric.name:<24} {value:>12} {metric.unit}{flags}"
            )
            for guard in metric.guards:
                if not guard.passed:
                    lines.append(f"    guard {guard.name} FAILED: "
                                 f"{guard.detail}")
        return "\n".join(lines)


def bench_filename(area: str) -> str:
    """Canonical artifact name for one area (``BENCH_<area>.json``)."""
    if not _AREA_RE.match(area):
        raise BenchError(f"invalid bench area {area!r}")
    return f"BENCH_{area}.json"


def save_bench(result: BenchResult, where: str | Path) -> Path:
    """Write a result as ``BENCH_<area>.json`` (atomically).

    ``where`` is a directory (the canonical filename is appended) or a
    full file path.  Returns the final path.
    """
    where = Path(where)
    path = (where / bench_filename(result.area)
            if where.is_dir() or not where.suffix else where)
    return write_atomic(path, json.dumps(result.to_dict(), indent=2,
                                         sort_keys=False) + "\n")


def load_bench(path: str | Path) -> BenchResult:
    """Read and validate one ``BENCH_<area>.json`` document."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"no such bench document: {path}") from None
    except json.JSONDecodeError as exc:
        raise BenchError(f"{path} is not valid JSON: {exc}") from None
    return BenchResult.from_dict(data)

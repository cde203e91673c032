"""Stable high-level facade over the experiment stack.

Notebooks, benchmarks, and scripts should import from here (or from the
top-level :mod:`repro` package, which re-exports everything below) instead
of reaching into ``repro.core.*`` internals:

    from repro import api

    table = api.run_table1(jobs=4, cache=True)   # parallel, disk-cached
    api.save_table(table, "table1.json")

    stats = api.evaluate_cell(
        api.CellSpec("ivybridge", "latency_biased", "lbr")
    )

    spec = api.CampaignSpec(name="periods", workloads=("callchain",),
                            methods=("classic", "lbr"),
                            periods=(500, 1000, 2000))
    campaign = api.run_campaign(spec, "campaigns/periods", jobs=4)

Everything accepts plain values: ``config`` is an
:class:`~repro.core.experiment.ExperimentConfig` (or ``None`` for the
paper's defaults), ``cache`` is ``True``/``False``, a directory path, a
:class:`CacheConfig` (budgets, hot tier, remote — DESIGN.md §12), or an
:class:`~repro.core.cache.ArtifactCache`, and ``jobs`` is a worker-process
count (1 = serial).  Parallel and serial builds of the same config are
bit-identical, and so are builds under any cache budget — eviction is
invisible to results.

``cache=CacheConfig(...)`` is the one structured way to shape caching:

    table = api.run_table1(
        jobs=4,
        cache=api.CacheConfig(max_bytes=256 * 1024 * 1024, hot_entries=64),
    )
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.errors import PMUConfigError, RequestError, WorkloadError
from repro.cpu.uarch import get_uarch
from repro.core.cache import (
    CACHE_STATS_SCHEMA_VERSION,
    ArtifactCache,
    CacheConfig,
    CacheStats,
    TierStats,
    resolve_cache,
)
from repro.core.experiment import CellSpec, ExperimentConfig, Harness
from repro.core.methods import get_method
from repro.core.stats import AccuracyStats
from repro.core.tables import (
    TABLE_METHOD_KEYS,
    TableResult,
    build_table1,
    build_table2,
)
from repro.fidelity.metrics import TOP_N_DEFAULT
from repro.fidelity.stats import FidelityStats
from repro.obs import write_atomic
from repro.sweep import (
    CampaignResult,
    CampaignSpec,
    FleetConfig,
    FleetReport,
    load_campaign,
)
from repro.sweep import run_campaign_dir as _run_campaign_dir
from repro.workloads.registry import APP_NAMES, KERNEL_NAMES, get_workload

__all__ = [
    "API_SCHEMA_VERSION",
    "CACHE_STATS_SCHEMA_VERSION",
    "ArtifactCache",
    "CacheConfig",
    "CacheStats",
    "CampaignResult",
    "CampaignSpec",
    "CellSpec",
    "EvaluateRequest",
    "EvaluateResult",
    "ExperimentConfig",
    "FidelityStats",
    "FleetConfig",
    "FleetReport",
    "Harness",
    "TableResult",
    "TierStats",
    "evaluate_cell",
    "evaluate_request",
    "load_campaign",
    "load_table",
    "run_campaign",
    "run_fidelity",
    "run_table1",
    "run_table2",
    "save_table",
    "table_document",
    "table_from_document",
]

#: On-disk table document version (see :func:`save_table`).
TABLE_DOCUMENT_VERSION = 1

#: Version of the request/response JSON shapes below.  Bumped whenever a
#: field is added, removed, or changes meaning; requests carrying a
#: different version are rejected with :class:`RequestError` instead of
#: being silently misread.
API_SCHEMA_VERSION = 1

CacheArg = "ArtifactCache | CacheConfig | str | Path | bool | None"


def _harness(config: ExperimentConfig | None, cache) -> Harness:
    return Harness(config or ExperimentConfig(), cache=resolve_cache(cache))


# -- versioned request/response types -------------------------------------


@dataclass(frozen=True)
class EvaluateRequest:
    """One cell-evaluation request: the single source of truth for request
    validation and JSON shape.

    The CLI (``repro-pmu run``), :func:`evaluate_cell`, and the serve
    daemon's ``POST /v1/evaluate`` all build one of these and route it
    through :func:`evaluate_request`, so every entry point validates the
    same way and serializes to the same bytes.
    """

    machine: str
    workload: str
    method: str
    period: int | None = None
    scale: float = 1.0
    repeats: int = 5
    seed_base: int = 100
    fidelity: bool = False
    fidelity_top_n: int = TOP_N_DEFAULT
    schema_version: int = API_SCHEMA_VERSION

    #: JSON field names, in canonical order.  ``fidelity`` /
    #: ``fidelity_top_n`` are additive: off the wire at their defaults, so
    #: a request that never asks for fidelity serializes (and answers)
    #: exactly as before.
    FIELDS = ("machine", "workload", "method", "period", "scale",
              "repeats", "seed_base", "fidelity", "fidelity_top_n",
              "schema_version")

    def validate(self) -> "EvaluateRequest":
        """Raise :class:`RequestError` unless every field is usable."""
        if self.schema_version != API_SCHEMA_VERSION:
            raise RequestError(
                f"unsupported schema_version {self.schema_version!r} "
                f"(this build speaks {API_SCHEMA_VERSION})"
            )
        for name in ("machine", "workload", "method"):
            if not isinstance(getattr(self, name), str):
                raise RequestError(f"{name} must be a string")
        try:
            get_uarch(self.machine)
            get_method(self.method)
        except PMUConfigError as exc:
            raise RequestError(str(exc)) from None
        try:
            get_workload(self.workload)
        except WorkloadError as exc:
            raise RequestError(str(exc)) from None
        if self.period is not None and (
            not isinstance(self.period, int) or isinstance(self.period, bool)
            or self.period <= 0
        ):
            raise RequestError("period must be a positive integer or null")
        if (not isinstance(self.scale, (int, float))
                or isinstance(self.scale, bool)
                or not math.isfinite(self.scale) or self.scale <= 0):
            raise RequestError("scale must be a positive finite number")
        if (not isinstance(self.repeats, int) or isinstance(self.repeats, bool)
                or self.repeats < 1):
            raise RequestError("repeats must be a positive integer")
        if not isinstance(self.seed_base, int) or isinstance(self.seed_base,
                                                             bool):
            raise RequestError("seed_base must be an integer")
        if not isinstance(self.fidelity, bool):
            raise RequestError("fidelity must be a boolean")
        if (not isinstance(self.fidelity_top_n, int)
                or isinstance(self.fidelity_top_n, bool)
                or self.fidelity_top_n < 1):
            raise RequestError("fidelity_top_n must be a positive integer")
        return self

    def resolved(self) -> "EvaluateRequest":
        """This request with ``period=None`` replaced by the workload's
        default round base period (the value the harness would use)."""
        if self.period is not None:
            return self
        return replace(self,
                       period=get_workload(self.workload).default_period)

    def spec(self) -> CellSpec:
        """The cell this request addresses."""
        return CellSpec(self.machine, self.workload, self.method, self.period)

    def config(self) -> ExperimentConfig:
        """The experiment configuration this request implies."""
        return ExperimentConfig(scale=self.scale, repeats=self.repeats,
                                seed_base=self.seed_base)

    @classmethod
    def from_spec(
        cls, spec: CellSpec, config: ExperimentConfig | None = None
    ) -> "EvaluateRequest":
        """Build a request from the legacy (spec, config) pair."""
        config = config or ExperimentConfig()
        return cls(machine=spec.machine, workload=spec.workload,
                   method=spec.method, period=spec.period,
                   scale=config.scale, repeats=config.repeats,
                   seed_base=config.seed_base)

    def to_dict(self) -> dict[str, object]:
        document = {name: getattr(self, name) for name in self.FIELDS}
        # A request that never asked for fidelity carries no trace of it.
        if not self.fidelity:
            del document["fidelity"]
        if self.fidelity_top_n == TOP_N_DEFAULT:
            del document["fidelity_top_n"]
        return document

    @classmethod
    def from_dict(cls, data: object) -> "EvaluateRequest":
        """Parse and validate a request document.

        Unknown keys are rejected (they usually mean the client speaks a
        newer schema); ``schema_version`` defaults to the current version
        when omitted.
        """
        if not isinstance(data, dict):
            raise RequestError("request body must be a JSON object")
        unknown = set(data) - set(cls.FIELDS)
        if unknown:
            raise RequestError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        missing = {"machine", "workload", "method"} - set(data)
        if missing:
            raise RequestError(
                f"missing request field(s): {', '.join(sorted(missing))}"
            )
        kwargs = dict(data)
        kwargs.setdefault("schema_version", API_SCHEMA_VERSION)
        try:
            request = cls(**kwargs)
        except TypeError as exc:
            raise RequestError(str(exc)) from None
        return request.validate()


@dataclass(frozen=True)
class EvaluateResult:
    """The outcome of one :class:`EvaluateRequest`.

    ``stats`` is ``None`` for the paper's blank cells (method not
    implementable on the machine); the carried ``request`` always has its
    period resolved, so the document fully identifies the experiment.

    ``fidelity`` is populated only when the request asked for it
    (``request.fidelity``) and the cell is not blank; it is absent from
    the document otherwise, so pre-fidelity responses stay byte-identical.
    """

    request: EvaluateRequest
    stats: AccuracyStats | None
    schema_version: int = API_SCHEMA_VERSION
    fidelity: FidelityStats | None = None

    @property
    def blank(self) -> bool:
        return self.stats is None

    def to_dict(self) -> dict[str, object]:
        stats = None
        if self.stats is not None:
            stats = {
                "method": self.stats.method,
                "errors": list(self.stats.errors),
                "mean_error": self.stats.mean_error,
                "std_error": self.stats.std_error,
                "repeats": self.stats.repeats,
            }
        document = {
            "schema_version": self.schema_version,
            "request": self.request.to_dict(),
            "blank": self.blank,
            "stats": stats,
        }
        if self.fidelity is not None:
            document["fidelity"] = self.fidelity.to_dict()
        return document

    def to_json(self) -> str:
        """Canonical JSON encoding — sorted keys, compact separators,
        trailing newline — so equal results are equal *bytes* (the serve
        daemon's byte-identity guarantee rests on this)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, data: object) -> "EvaluateResult":
        if not isinstance(data, dict):
            raise RequestError("result document must be a JSON object")
        if data.get("schema_version") != API_SCHEMA_VERSION:
            raise RequestError(
                f"unsupported result schema_version "
                f"{data.get('schema_version')!r}"
            )
        request = EvaluateRequest.from_dict(data.get("request"))
        stats_doc = data.get("stats")
        stats = None
        if stats_doc is not None:
            stats = AccuracyStats(
                method=stats_doc["method"],
                errors=tuple(float(e) for e in stats_doc["errors"]),
            )
        fidelity_doc = data.get("fidelity")
        fidelity = None
        if fidelity_doc is not None:
            fidelity = FidelityStats.from_dict(fidelity_doc)
        return cls(request=request, stats=stats, fidelity=fidelity)


def evaluate_request(
    request: EvaluateRequest,
    *,
    cache: CacheArg = None,
    harness: Harness | None = None,
    abort: Callable[[], bool] | None = None,
) -> EvaluateResult:
    """Validate and execute one :class:`EvaluateRequest`.

    The one evaluation path shared by the CLI, :func:`evaluate_cell`, and
    the serve daemon: identical requests produce identical
    :class:`EvaluateResult` values (and identical ``to_json()`` bytes)
    whichever door they came through.  ``harness`` lets callers that
    evaluate many same-config requests share trace/reference caches;
    ``abort`` is polled between seeded repeats (see
    :func:`repro.core.runner.evaluate_method`).
    """
    request = request.validate().resolved()
    if harness is None:
        harness = _harness(request.config(), cache)
    stats, fidelity = harness.evaluate_cell(
        request.spec(), abort=abort,
        fidelity_top_n=request.fidelity_top_n if request.fidelity else None,
    )
    return EvaluateResult(request=request, stats=stats, fidelity=fidelity)


def run_table1(
    config: ExperimentConfig | None = None,
    *,
    jobs: int = 1,
    cache: CacheArg = None,
    methods: tuple[str, ...] = TABLE_METHOD_KEYS,
    workloads: tuple[str, ...] = KERNEL_NAMES,
) -> TableResult:
    """Regenerate Table 1 (kernel accuracy errors)."""
    return build_table1(_harness(config, cache), methods=methods,
                        workloads=workloads, jobs=jobs)


def run_table2(
    config: ExperimentConfig | None = None,
    *,
    jobs: int = 1,
    cache: CacheArg = None,
    methods: tuple[str, ...] = TABLE_METHOD_KEYS,
    workloads: tuple[str, ...] = APP_NAMES,
) -> TableResult:
    """Regenerate Table 2 (application accuracy errors)."""
    return build_table2(_harness(config, cache), methods=methods,
                        workloads=workloads, jobs=jobs)


def evaluate_cell(
    spec: CellSpec,
    config: ExperimentConfig | None = None,
    *,
    cache: CacheArg = None,
) -> AccuracyStats | None:
    """Score one (machine, workload, method[, period]) cell.

    Returns ``None`` for the paper's blank cells (method not implementable
    on the machine).  Routes through :func:`evaluate_request`, so a cell
    evaluated here is byte-for-byte the cell the serve daemon returns.
    """
    request = EvaluateRequest.from_spec(spec, config)
    return evaluate_request(request, cache=cache).stats


def run_fidelity(
    machine: str,
    workload: str,
    method: str,
    *,
    period: int | None = None,
    top_n: int = TOP_N_DEFAULT,
    config: ExperimentConfig | None = None,
    cache: CacheArg = None,
) -> FidelityStats | None:
    """Score one cell's consumer-outcome fidelity (DESIGN.md §11).

    Returns ``None`` for the paper's blank cells.  Routes through
    :func:`evaluate_request` with ``fidelity=True``, so the stats match
    byte for byte what ``repro-pmu fidelity`` prints and what the serve
    daemon returns for the same request.
    """
    config = config or ExperimentConfig()
    request = EvaluateRequest(
        machine=machine, workload=workload, method=method, period=period,
        scale=config.scale, repeats=config.repeats,
        seed_base=config.seed_base, fidelity=True, fidelity_top_n=top_n,
    )
    return evaluate_request(request, cache=cache).fidelity


def run_campaign(
    spec: CampaignSpec | str | Path,
    out_dir: str | Path,
    *,
    jobs: int = 1,
    cache: CacheArg = None,
    resume: bool = False,
    workers: "list[str] | tuple[str, ...] | None" = None,
    fleet: "FleetConfig | None" = None,
) -> CampaignResult:
    """Run (or ``resume``) an experiment campaign into its directory.

    ``spec`` is a :class:`~repro.sweep.CampaignSpec` or a path to its JSON
    form.  The directory receives the journal, ``campaign.json``, markdown
    and CSV reports, and a provenance manifest; see :mod:`repro.sweep`.

    ``workers`` (a list of ``repro-pmu serve`` base URLs) runs the
    campaign through the distributed coordinator instead of local
    processes — same journal, same artifacts, byte for byte; ``fleet``
    tunes its retry/deadline/quarantine behavior
    (:class:`~repro.sweep.FleetConfig`).
    """
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.load(spec)
    return _run_campaign_dir(
        spec, out_dir, jobs=jobs, cache=resolve_cache(cache), resume=resume,
        workers=workers, fleet=fleet,
        manifest_extra={"command": "api.run_campaign"},
    )


def table_document(table: TableResult) -> dict[str, object]:
    """The versioned JSON document form of a :class:`TableResult`.

    One shape, three consumers: :func:`save_table` writes it to disk,
    :func:`load_table` reads it back, and the serve daemon's
    ``POST /v1/table`` returns it over HTTP.
    """
    return {
        "format": TABLE_DOCUMENT_VERSION,
        "title": table.title,
        "row_labels": [list(label) for label in table.row_labels],
        "column_labels": list(table.column_labels),
        "cells": [
            {
                "machine": spec.machine,
                "workload": spec.workload,
                "method": spec.method,
                "period": spec.period,
                "errors": None if stats is None else list(stats.errors),
            }
            for spec, stats in table.cells.items()
        ],
    }


def table_from_document(document: dict[str, object]) -> TableResult:
    """Reconstruct a :class:`TableResult` from :func:`table_document`."""
    if document.get("format") != TABLE_DOCUMENT_VERSION:
        raise ValueError(
            f"unsupported table document format {document.get('format')!r}"
        )
    table = TableResult(
        title=document["title"],
        row_labels=[tuple(label) for label in document["row_labels"]],
        column_labels=list(document["column_labels"]),
    )
    for cell in document["cells"]:
        spec = CellSpec(cell["machine"], cell["workload"], cell["method"],
                        cell["period"])
        errors = cell["errors"]
        table.cells[spec] = (
            None if errors is None
            else AccuracyStats(method=spec.method,
                               errors=tuple(float(e) for e in errors))
        )
    return table


def save_table(table: TableResult, path: str | Path) -> Path:
    """Persist a :class:`TableResult` as a versioned JSON document.

    Unlike :func:`repro.core.export.table_to_json` (flat mean/std records
    for downstream analysis), this keeps the raw per-seed errors so
    :func:`load_table` round-trips the table exactly.  Written atomically.
    """
    return write_atomic(path, json.dumps(table_document(table), indent=2)
                        + "\n")


def load_table(path: str | Path) -> TableResult:
    """Reconstruct a :class:`TableResult` saved by :func:`save_table`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return table_from_document(document)

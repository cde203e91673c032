"""Wire shapes specific to the serve daemon.

Cell evaluation reuses the versioned :class:`repro.api.EvaluateRequest` /
:class:`repro.api.EvaluateResult` pair unchanged — the daemon adds only
*transport* fields (``wait``, ``deadline_s``), which are split off the
request body before the payload document is validated, plus the
:class:`TableRequest` shape for ``POST /v1/table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api import API_SCHEMA_VERSION
from repro.errors import PMUConfigError, RequestError, WorkloadError
from repro.core.experiment import ExperimentConfig
from repro.core.methods import get_method
from repro.workloads.registry import get_workload

#: Body fields consumed by the HTTP layer, not the payload documents.
TRANSPORT_FIELDS = ("wait", "deadline_s")


@dataclass(frozen=True)
class Transport:
    """How the client wants its answer delivered.

    ``wait=True`` blocks the HTTP response until the job finishes or its
    deadline passes (→ 504); ``wait=False`` returns ``202 Accepted`` with
    a job id to poll.  ``deadline_s=None`` defers to the server default
    for waited requests and means "no deadline" for async ones.
    """

    wait: bool = True
    deadline_s: float | None = None

    def resolve_deadline(self, default_s: float) -> float | None:
        """The effective deadline in seconds, or ``None`` for unbounded."""
        if self.deadline_s is not None:
            return self.deadline_s
        return default_s if self.wait else None


def split_transport(body: object) -> tuple[dict, Transport]:
    """Split a request body into (payload document, :class:`Transport`)."""
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    payload = dict(body)
    wait = payload.pop("wait", True)
    if not isinstance(wait, bool):
        raise RequestError("wait must be a boolean")
    deadline_s = payload.pop("deadline_s", None)
    if deadline_s is not None:
        if (not isinstance(deadline_s, (int, float))
                or isinstance(deadline_s, bool)
                or not math.isfinite(deadline_s) or deadline_s <= 0):
            raise RequestError("deadline_s must be a positive finite number")
        deadline_s = float(deadline_s)
    return payload, Transport(wait=wait, deadline_s=deadline_s)


@dataclass(frozen=True)
class TableRequest:
    """One ``POST /v1/table`` payload: regenerate Table 1 or Table 2.

    ``methods``/``workloads`` of ``None`` mean the table's paper defaults;
    the response carries the same versioned document
    :func:`repro.api.save_table` writes, wrapped with the request echo.
    """

    table: int
    scale: float = 1.0
    repeats: int = 5
    seed_base: int = 100
    methods: tuple[str, ...] | None = None
    workloads: tuple[str, ...] | None = None
    schema_version: int = API_SCHEMA_VERSION

    FIELDS = ("table", "scale", "repeats", "seed_base", "methods",
              "workloads", "schema_version")

    def validate(self) -> "TableRequest":
        if self.schema_version != API_SCHEMA_VERSION:
            raise RequestError(
                f"unsupported schema_version {self.schema_version!r} "
                f"(this build speaks {API_SCHEMA_VERSION})"
            )
        if self.table not in (1, 2):
            raise RequestError("table must be 1 or 2")
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
        try:
            for method in self.methods or ():
                get_method(method)
        except PMUConfigError as exc:
            raise RequestError(str(exc)) from None
        try:
            for workload in self.workloads or ():
                get_workload(workload)
        except WorkloadError as exc:
            raise RequestError(str(exc)) from None
        return self

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(scale=self.scale, repeats=self.repeats,
                                seed_base=self.seed_base)

    def to_dict(self) -> dict[str, object]:
        return {
            "table": self.table,
            "scale": self.scale,
            "repeats": self.repeats,
            "seed_base": self.seed_base,
            "methods": None if self.methods is None else list(self.methods),
            "workloads": (None if self.workloads is None
                          else list(self.workloads)),
            "schema_version": self.schema_version,
        }

    @classmethod
    def from_dict(cls, data: object) -> "TableRequest":
        if not isinstance(data, dict):
            raise RequestError("request body must be a JSON object")
        unknown = set(data) - set(cls.FIELDS)
        if unknown:
            raise RequestError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        if "table" not in data:
            raise RequestError("missing request field(s): table")
        kwargs = dict(data)
        kwargs.setdefault("schema_version", API_SCHEMA_VERSION)
        for name in ("methods", "workloads"):
            if kwargs.get(name) is not None:
                value = kwargs[name]
                if (not isinstance(value, (list, tuple))
                        or not all(isinstance(v, str) for v in value)):
                    raise RequestError(f"{name} must be a list of strings")
                kwargs[name] = tuple(value)
        try:
            request = cls(**kwargs)
        except TypeError as exc:
            raise RequestError(str(exc)) from None
        return request.validate()

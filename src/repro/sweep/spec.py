"""Campaign specifications: the declarative input of a sweep.

A :class:`CampaignSpec` names the axes of one experiment campaign —
workloads, methods, machines, base sampling periods, and seed counts — and
expands into the full cross product of :class:`SweepPoint`\\ s.  Specs
round-trip through plain dicts and JSON so campaigns can live in files,
and carry a canonical SHA-256 digest so a resumed run can prove it is
continuing the same campaign (see :mod:`repro.sweep.journal`).

The period axis accepts either an explicit list or a log-spaced range
(``{"log_range": {"start": 500, "stop": 4000, "count": 7}}`` in JSON,
:func:`log_spaced_periods` in code) — the shape the paper's period
discussion (§4) calls for: error curves over orders of magnitude, not
single points.  ``periods: null`` means "each workload's default round
base period", which reduces a campaign to the tables' configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import SweepError
from repro.core.experiment import DEFAULT_MACHINES, CellSpec
from repro.core.methods import METHOD_KEYS
from repro.cpu.uarch import get_uarch
from repro.workloads.registry import get_workload

#: On-disk spec document version.
SPEC_VERSION = 1


def log_spaced_periods(start: int, stop: int, count: int) -> tuple[int, ...]:
    """``count`` log-spaced integer periods from ``start`` to ``stop``.

    Endpoints are included exactly; interior points are rounded to the
    nearest integer and deduplicated (so tight ranges may yield fewer than
    ``count`` values).  Methods that want prime periods still prime-ify
    these bases themselves (:func:`repro.core.methods.resolve_method`).
    """
    if start < 2 or stop < start:
        raise SweepError(
            f"invalid period range [{start}, {stop}] (need 2 <= start <= stop)"
        )
    if count < 1:
        raise SweepError(f"period count must be >= 1, got {count}")
    if count == 1 or start == stop:
        return (start,) if start == stop else (start, stop)
    ratio = (stop / start) ** (1.0 / (count - 1))
    values: list[int] = []
    for i in range(count):
        value = round(start * ratio**i)
        if not values or value != values[-1]:
            values.append(value)
    values[-1] = stop
    return tuple(dict.fromkeys(values))


@dataclass(frozen=True)
class SweepPoint:
    """One evaluable point of a campaign: a cell plus its repeat count.

    ``cell`` always carries an explicit period (expansion resolves
    defaults), so the point is a complete, order-independent address —
    ``point_id`` is the journal key.
    """

    cell: CellSpec
    repeats: int

    @property
    def point_id(self) -> str:
        return f"{self.cell}x{self.repeats}"

    def __str__(self) -> str:
        return self.point_id


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative description of one experiment campaign."""

    name: str
    workloads: tuple[str, ...]
    methods: tuple[str, ...]
    machines: tuple[str, ...] = DEFAULT_MACHINES
    #: Base (round) sampling periods; ``None`` = each workload's default.
    periods: tuple[int, ...] | None = None
    #: Seeded-repeat counts to run each cell at (seed-convergence axis).
    seed_counts: tuple[int, ...] = (5,)
    seed_base: int = 100
    scale: float = 1.0
    #: Score consumer-outcome fidelity (DESIGN.md §11) for every cell in
    #: addition to accuracy.  Off by default; enabling it changes the
    #: campaign digest (fidelity-bearing journals are a different campaign).
    fidelity: bool = False
    #: Hot-block set size for the fidelity ordering scores.
    fidelity_top_n: int = 10

    def __post_init__(self) -> None:
        # Normalize lists to tuples so specs hash and compare by value.
        for name in ("workloads", "methods", "machines", "seed_counts"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if not getattr(self, name):
                raise SweepError(f"campaign {self.name!r}: empty {name}")
        if self.periods is not None and not isinstance(self.periods, tuple):
            object.__setattr__(self, "periods", tuple(self.periods))
        for workload in self.workloads:
            get_workload(workload)          # raises WorkloadError if unknown
        for machine in self.machines:
            get_uarch(machine)              # raises PMUConfigError if unknown
        unknown = [m for m in self.methods if m not in METHOD_KEYS]
        if unknown:
            raise SweepError(
                f"campaign {self.name!r}: unknown methods {unknown} "
                f"(known: {', '.join(METHOD_KEYS)})"
            )
        if self.periods is not None:
            if not self.periods:
                raise SweepError(f"campaign {self.name!r}: empty periods")
            bad = [p for p in self.periods if not isinstance(p, int) or p < 2]
            if bad:
                raise SweepError(
                    f"campaign {self.name!r}: periods must be ints >= 2, "
                    f"got {bad}"
                )
        bad_counts = [c for c in self.seed_counts
                      if not isinstance(c, int) or c < 1]
        if bad_counts:
            raise SweepError(
                f"campaign {self.name!r}: seed_counts must be ints >= 1, "
                f"got {bad_counts}"
            )
        if self.scale <= 0:
            raise SweepError(
                f"campaign {self.name!r}: scale must be positive"
            )
        if not isinstance(self.fidelity, bool):
            raise SweepError(
                f"campaign {self.name!r}: fidelity must be a boolean"
            )
        if (not isinstance(self.fidelity_top_n, int)
                or isinstance(self.fidelity_top_n, bool)
                or self.fidelity_top_n < 1):
            raise SweepError(
                f"campaign {self.name!r}: fidelity_top_n must be a "
                f"positive integer"
            )

    # -- expansion ---------------------------------------------------------

    def periods_for(self, workload: str) -> tuple[int, ...]:
        """The period axis of one workload (explicit or its default)."""
        if self.periods is not None:
            return self.periods
        return (get_workload(workload).default_period,)

    def expand(self) -> list[SweepPoint]:
        """The campaign's full cross product, in deterministic order.

        Workload-major (so the scheduler shares each trace across all of a
        workload's cells), then period, machine, method, repeats — the
        order reports and journals are keyed to.
        """
        return [
            SweepPoint(CellSpec(machine, workload, method, period), repeats)
            for workload in self.workloads
            for period in self.periods_for(workload)
            for machine in self.machines
            for method in self.methods
            for repeats in self.seed_counts
        ]

    @property
    def num_points(self) -> int:
        workload_periods = sum(
            len(self.periods_for(w)) for w in self.workloads
        )
        return (workload_periods * len(self.machines)
                * len(self.methods) * len(self.seed_counts))

    @property
    def max_repeats(self) -> int:
        """The deepest seed count — the primary axis for summaries."""
        return max(self.seed_counts)

    # -- round trip --------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        document: dict[str, object] = {
            "version": SPEC_VERSION,
            "name": self.name,
            "workloads": list(self.workloads),
            "methods": list(self.methods),
            "machines": list(self.machines),
            "periods": None if self.periods is None else list(self.periods),
            "seed_counts": list(self.seed_counts),
            "seed_base": self.seed_base,
            "scale": self.scale,
        }
        # Fidelity is additive: campaigns that never asked for it keep
        # their documents and digests byte-identical.
        if self.fidelity:
            document["fidelity"] = True
        if self.fidelity_top_n != 10:
            document["fidelity_top_n"] = self.fidelity_top_n
        return document

    @classmethod
    def from_dict(cls, document: dict[str, object]) -> "CampaignSpec":
        version = document.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SweepError(f"unsupported campaign spec version {version!r}")
        periods = document.get("periods")
        if isinstance(periods, dict):
            if set(periods) != {"log_range"}:
                raise SweepError(
                    f"period axis dict must be {{'log_range': ...}}, "
                    f"got keys {sorted(periods)}"
                )
            rng = periods["log_range"]
            periods = log_spaced_periods(
                int(rng["start"]), int(rng["stop"]), int(rng["count"])
            )
        try:
            return cls(
                name=str(document["name"]),
                workloads=tuple(document["workloads"]),
                methods=tuple(document["methods"]),
                machines=tuple(document.get("machines") or DEFAULT_MACHINES),
                periods=None if periods is None else tuple(periods),
                seed_counts=tuple(document.get("seed_counts") or (5,)),
                seed_base=int(document.get("seed_base", 100)),
                scale=float(document.get("scale", 1.0)),
                fidelity=bool(document.get("fidelity", False)),
                fidelity_top_n=int(document.get("fidelity_top_n", 10)),
            )
        except KeyError as exc:
            raise SweepError(f"campaign spec missing field {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Atomically write the spec as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.to_json(), encoding="utf-8")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- identity ----------------------------------------------------------

    def digest(self) -> str:
        """Canonical SHA-256 of everything that determines the results.

        The name is included (a campaign's identity is its spec file);
        expansion order is a function of the digested fields, so equal
        digests imply cell-for-cell identical campaigns.
        """
        text = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def with_(self, **changes: object) -> "CampaignSpec":
        """A modified copy (convenience over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

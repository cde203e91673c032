"""Assembly and rendering of the paper's tables.

* **Table 1** — accuracy errors of every sampling method on the four
  kernels, per machine (lower is better).
* **Table 2** — errors per machine/application.
* **Table 3** — the descriptive method catalogue (rendered from
  :data:`repro.core.methods.METHODS`).

Cells the paper leaves blank (method not implementable on the machine, e.g.
LBR on Magny-Cours) render as ``--``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import span
from repro.obs.log import get_logger
from repro.core.experiment import CellSpec, Harness
from repro.core.methods import METHODS
from repro.core.parallel import evaluate_cells, plan_cells
from repro.core.stats import AccuracyStats
from repro.pmu.periods import next_prime
from repro.workloads.registry import APP_NAMES, KERNEL_NAMES

#: Table 3 method order (the paper's ladder, left to right).
TABLE_METHOD_KEYS: tuple[str, ...] = (
    "classic",
    "precise",
    "precise_rand",
    "precise_prime",
    "precise_prime_rand",
    "pdir_fix",
    "lbr",
)


@dataclass
class TableResult:
    """A rendered-friendly grid of accuracy statistics."""

    title: str
    row_labels: list[tuple[str, str]]          # (machine, workload)
    column_labels: list[str]                   # method keys
    cells: dict[CellSpec, AccuracyStats | None] = field(
        default_factory=dict
    )

    def get(
        self, machine: str, workload: str, method: str
    ) -> AccuracyStats | None:
        """Look a cell up ignoring the period.

        Cells are keyed by :class:`CellSpec`; this scans for the first spec
        matching (machine, workload, method), which is unique in tables
        built by this module (one period per workload).
        """
        wanted = (machine, workload, method)
        for key, stats in self.cells.items():
            if (key.machine, key.workload, key.method) == wanted:
                return stats
        return None

    def _cell_text(self, machine: str, workload: str, method: str) -> str:
        stats = self.get(machine, workload, method)
        if stats is None:
            return "--"
        return f"{stats.mean_error:.3f}"

    def render(self) -> str:
        """Fixed-width text rendering (the shape of the paper's tables)."""
        label_w = max(
            len(f"{m}/{w}") for m, w in self.row_labels
        ) + 2
        col_w = max(12, max(len(c) for c in self.column_labels) + 2)
        lines = [self.title]
        header = " " * label_w + "".join(
            c.rjust(col_w) for c in self.column_labels
        )
        lines.append(header)
        lines.append("-" * len(header))
        for machine, workload in self.row_labels:
            row = f"{machine}/{workload}".ljust(label_w)
            row += "".join(
                self._cell_text(machine, workload, c).rjust(col_w)
                for c in self.column_labels
            )
            lines.append(row)
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavored markdown rendering."""
        lines = [f"**{self.title}**", ""]
        lines.append(
            "| machine/workload | " + " | ".join(self.column_labels) + " |"
        )
        lines.append("|---" * (len(self.column_labels) + 1) + "|")
        for machine, workload in self.row_labels:
            cells = " | ".join(
                self._cell_text(machine, workload, c)
                for c in self.column_labels
            )
            lines.append(f"| {machine}/{workload} | {cells} |")
        return "\n".join(lines)

    def to_rows(self) -> list[dict[str, object]]:
        """Flat records (machine, workload, method, mean, std) for export."""
        rows: list[dict[str, object]] = []
        for machine, workload in self.row_labels:
            for method in self.column_labels:
                stats = self.get(machine, workload, method)
                rows.append({
                    "machine": machine,
                    "workload": workload,
                    "method": method,
                    "mean_error": None if stats is None else stats.mean_error,
                    "std_error": None if stats is None else stats.std_error,
                    "repeats": None if stats is None else stats.repeats,
                })
        return rows


def _build_table(
    harness: Harness,
    title: str,
    workloads: tuple[str, ...],
    methods: tuple[str, ...],
    jobs: int = 1,
    abort: Callable[[], bool] | None = None,
) -> TableResult:
    machines = harness.config.machines
    result = TableResult(
        title=title,
        row_labels=[(m, w) for w in workloads for m in machines],
        column_labels=list(methods),
    )
    progress = get_logger("progress")
    live = progress.isEnabledFor(logging.INFO)
    specs = plan_cells(harness.config, workloads, methods, harness=harness)

    def on_result(spec, scores, seconds, done, total):
        if live:
            progress.info(
                "[%3d/%d] %s/%s/%s  %s  (%.2fs)",
                done, total, spec.machine, spec.workload, spec.method,
                "--" if scores.stats is None else scores.stats, seconds,
            )

    with span("table", title=title, cells=len(specs), jobs=jobs):
        evaluated = evaluate_cells(
            harness.config, specs, jobs=jobs, cache=harness.cache,
            harness=harness, on_result=on_result, abort=abort,
        )
    # Fill in plan order so serial and parallel builds are bit-identical,
    # whatever order workers completed in.
    for spec in specs:
        result.cells[spec] = evaluated[spec].stats
    return result


def build_table1(
    harness: Harness,
    methods: tuple[str, ...] = TABLE_METHOD_KEYS,
    workloads: tuple[str, ...] = KERNEL_NAMES,
    jobs: int = 1,
    abort: Callable[[], bool] | None = None,
) -> TableResult:
    """Table 1: sampling-method errors on the kernels (lower is better)."""
    return _build_table(
        harness,
        "Table 1: kernel accuracy errors (lower is better)",
        workloads,
        methods,
        jobs=jobs,
        abort=abort,
    )


def build_table2(
    harness: Harness,
    methods: tuple[str, ...] = TABLE_METHOD_KEYS,
    workloads: tuple[str, ...] = APP_NAMES,
    jobs: int = 1,
    abort: Callable[[], bool] | None = None,
) -> TableResult:
    """Table 2: errors per machine/application (lower is better)."""
    return _build_table(
        harness,
        "Table 2: application accuracy errors (lower is better)",
        workloads,
        methods,
        jobs=jobs,
        abort=abort,
    )


def render_table3(base_period: int = 2_000_000) -> str:
    """Table 3: the reviewed sampling methods (descriptive).

    ``base_period`` is used to show example period values the way the paper
    does (2,000,000 vs 2,000,003).
    """
    lines = ["Table 3: overview of reviewed sampling methods", ""]
    for spec in METHODS:
        if not spec.in_table3:
            continue
        period = next_prime(base_period) if spec.prime_period else base_period
        period_kind = "prime" if spec.prime_period else "round"
        rand = "yes" if spec.randomize else "no"
        lines.append(f"{spec.title}")
        lines.append(f"  key:          {spec.key}")
        lines.append(f"  period:       {period:,} ({period_kind})")
        lines.append(f"  randomized:   {rand}")
        lines.append(f"  attribution:  {spec.attribution.value}")
        lines.append(f"  comments:     {spec.comments}")
        lines.append(f"  drawbacks:    {spec.drawbacks}")
        lines.append("")
    return "\n".join(lines)

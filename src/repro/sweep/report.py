"""Figure-style campaign reports: markdown, CSV, and the versioned document.

A campaign's deliverables mirror what the paper would have plotted:

* ``report.md`` — the human-facing report: campaign header, the pooled
  method × period summary with bootstrap confidence intervals, and two
  "figures" rendered as aligned ASCII bar charts (markdown code blocks):
  period sensitivity per method and seed convergence per method,
* ``summary.csv`` / ``period_sensitivity.csv`` / ``seed_convergence.csv``
  — the same aggregates as flat records for plotting tools,
* ``campaign.json`` — the machine-readable document with raw per-seed
  errors (written by the engine; this module only reads results).

Everything here is a pure function of the :class:`CampaignResult`, so a
resumed campaign re-renders byte-identical reports — the acceptance
criterion of the resume feature.  A :class:`CampaignReport` computes each
aggregate once and renders every file from it: the aggregates' bootstrap
intervals are nearly all of a report's cost.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.obs import write_atomic
from repro.sweep.aggregate import (
    CurvePoint,
    fidelity_summary,
    period_curves,
    seed_convergence,
    summarize,
)
from repro.sweep.engine import CampaignResult

#: Width (characters) of the ASCII bars in figure blocks.
BAR_WIDTH = 32


def _bar(value: float, maximum: float, width: int = BAR_WIDTH) -> str:
    """A left-aligned ASCII bar scaled against ``maximum``."""
    if maximum <= 0:
        return ""
    filled = round(width * min(value / maximum, 1.0))
    return "#" * filled


def _figure_block(curves: dict[str, list[CurvePoint]], x_label: str) -> str:
    """Render per-method curves as an aligned ASCII chart."""
    peak = max(
        (pt.ci.mean for pts in curves.values() for pt in pts), default=0.0
    )
    lines: list[str] = []
    for method, pts in curves.items():
        lines.append(f"{method}")
        for pt in pts:
            lines.append(
                f"  {x_label} {pt.x:>8,}  err {pt.ci.mean:8.4f} "
                f"[{pt.ci.lo:.4f}, {pt.ci.hi:.4f}]  "
                f"|{_bar(pt.ci.mean, peak):<{BAR_WIDTH}}|"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def _csv_text(header: list[str], records: list[list[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buffer.getvalue()


class CampaignReport:
    """Every report file of one campaign, rendered from aggregates
    computed once per report."""

    def __init__(self, result: CampaignResult) -> None:
        self.result = result
        self.summary = summarize(result)
        self.fidelity = fidelity_summary(result)
        self.periods = period_curves(self.summary)
        self.seeds = seed_convergence(result)

    def markdown(self) -> str:
        """The full markdown report (``report.md``)."""
        result = self.result
        spec = result.spec
        lines = [
            f"# Campaign report: {spec.name}",
            "",
            f"- spec digest: `{spec.digest()}`",
            f"- scale {spec.scale}, seed base {spec.seed_base}, "
            f"seed counts {list(spec.seed_counts)}",
            f"- workloads: {', '.join(spec.workloads)}",
            f"- machines: {', '.join(spec.machines)}",
            f"- methods: {', '.join(spec.methods)}",
            "- periods: "
            + ("per-workload defaults" if spec.periods is None
               else ", ".join(f"{p:,}" for p in spec.periods)),
            f"- cells: {result.num_points} "
            f"({result.num_blank} blank: method unavailable on machine)",
            "",
            "## Summary — mean err(x) with 95% bootstrap CI "
            f"(pooled at {spec.max_repeats} seeds)",
            "",
            "| method | period | mean err | 95% CI | cells |",
            "|---|---|---|---|---|",
        ]
        for row in self.summary:
            lines.append(
                f"| {row.method} | {row.period:,} | {row.ci.mean:.4f} "
                f"| [{row.ci.lo:.4f}, {row.ci.hi:.4f}] | {row.cells} |"
            )
        if result.has_fidelity:
            lines += [
                "",
                "## Consumer fidelity — mean scores with 95% bootstrap CI "
                f"(top-{spec.fidelity_top_n} blocks, "
                f"pooled at {spec.max_repeats} seeds)",
                "",
                "| method | period | jaccard | rank | inline | layout "
                "| converged | samples to converge |",
                "|---|---|---|---|---|---|---|---|",
            ]
            for row in self.fidelity:
                samples = (
                    "—" if row.convergence is None
                    else f"{row.convergence.mean:.0f} "
                         f"[{row.convergence.lo:.0f}, "
                         f"{row.convergence.hi:.0f}]"
                )
                lines.append(
                    f"| {row.method} | {row.period:,} "
                    f"| {row.jaccard.mean:.4f} | {row.rank.mean:.4f} "
                    f"| {row.inline.mean:.4f} | {row.layout.mean:.4f} "
                    f"| {row.converged}/{row.repeats} | {samples} |"
                )
        lines += [
            "",
            "## Figure 1 — period sensitivity (err vs base period, per "
            "method)",
            "",
            "```",
            _figure_block(self.periods, "period"),
            "```",
            "",
            "## Figure 2 — seed convergence (err CI vs seeded repeats,"
            " per method)",
            "",
            "```",
            _figure_block(self.seeds, "seeds"),
            "```",
            "",
        ]
        return "\n".join(lines)

    def summary_csv(self) -> str:
        return _csv_text(
            ["method", "period", "mean_err", "ci_lo", "ci_hi", "cells",
             "samples"],
            [[r.method, r.period, f"{r.ci.mean:.6f}", f"{r.ci.lo:.6f}",
              f"{r.ci.hi:.6f}", r.cells, r.ci.samples]
             for r in self.summary],
        )

    def period_sensitivity_csv(self) -> str:
        return _csv_text(
            ["method", "period", "mean_err", "ci_lo", "ci_hi"],
            [[method, pt.x, f"{pt.ci.mean:.6f}", f"{pt.ci.lo:.6f}",
              f"{pt.ci.hi:.6f}"]
             for method, pts in self.periods.items()
             for pt in pts],
        )

    def seed_convergence_csv(self) -> str:
        return _csv_text(
            ["method", "seeds", "mean_err", "ci_lo", "ci_hi",
             "ci_half_width"],
            [[method, pt.x, f"{pt.ci.mean:.6f}", f"{pt.ci.lo:.6f}",
              f"{pt.ci.hi:.6f}", f"{pt.ci.half_width:.6f}"]
             for method, pts in self.seeds.items()
             for pt in pts],
        )

    def fidelity_csv(self) -> str:
        records: list[list[object]] = []
        for r in self.fidelity:
            records.append([
                r.method, r.period,
                f"{r.jaccard.mean:.6f}", f"{r.jaccard.lo:.6f}",
                f"{r.jaccard.hi:.6f}",
                f"{r.rank.mean:.6f}", f"{r.inline.mean:.6f}",
                f"{r.layout.mean:.6f}",
                r.converged, r.repeats,
                "" if r.convergence is None
                else f"{r.convergence.mean:.1f}",
                r.cells,
            ])
        return _csv_text(
            ["method", "period", "jaccard", "jaccard_ci_lo", "jaccard_ci_hi",
             "rank", "inline", "layout", "converged", "repeats",
             "mean_samples_to_converge", "cells"],
            records,
        )


def render_markdown(result: CampaignResult) -> str:
    """The full markdown report of one campaign."""
    return CampaignReport(result).markdown()


def write_reports(result: CampaignResult, out_dir: str | Path) -> list[Path]:
    """Write report.md plus the CSVs into ``out_dir``; returns paths.

    ``fidelity.csv`` appears only for fidelity-bearing campaigns, so the
    artifact set (and every byte of it) of plain campaigns is unchanged.
    """
    out_dir = Path(out_dir)
    report = CampaignReport(result)
    paths = [
        write_atomic(out_dir / "report.md", report.markdown()),
        write_atomic(out_dir / "summary.csv", report.summary_csv()),
        write_atomic(out_dir / "period_sensitivity.csv",
                      report.period_sensitivity_csv()),
        write_atomic(out_dir / "seed_convergence.csv",
                      report.seed_convergence_csv()),
    ]
    if result.has_fidelity:
        paths.append(
            write_atomic(out_dir / "fidelity.csv", report.fidelity_csv())
        )
    return paths

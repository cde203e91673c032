"""Unit tests for markdown/CSV campaign reports."""

import csv
import io

from repro.sweep import (
    fidelity_summary,
    render_markdown,
    summarize,
    write_reports,
)
from repro.sweep.report import CampaignReport


def test_markdown_report_structure(tiny_result):
    text = render_markdown(tiny_result)
    spec = tiny_result.spec
    assert f"# Campaign report: {spec.name}" in text
    assert spec.digest() in text
    assert "| method | period | mean err | 95% CI | cells |" in text
    assert "## Figure 1 — period sensitivity" in text
    assert "## Figure 2 — seed convergence" in text
    for method in spec.methods:
        assert f"| {method} |" in text
    # Figure bars are present and bounded.
    assert "|#" in text


def test_rendering_is_deterministic(tiny_result):
    assert render_markdown(tiny_result) == render_markdown(tiny_result)
    assert CampaignReport(tiny_result).summary_csv() \
        == CampaignReport(tiny_result).summary_csv()


def test_summary_csv_matches_aggregates(tiny_result):
    rows = list(csv.DictReader(
        io.StringIO(CampaignReport(tiny_result).summary_csv())
    ))
    summary = summarize(tiny_result)
    assert len(rows) == len(summary)
    for row, expected in zip(rows, summary):
        assert row["method"] == expected.method
        assert int(row["period"]) == expected.period
        assert float(row["mean_err"]) == round(expected.ci.mean, 6)
        assert float(row["ci_lo"]) <= float(row["mean_err"]) \
            <= float(row["ci_hi"])


def test_curve_csvs_have_expected_axes(tiny_result):
    spec = tiny_result.spec
    periods = list(csv.DictReader(
        io.StringIO(CampaignReport(tiny_result).period_sensitivity_csv())
    ))
    assert {int(r["period"]) for r in periods} == set(spec.periods)
    seeds = list(csv.DictReader(
        io.StringIO(CampaignReport(tiny_result).seed_convergence_csv())
    ))
    assert {int(r["seeds"]) for r in seeds} == set(spec.seed_counts)
    assert all(float(r["ci_half_width"]) >= 0 for r in seeds)


def test_write_reports_creates_all_files(tiny_result, tmp_path):
    paths = write_reports(tiny_result, tmp_path)
    assert [p.name for p in paths] == [
        "report.md", "summary.csv", "period_sensitivity.csv",
        "seed_convergence.csv",
    ]
    for path in paths:
        assert path.read_text().strip()


def test_plain_campaign_report_has_no_fidelity_trace(tiny_result):
    """Plain campaigns' report bytes must stay exactly as before the
    fidelity subsystem existed."""
    assert not tiny_result.has_fidelity
    assert "fidelity" not in render_markdown(tiny_result).lower()


def test_fidelity_report_section_and_csv(fidelity_campaign, tmp_path):
    spec, result, _ = fidelity_campaign
    assert result.has_fidelity

    text = render_markdown(result)
    assert "## Consumer fidelity" in text
    assert f"top-{spec.fidelity_top_n} blocks" in text
    for method in spec.methods:
        assert f"| {method} |" in text

    paths = write_reports(result, tmp_path)
    assert [p.name for p in paths][-1] == "fidelity.csv"
    rows = list(csv.DictReader(
        io.StringIO(CampaignReport(result).fidelity_csv())
    ))
    assert {r["method"] for r in rows} == set(spec.methods)
    for row in rows:
        for field in ("jaccard", "rank", "inline", "layout"):
            assert 0.0 <= float(row[field]) <= 1.0
        assert float(row["jaccard_ci_lo"]) <= float(row["jaccard"]) \
            <= float(row["jaccard_ci_hi"])
        assert int(row["converged"]) <= int(row["repeats"])


def test_fidelity_report_is_deterministic(fidelity_campaign):
    _, result, _ = fidelity_campaign
    assert render_markdown(result) == render_markdown(result)
    assert CampaignReport(result).fidelity_csv() \
        == CampaignReport(result).fidelity_csv()


def test_fidelity_summary_pools_per_seed_scores(fidelity_campaign):
    spec, result, _ = fidelity_campaign
    rows = fidelity_summary(result)
    assert [r.method for r in rows] == list(spec.methods)
    for row in rows:
        assert row.jaccard.samples == spec.max_repeats * row.cells
        assert row.jaccard.lo <= row.jaccard.mean <= row.jaccard.hi

"""Unit tests for table assembly and rendering."""

import pytest

from repro.core.experiment import ExperimentConfig, Harness
from repro.core.tables import (
    TABLE_METHOD_KEYS,
    build_table1,
    build_table2,
    render_table3,
)


@pytest.fixture(scope="module")
def harness():
    return Harness(ExperimentConfig(scale=0.01, repeats=1))


@pytest.fixture(scope="module")
def small_table1(harness):
    return build_table1(
        harness,
        methods=("classic", "precise", "lbr"),
        workloads=("latency_biased",),
    )


def test_table1_structure(small_table1):
    assert small_table1.column_labels == ["classic", "precise", "lbr"]
    machines = {m for m, _ in small_table1.row_labels}
    assert machines == {"magnycours", "westmere", "ivybridge"}


def test_blank_cells_for_unavailable_methods(small_table1):
    assert small_table1.get("magnycours", "latency_biased", "lbr") is None
    assert small_table1.get("westmere", "latency_biased", "lbr") is not None


def test_render_contains_all_rows(small_table1):
    text = small_table1.render()
    for machine, workload in small_table1.row_labels:
        assert f"{machine}/{workload}" in text
    assert "--" in text  # the AMD LBR blank


def test_markdown_render(small_table1):
    md = small_table1.to_markdown()
    assert md.count("|---") == len(small_table1.column_labels) + 1
    assert "magnycours/latency_biased" in md


def test_to_rows_flat_export(small_table1):
    rows = small_table1.to_rows()
    assert len(rows) == 3 * 3  # machines x methods for one workload
    blank = [r for r in rows
             if r["machine"] == "magnycours" and r["method"] == "lbr"]
    assert blank[0]["mean_error"] is None


def test_table2_uses_app_workloads(harness):
    table = build_table2(
        harness, methods=("classic",), workloads=("mcf",)
    )
    assert all(w == "mcf" for _, w in table.row_labels)
    assert table.get("ivybridge", "mcf", "classic") is not None


def test_get_ignores_period():
    from repro.core.experiment import CellSpec
    from repro.core.stats import AccuracyStats
    from repro.core.tables import TableResult

    table = TableResult(title="clean", row_labels=[("ivybridge", "mcf")],
                        column_labels=["classic", "precise"])
    classic = AccuracyStats(method="classic", errors=(0.3,))
    precise = AccuracyStats(method="precise", errors=(0.4,))
    table.cells[CellSpec("ivybridge", "mcf", "classic", 500)] = classic
    table.cells[CellSpec("ivybridge", "mcf", "precise", 2000)] = precise
    assert table.get("ivybridge", "mcf", "classic") is classic
    assert table.get("ivybridge", "mcf", "precise") is precise
    assert table.get("westmere", "mcf", "classic") is None


def test_table3_render_mentions_paper_values():
    text = render_table3()
    assert "2,000,003" in text
    assert "2,000,000" in text
    # All seven Table 3 rows.
    for key in TABLE_METHOD_KEYS:
        assert key in text
    # The supplemental method is not a Table 3 row.
    assert "precise_fix" not in text

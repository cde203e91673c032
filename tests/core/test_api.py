"""Smoke tests for the stable ``repro.api`` facade."""

import pytest

import repro
from repro import api
from repro.core.tables import TableResult

CONFIG = api.ExperimentConfig(scale=0.01, repeats=1)


def test_facade_is_exported_from_the_top_level_package():
    assert repro.api is api
    for name in ("run_table1", "run_table2", "evaluate_cell",
                 "load_table", "save_table", "CellSpec", "ArtifactCache"):
        assert name in dir(repro)
    assert "run_table1" in repro.__all__
    assert repro.run_table1 is api.run_table1


def test_run_table1_smoke():
    table = api.run_table1(CONFIG, methods=("classic",),
                           workloads=("latency_biased",))
    assert isinstance(table, TableResult)
    assert table.get("ivybridge", "latency_biased", "classic") is not None


def test_run_table2_smoke():
    table = api.run_table2(CONFIG, methods=("classic",), workloads=("mcf",))
    assert table.get("ivybridge", "mcf", "classic") is not None


def test_evaluate_cell_smoke():
    stats = api.evaluate_cell(
        api.CellSpec("ivybridge", "latency_biased", "precise"), CONFIG
    )
    assert stats is not None
    assert stats.repeats == 1
    # Blank cell: no LBR on AMD.
    assert api.evaluate_cell(
        api.CellSpec("magnycours", "latency_biased", "lbr"), CONFIG
    ) is None


def test_run_table1_accepts_cache_paths(tmp_path):
    table = api.run_table1(CONFIG, cache=tmp_path, methods=("classic",),
                           workloads=("latency_biased",))
    again = api.run_table1(CONFIG, cache=str(tmp_path), methods=("classic",),
                           workloads=("latency_biased",))
    assert again.cells == table.cells
    assert api.ArtifactCache(tmp_path).stats().entries > 0


def test_save_and_load_table_round_trip(tmp_path):
    table = api.run_table1(CONFIG, methods=("classic", "lbr"),
                           workloads=("latency_biased",))
    path = api.save_table(table, tmp_path / "table1.json")
    loaded = api.load_table(path)
    assert loaded.title == table.title
    assert loaded.row_labels == table.row_labels
    assert loaded.column_labels == table.column_labels
    assert loaded.cells == table.cells           # per-seed errors preserved
    assert loaded.render() == table.render()


def test_run_campaign_facade(tmp_path):
    spec = api.CampaignSpec(
        name="facade-smoke", workloads=("latency_biased",),
        methods=("classic",), machines=("ivybridge",),
        periods=(100,), seed_counts=(1,), scale=0.01,
    )
    out = tmp_path / "camp"
    result = api.run_campaign(spec, out, cache=tmp_path / "cache")
    assert result.num_points == 1
    assert (out / "report.md").exists()
    assert api.load_campaign(out).to_document() == result.to_document()
    assert api.ArtifactCache(tmp_path / "cache").stats().entries > 0
    # A spec file path works too, and --resume finishes instantly.
    again = api.run_campaign(out / "spec.json", out, resume=True)
    assert again.to_document() == result.to_document()
    for name in ("CampaignSpec", "run_campaign", "load_campaign"):
        assert name in repro.__all__


def test_save_and_load_table_preserve_nan_and_inf_errors(tmp_path):
    import math

    from repro import AccuracyStats

    table = TableResult(title="degenerate",
                        row_labels=[("ivybridge", "mcf")],
                        column_labels=["classic"])
    spec = api.CellSpec("ivybridge", "mcf", "classic", 500)
    table.cells[spec] = AccuracyStats(
        method="classic", errors=(0.25, float("nan"), float("inf")),
    )
    loaded = api.load_table(api.save_table(table, tmp_path / "t.json"))
    errors = loaded.cells[spec].errors
    assert errors[0] == 0.25
    assert math.isnan(errors[1])
    assert math.isinf(errors[2]) and errors[2] > 0


def test_load_table_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": 999, "title": "x", "cells": []}')
    with pytest.raises(ValueError, match="format"):
        api.load_table(path)


# -- versioned request API ---------------------------------------------------


def test_evaluate_request_round_trip_and_resolution():
    request = api.EvaluateRequest(machine="ivybridge", workload="mcf",
                                  method="classic", scale=0.01, repeats=1)
    document = request.to_dict()
    assert document["schema_version"] == api.API_SCHEMA_VERSION
    assert document["period"] is None
    assert api.EvaluateRequest.from_dict(document) == request

    resolved = request.resolved()
    assert resolved.period == 500                 # mcf's default period
    assert resolved.spec() == api.CellSpec("ivybridge", "mcf", "classic", 500)
    assert resolved.config() == api.ExperimentConfig(scale=0.01, repeats=1)


def test_evaluate_request_rejections():
    from repro.errors import RequestError

    good = {"machine": "ivybridge", "workload": "mcf", "method": "classic"}
    cases = [
        {},                                            # missing everything
        dict(good, extra=1),                           # unknown field
        dict(good, machine="z80"),                     # unknown machine
        dict(good, workload="nope"),                   # unknown workload
        dict(good, method="nope"),                     # unknown method
        dict(good, repeats=0),                         # bad repeats
        dict(good, repeats=True),                      # bool is not an int
        dict(good, scale=-1.0),                        # bad scale
        dict(good, period=0),                          # bad period
        dict(good, engine="fast"),                     # no engine option
        dict(good, schema_version=api.API_SCHEMA_VERSION + 1),
    ]
    for document in cases:
        with pytest.raises(RequestError):
            api.EvaluateRequest.from_dict(document)
    with pytest.raises(RequestError, match="JSON object"):
        api.EvaluateRequest.from_dict("not a dict")


def test_evaluate_request_and_cell_agree():
    spec = api.CellSpec("ivybridge", "latency_biased", "precise")
    request = api.EvaluateRequest.from_spec(spec, CONFIG)
    result = api.evaluate_request(request)
    assert not result.blank
    assert result.stats == api.evaluate_cell(spec, CONFIG)


def test_evaluate_result_document_round_trip():
    request = api.EvaluateRequest(machine="ivybridge",
                                  workload="latency_biased",
                                  method="precise", scale=0.01, repeats=1)
    result = api.evaluate_request(request)
    document = result.to_dict()
    assert document["schema_version"] == api.API_SCHEMA_VERSION
    assert document["blank"] is False
    assert document["stats"]["repeats"] == 1
    loaded = api.EvaluateResult.from_dict(document)
    assert loaded.stats == result.stats
    assert loaded.to_json() == result.to_json()
    # Canonical form: sorted keys, compact separators, one trailing newline.
    assert result.to_json().endswith("\n")
    assert '": ' not in result.to_json()


def test_evaluate_result_blank_for_unavailable_method():
    request = api.EvaluateRequest(machine="magnycours", workload="mcf",
                                  method="lbr", scale=0.01, repeats=1)
    result = api.evaluate_request(request)
    assert result.blank
    assert result.stats is None
    assert result.to_dict()["stats"] is None
    loaded = api.EvaluateResult.from_dict(result.to_dict())
    assert loaded.blank and loaded.stats is None


def test_request_api_exported_from_top_level():
    for name in ("API_SCHEMA_VERSION", "EvaluateRequest", "EvaluateResult",
                 "evaluate_request", "RequestError", "ServeError",
                 "EvaluationAborted"):
        assert name in repro.__all__
        assert hasattr(repro, name)


# -- fidelity on the request API ---------------------------------------------


def test_request_without_fidelity_keeps_old_wire_bytes():
    """fidelity=False (the default) must leave requests, results, and their
    JSON exactly as they were before the fidelity fields existed."""
    request = api.EvaluateRequest(machine="ivybridge", workload="mcf",
                                  method="classic", scale=0.01, repeats=1)
    document = request.to_dict()
    assert "fidelity" not in document
    assert "fidelity_top_n" not in document

    result = api.evaluate_request(request)
    assert result.fidelity is None
    assert "fidelity" not in result.to_dict()
    assert "fidelity" not in result.to_json()


def test_request_with_fidelity_round_trips():
    request = api.EvaluateRequest(machine="westmere", workload="phased",
                                  method="classic", scale=0.03, repeats=2,
                                  fidelity=True, fidelity_top_n=5)
    document = request.to_dict()
    assert document["fidelity"] is True
    assert document["fidelity_top_n"] == 5
    assert api.EvaluateRequest.from_dict(document) == request

    result = api.evaluate_request(request)
    assert result.fidelity is not None
    assert result.fidelity.top_n == 5
    assert result.fidelity.repeats == 2
    loaded = api.EvaluateResult.from_dict(result.to_dict())
    assert loaded.fidelity == result.fidelity
    assert loaded.to_json() == result.to_json()


def test_fidelity_request_rejections():
    from repro.errors import RequestError

    good = {"machine": "ivybridge", "workload": "mcf", "method": "classic"}
    for document in (
        dict(good, fidelity="yes"),                   # not a bool
        dict(good, fidelity_top_n=0),                 # not positive
        dict(good, fidelity_top_n=True),              # bool is not an int
    ):
        with pytest.raises(RequestError):
            api.EvaluateRequest.from_dict(document)


def test_fidelity_blank_cell_stays_blank():
    request = api.EvaluateRequest(machine="magnycours", workload="mcf",
                                  method="lbr", scale=0.01, repeats=1,
                                  fidelity=True)
    result = api.evaluate_request(request)
    assert result.blank and result.fidelity is None


def test_run_fidelity_exported_from_top_level():
    for name in ("FidelityStats", "run_fidelity"):
        assert name in api.__all__
        assert hasattr(api, name)

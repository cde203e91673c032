"""Unit tests for the serve wire shapes: transport split and TableRequest."""

import pytest

from repro.api import API_SCHEMA_VERSION
from repro.errors import RequestError
from repro.serve import TableRequest, Transport, split_transport


def test_split_transport_defaults_to_waiting():
    payload, transport = split_transport({"machine": "ivybridge"})
    assert payload == {"machine": "ivybridge"}
    assert transport == Transport(wait=True, deadline_s=None)


def test_split_transport_pops_transport_fields():
    payload, transport = split_transport(
        {"machine": "ivybridge", "wait": False, "deadline_s": 2.5}
    )
    assert payload == {"machine": "ivybridge"}          # payload stays clean
    assert transport.wait is False
    assert transport.deadline_s == 2.5


def test_split_transport_rejects_bad_bodies():
    with pytest.raises(RequestError, match="JSON object"):
        split_transport([1, 2, 3])
    with pytest.raises(RequestError, match="wait"):
        split_transport({"wait": "yes"})
    for bad in (0, -1, "2", True, float("inf"), float("nan")):
        with pytest.raises(RequestError, match="deadline_s"):
            split_transport({"deadline_s": bad})


def test_resolve_deadline_precedence():
    assert Transport(wait=True).resolve_deadline(30.0) == 30.0
    assert Transport(wait=False).resolve_deadline(30.0) is None
    assert Transport(wait=True, deadline_s=5.0).resolve_deadline(30.0) == 5.0
    assert Transport(wait=False, deadline_s=5.0).resolve_deadline(30.0) == 5.0


def test_table_request_round_trip():
    request = TableRequest(table=2, scale=0.5, repeats=3, seed_base=7,
                           methods=("classic", "lbr"), workloads=("mcf",))
    document = request.to_dict()
    assert document["schema_version"] == API_SCHEMA_VERSION
    assert document["methods"] == ["classic", "lbr"]
    assert TableRequest.from_dict(document) == request


def test_table_request_defaults_and_list_coercion():
    request = TableRequest.from_dict({"table": 1, "methods": ["classic"]})
    assert request.scale == 1.0
    assert request.repeats == 5
    assert request.methods == ("classic",)
    assert request.workloads is None
    assert request.schema_version == API_SCHEMA_VERSION


def test_table_request_rejections():
    with pytest.raises(RequestError, match="JSON object"):
        TableRequest.from_dict("table 1")
    with pytest.raises(RequestError, match="missing"):
        TableRequest.from_dict({})
    with pytest.raises(RequestError, match="unknown request field"):
        TableRequest.from_dict({"table": 1, "machine": "ivybridge"})
    with pytest.raises(RequestError, match="unknown request field"):
        TableRequest.from_dict({"table": 1, "engine": "fast"})
    with pytest.raises(RequestError, match="table must be 1 or 2"):
        TableRequest.from_dict({"table": 3})
    with pytest.raises(RequestError, match="scale"):
        TableRequest.from_dict({"table": 1, "scale": -1.0})
    with pytest.raises(RequestError, match="repeats"):
        TableRequest.from_dict({"table": 1, "repeats": 0})
    with pytest.raises(RequestError, match="list of strings"):
        TableRequest.from_dict({"table": 1, "methods": [1, 2]})
    with pytest.raises(RequestError, match="schema_version"):
        TableRequest.from_dict({"table": 1,
                                "schema_version": API_SCHEMA_VERSION + 1})
    with pytest.raises(RequestError):
        TableRequest.from_dict({"table": 1, "methods": ["no_such_method"]})
    with pytest.raises(RequestError):
        TableRequest.from_dict({"table": 1, "workloads": ["no_such_load"]})

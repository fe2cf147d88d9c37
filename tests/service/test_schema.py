"""Tests for repro.service.schema: request validation and projection."""

import json

import pytest

from repro.core.database import CoverageDatabase
from repro.core.estimator import FaultCoverageEstimator
from repro.core.records import CoverageRecord
from repro.memory.geometry import MemoryGeometry
from repro.service.schema import (
    MAX_QUERIES,
    BatchRequest,
    EstimateQuery,
    RequestError,
    error_document,
    parse_request,
    report_document,
)


def rec(kind, r, cond, detected, total=100):
    return CoverageRecord(kind, r, cond, 1.8, 1e-7, detected, total)


def body(queries):
    return json.dumps({"queries": queries}).encode()


GOOD_QUERY = {"geometry": {"rows": 8, "columns": 2, "bits_per_word": 4}}


class TestParseRequest:
    def test_minimal_query_fills_defaults(self):
        request = parse_request(body([GOOD_QUERY]))
        (query,) = request.queries
        assert query.geometry == MemoryGeometry(8, 2, 4)
        assert query.kind == "bridge"
        assert query.conditions is None
        assert query.yield_fraction is None

    def test_full_query(self):
        request = parse_request(body([{
            "geometry": {"rows": 8, "columns": 2, "bits_per_word": 4,
                         "blocks": 2},
            "kind": "open",
            "conditions": ["VLV", "Vmax"],
            "yield_fraction": 0.9,
        }]))
        (query,) = request.queries
        assert query.geometry.blocks == 2
        assert query.kind == "open"
        assert query.conditions == ("VLV", "Vmax")
        assert query.yield_fraction == 0.9

    def test_order_preserved(self):
        queries = [{"geometry": {"rows": r, "columns": 2,
                                 "bits_per_word": 4}}
                   for r in (32, 8, 16)]
        request = parse_request(body(queries))
        assert [q.geometry.rows for q in request.queries] == [32, 8, 16]

    @pytest.mark.parametrize("raw,code", [
        (b"{not json", "bad-json"),
        (b"\xff\xfe", "bad-json"),
        (b"[1, 2]", "not-an-object"),
        (b"{}", "missing-queries"),
        (b'{"queries": 5}', "missing-queries"),
        (b'{"queries": []}', "empty-queries"),
        (b'{"queries": [{"geometry": {"rows": 1, "columns": 1, '
         b'"bits_per_word": 1}}], "extra": 1}', "not-an-object"),
    ])
    def test_top_level_defects(self, raw, code):
        with pytest.raises(RequestError) as info:
            parse_request(raw)
        assert info.value.code == code
        assert info.value.status == 400

    def test_too_many_queries(self):
        with pytest.raises(RequestError) as info:
            parse_request(body([GOOD_QUERY] * (MAX_QUERIES + 1)))
        assert info.value.code == "too-many-queries"

    @pytest.mark.parametrize("query,code", [
        ("not-an-object", "bad-query"),
        ({**GOOD_QUERY, "mystery": 1}, "bad-query"),
        ({}, "bad-geometry"),
        ({"geometry": [8, 2, 4]}, "bad-geometry"),
        ({"geometry": {"rows": 8, "columns": 2}}, "bad-geometry"),
        ({"geometry": {"rows": 0, "columns": 2, "bits_per_word": 4}},
         "bad-geometry"),
        ({"geometry": {"rows": 8.5, "columns": 2, "bits_per_word": 4}},
         "bad-geometry"),
        ({"geometry": {"rows": 8, "columns": 2, "bits_per_word": 4,
                       "depth": 3}}, "bad-geometry"),
        ({**GOOD_QUERY, "kind": "stuck"}, "bad-kind"),
        ({**GOOD_QUERY, "conditions": []}, "bad-conditions"),
        ({**GOOD_QUERY, "conditions": "VLV"}, "bad-conditions"),
        ({**GOOD_QUERY, "conditions": [1]}, "bad-conditions"),
        ({**GOOD_QUERY, "yield_fraction": 0.0}, "bad-yield"),
        ({**GOOD_QUERY, "yield_fraction": 1.5}, "bad-yield"),
        ({**GOOD_QUERY, "yield_fraction": True}, "bad-yield"),
    ])
    def test_query_defects_name_the_entry(self, query, code):
        with pytest.raises(RequestError) as info:
            parse_request(body([GOOD_QUERY, query]))
        assert info.value.code == code
        assert "queries[1]" in info.value.detail

    def test_error_str_carries_code(self):
        with pytest.raises(RequestError, match="bad-kind"):
            parse_request(body([{**GOOD_QUERY, "kind": "nope"}]))


class TestCanonicalBody:
    def test_key_order_and_defaults_collapse(self):
        """Spelling differences share one cache identity."""
        sparse = parse_request(body([GOOD_QUERY]))
        explicit = parse_request(json.dumps({"queries": [{
            "kind": "bridge",
            "conditions": None,
            "yield_fraction": None,
            "geometry": {"blocks": 1, "bits_per_word": 4,
                         "columns": 2, "rows": 8},
        }]}).encode())
        assert sparse.canonical_body() == explicit.canonical_body()

    def test_distinct_requests_distinct_bodies(self):
        a = parse_request(body([GOOD_QUERY]))
        b = parse_request(body([{**GOOD_QUERY, "kind": "open"}]))
        assert a.canonical_body() != b.canonical_body()

    def test_canonical_body_is_deterministic(self):
        query = EstimateQuery(MemoryGeometry(8, 2, 4))
        request = BatchRequest((query,))
        assert request.canonical_body() == request.canonical_body()


class TestReportDocument:
    @pytest.fixture
    def report(self):
        db = CoverageDatabase([rec("bridge", 1e2, "VLV", 100),
                               rec("bridge", 1e4, "VLV", 90),
                               rec("bridge", 1e2, "Vmax", 80),
                               rec("bridge", 1e4, "Vmax", 40)])
        return FaultCoverageEstimator(db).estimate(
            MemoryGeometry(8, 2, 4), "bridge")

    def test_projection_shape(self, report):
        doc = report_document(report)
        assert doc["kind"] == "bridge"
        assert doc["geometry"] == {"rows": 8, "columns": 2,
                                   "bits_per_word": 4, "blocks": 1}
        assert [e["condition"] for e in doc["estimates"]] == [
            "VLV", "Vmax"]
        assert doc["estimates"][0]["fault_coverage"] == [
            [1e2, 1.0], [1e4, 0.9]]

    def test_condition_filter_reorders(self, report):
        doc = report_document(report, ("Vmax", "VLV"))
        assert [e["condition"] for e in doc["estimates"]] == [
            "Vmax", "VLV"]

    def test_filter_keeps_full_suite_normalisation(self, report):
        """dpm_normalised stays pinned to the whole suite's best."""
        doc = report_document(report, ("Vmax",))
        full = report_document(report)
        assert (doc["estimates"][0]["dpm_normalised"]
                == full["estimates"][1]["dpm_normalised"])

    def test_unknown_condition_is_404(self, report):
        with pytest.raises(RequestError) as info:
            report_document(report, ("VLV", "Vhuge"))
        assert info.value.code == "unknown-condition"
        assert info.value.status == 404
        assert "'Vhuge'" in info.value.detail

    def test_json_serialisable(self, report):
        json.dumps(report_document(report))


class TestErrorDocument:
    def test_shape(self):
        assert error_document("bad-kind", "nope") == {
            "error": {"code": "bad-kind", "detail": "nope"}}

"""Tests for repro.service.app dispatch: identity, cache, hot reload."""

import json

import pytest

from repro.core.database import CoverageDatabase
from repro.core.records import CoverageRecord
from repro.memory.geometry import MemoryGeometry
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.runner.atomic import canonical_json
from repro.service.app import EstimatorService
from repro.service.schema import batch_response_document, report_document
from repro.service.state import DatabaseSnapshot, ServiceState


def rec(kind, r, cond, detected, total=100):
    return CoverageRecord(kind, r, cond, 1.8, 1e-7, detected, total)


def database_v1():
    return CoverageDatabase([rec("bridge", 1e2, "VLV", 100),
                             rec("bridge", 1e4, "VLV", 90),
                             rec("bridge", 1e2, "Vmax", 80),
                             rec("bridge", 1e4, "Vmax", 40)])


def database_v2():
    return CoverageDatabase([rec("bridge", 1e2, "VLV", 95),
                             rec("bridge", 1e4, "VLV", 70)])


def estimate_body(rows=8, kind="bridge", **extra):
    query = {"geometry": {"rows": rows, "columns": 2,
                          "bits_per_word": 4}, "kind": kind, **extra}
    return json.dumps({"queries": [query]}).encode()


@pytest.fixture
def db_path(tmp_path):
    path = tmp_path / "coverage.json"
    database_v1().save(path)
    return path


@pytest.fixture
def service(db_path):
    return EstimatorService(
        ServiceState(DatabaseSnapshot.load(db_path), db_path),
        bus=EventBus(), metrics=MetricsRegistry())


class TestEstimate:
    def test_byte_identical_to_in_process_estimator(self, service):
        response = service.dispatch("POST", "/v1/estimate",
                                    estimate_body())
        snapshot = service.state.snapshot
        report = snapshot.estimator.estimate(MemoryGeometry(8, 2, 4),
                                             "bridge")
        expected = batch_response_document(
            snapshot.etag, [report_document(report)])
        assert response.status == 200
        assert response.body == (canonical_json(expected) + "\n").encode()

    def test_batch_preserves_query_order(self, service):
        queries = [{"geometry": {"rows": r, "columns": 2,
                                 "bits_per_word": 4}}
                   for r in (32, 8)]
        response = service.dispatch(
            "POST", "/v1/estimate",
            json.dumps({"queries": queries}).encode())
        doc = json.loads(response.body)
        assert [r["geometry"]["rows"] for r in doc["results"]] == [32, 8]

    def test_etag_header_quotes_fingerprint(self, service):
        response = service.dispatch("POST", "/v1/estimate",
                                    estimate_body())
        etag = service.state.snapshot.etag
        assert response.headers["ETag"] == f'"{etag}"'

    def test_miss_then_hit_byte_identical(self, service):
        first = service.dispatch("POST", "/v1/estimate", estimate_body())
        second = service.dispatch("POST", "/v1/estimate", estimate_body())
        assert first.headers["X-Cache"] == "miss"
        assert second.headers["X-Cache"] == "hit"
        assert first.body == second.body

    def test_equivalent_spellings_share_entry(self, service):
        sparse = estimate_body()
        explicit = json.dumps({"queries": [{
            "kind": "bridge", "yield_fraction": None, "conditions": None,
            "geometry": {"blocks": 1, "bits_per_word": 4, "columns": 2,
                         "rows": 8}}]}).encode()
        service.dispatch("POST", "/v1/estimate", sparse)
        response = service.dispatch("POST", "/v1/estimate", explicit)
        assert response.headers["X-Cache"] == "hit"

    def test_schema_defect_is_named_400(self, service):
        response = service.dispatch("POST", "/v1/estimate", b"{nope")
        assert response.status == 400
        assert json.loads(response.body)["error"]["code"] == "bad-json"

    def test_absent_kind_is_404(self, service):
        response = service.dispatch("POST", "/v1/estimate",
                                    estimate_body(kind="open"))
        assert response.status == 404
        doc = json.loads(response.body)
        assert doc["error"]["code"] == "unknown-kind"
        assert "no records for kind='open'" in doc["error"]["detail"]

    def test_unknown_condition_is_404_and_uncached(self, service):
        body = estimate_body(conditions=["Vhuge"])
        response = service.dispatch("POST", "/v1/estimate", body)
        assert response.status == 404
        assert (json.loads(response.body)["error"]["code"]
                == "unknown-condition")
        assert len(service.cache) == 0

    def test_underflowing_yield_is_named_400_and_journalled(self, service):
        # Valid, but the Poisson yield of 6.4e16 bits underflows to 0.0.
        huge = {"geometry": {"rows": 10**9, "columns": 10**6,
                             "bits_per_word": 64}}
        small = {"geometry": {"rows": 8, "columns": 2, "bits_per_word": 4}}
        response = service.dispatch(
            "POST", "/v1/estimate",
            json.dumps({"queries": [small, huge]}).encode())
        assert response.status == 400
        error = json.loads(response.body)["error"]
        assert error["code"] == "bad-yield"
        assert error["detail"].startswith("queries[1]: ")
        assert "got 0.0" in error["detail"]
        assert len(service.cache) == 0
        (event,) = [e for e in service.bus.events
                    if e.name == "service.request"]
        assert event.data == {"method": "POST", "path": "/v1/estimate",
                              "status": 400, "queries": 2,
                              "cached": False}
        # An explicit yield answers the same geometry.
        huge["yield_fraction"] = 0.5
        response = service.dispatch(
            "POST", "/v1/estimate", json.dumps({"queries": [huge]}).encode())
        assert response.status == 200

    def test_errors_are_not_cached(self, service):
        service.dispatch("POST", "/v1/estimate", b"{nope")
        response = service.dispatch("POST", "/v1/estimate", b"{nope")
        assert "X-Cache" not in response.headers


class TestRouting:
    def test_unknown_path_404(self, service):
        response = service.dispatch("GET", "/v2/estimate", b"")
        assert response.status == 404
        assert json.loads(response.body)["error"]["code"] == "not-found"

    def test_wrong_method_405_names_allowed(self, service):
        response = service.dispatch("GET", "/v1/estimate", b"")
        assert response.status == 405
        assert response.headers["Allow"] == "POST"
        response = service.dispatch("POST", "/v1/health", b"")
        assert response.status == 405
        assert response.headers["Allow"] == "GET"

    def test_health_document(self, service):
        response = service.dispatch("GET", "/v1/health", b"")
        doc = json.loads(response.body)
        assert doc["status"] == "ok"
        assert doc["etag"] == service.state.snapshot.etag
        assert doc["generation"] == 1
        assert doc["records"] == 4
        assert doc["kinds"] == ["bridge"]
        assert doc["cache"]["entries"] == 0


class TestHotReload:
    def test_unchanged_file_keeps_snapshot(self, service):
        before = service.state.snapshot
        response = service.dispatch("POST", "/v1/reload", b"")
        assert response.status == 200
        assert json.loads(response.body)["outcome"] == "unchanged"
        assert service.state.snapshot is before

    def test_reload_swaps_snapshot_and_bumps_generation(
            self, service, db_path):
        database_v2().save(db_path)
        response = service.dispatch("POST", "/v1/reload", b"")
        doc = json.loads(response.body)
        assert doc["outcome"] == "reloaded"
        assert doc["etag"] == service.state.snapshot.etag
        assert service.state.snapshot.generation == 2
        assert len(service.state.snapshot.database) == 2

    def test_reload_leaves_zero_reachable_stale_entries(
            self, service, db_path):
        """The fingerprint-keyed cache makes a swap invalidate
        everything implicitly: the same request re-misses and serves
        the new database's answer."""
        body = estimate_body()
        before = service.dispatch("POST", "/v1/estimate", body)
        assert service.dispatch("POST", "/v1/estimate",
                                body).headers["X-Cache"] == "hit"
        database_v2().save(db_path)
        service.dispatch("POST", "/v1/reload", b"")
        after = service.dispatch("POST", "/v1/estimate", body)
        assert after.headers["X-Cache"] == "miss"
        assert after.body != before.body
        assert (json.loads(after.body)["etag"]
                == service.state.snapshot.etag)

    def test_corrupt_candidate_rejected_without_downtime(
            self, service, db_path):
        before = service.dispatch("POST", "/v1/estimate",
                                  estimate_body())
        db_path.write_text("{torn")
        response = service.dispatch("POST", "/v1/reload", b"")
        doc = json.loads(response.body)
        assert response.status == 409
        assert doc["outcome"] == "rejected"
        assert str(db_path) in doc["error"]
        assert service.state.snapshot.generation == 1
        after = service.dispatch("POST", "/v1/estimate", estimate_body())
        assert after.status == 200
        assert after.body == before.body

    def test_missing_candidate_rejected(self, service, db_path):
        db_path.unlink()
        response = service.dispatch("POST", "/v1/reload", b"")
        assert response.status == 409

    def test_no_path_rejects_reload(self):
        state = ServiceState(
            DatabaseSnapshot.from_database(database_v1()))
        response = EstimatorService(state).dispatch(
            "POST", "/v1/reload", b"")
        assert response.status == 409
        assert "no reloadable" in json.loads(response.body)["error"]


class TestObservability:
    def test_request_events_carry_status_and_cached(self, service):
        service.dispatch("POST", "/v1/estimate", estimate_body())
        service.dispatch("POST", "/v1/estimate", estimate_body())
        service.dispatch("POST", "/v1/estimate", b"{nope")
        requests = [e for e in service.bus.events
                    if e.name == "service.request"]
        assert [e.data["status"] for e in requests] == [200, 200, 400]
        assert [e.data["cached"] for e in requests] == [
            False, True, False]
        assert requests[0].data["queries"] == 1

    def test_cache_hit_event_names_key(self, service):
        service.dispatch("POST", "/v1/estimate", estimate_body())
        service.dispatch("POST", "/v1/estimate", estimate_body())
        (hit,) = [e for e in service.bus.events
                  if e.name == "service.cache_hit"]
        assert len(hit.data["key"]) == 64

    def test_reload_event_carries_outcome(self, service, db_path):
        db_path.write_text("{torn")
        service.dispatch("POST", "/v1/reload", b"")
        (reload_event,) = [e for e in service.bus.events
                           if e.name == "service.reload"]
        assert reload_event.data["outcome"] == "rejected"
        assert str(db_path) in reload_event.data["error"]

    def test_metrics_counters(self, service):
        service.dispatch("POST", "/v1/estimate", estimate_body())
        service.dispatch("POST", "/v1/estimate", estimate_body())
        service.dispatch("POST", "/v1/reload", b"")
        counters = service.metrics.snapshot()["counters"]
        assert counters["service.request"] == 3
        assert counters["service.cache_miss"] == 1
        assert counters["service.cache_hit"] == 1
        assert counters["service.reload.unchanged"] == 1

    def test_cache_disabled_never_hits(self, db_path):
        service = EstimatorService(
            ServiceState(DatabaseSnapshot.load(db_path), db_path),
            cache_size=0)
        service.dispatch("POST", "/v1/estimate", estimate_body())
        response = service.dispatch("POST", "/v1/estimate",
                                    estimate_body())
        assert response.headers["X-Cache"] == "miss"

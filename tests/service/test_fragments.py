"""Tests for the estimate miss path rendered from per-snapshot fragments.

Every body the service renders on a cache miss must equal, byte for
byte, the canonical JSON of :func:`report_document` over the in-process
:meth:`FaultCoverageEstimator.estimate` call -- the documents the
service built before it spliced fragments.  :func:`oracle_response`
is that document path.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.app
import repro.service.schema
from repro.core.database import CoverageDatabase, default_database_path
from repro.core.records import CoverageRecord
from repro.runner.atomic import canonical_json
from repro.service.app import EstimatorService
from repro.service.schema import (
    EstimateFragments,
    RequestError,
    batch_response_document,
    error_document,
    parse_request,
    report_document,
)
from repro.service.state import DatabaseSnapshot, ServiceState


def oracle_response(snapshot, body):
    """``(status, body)`` of a miss, rendered from the documents."""
    try:
        results = []
        for query in parse_request(body).queries:
            try:
                report = snapshot.estimator.estimate(
                    query.geometry, query.kind,
                    yield_fraction=query.yield_fraction)
            except KeyError as exc:
                raise RequestError("unknown-kind", str(exc.args[0]),
                                   status=404) from exc
            results.append(report_document(report, query.conditions))
        doc = batch_response_document(snapshot.etag, results)
        status = 200
    except RequestError as exc:
        doc = error_document(exc.code, exc.detail)
        status = exc.status
    return status, canonical_json(doc).encode("utf-8") + b"\n"


@functools.cache
def default_snapshot():
    return DatabaseSnapshot.load(default_database_path())


def fresh_service(snapshot):
    """A service with an empty cache over ``snapshot``."""
    return EstimatorService(ServiceState(snapshot), cache_size=0)


def query(kind="bridge", rows=512, columns=8, bits=8, blocks=1, **extra):
    return {"geometry": {"rows": rows, "columns": columns,
                         "bits_per_word": bits, "blocks": blocks},
            "kind": kind, **extra}


def body_of(*queries):
    return json.dumps({"queries": list(queries)}).encode()


def assert_matches_oracle(snapshot, body, status=200):
    response = fresh_service(snapshot).dispatch("POST", "/v1/estimate",
                                                body)
    assert (response.status, response.body) == oracle_response(snapshot,
                                                                body)
    assert response.status == status
    return response


def rec(kind, r, cond, detected, total=100):
    return CoverageRecord(kind, r, cond, 1.8, 1e-7, detected, total)


class TestIdentity:
    def test_both_kinds(self):
        assert_matches_oracle(default_snapshot(), body_of(
            query("bridge"), query("open", rows=64, blocks=4)))

    def test_reordered_subset(self):
        snapshot = default_snapshot()
        bridge = snapshot.database.conditions("bridge")
        opens = snapshot.database.conditions("open")
        subset = [bridge[-1], bridge[0]]
        response = assert_matches_oracle(snapshot, body_of(
            query("bridge", conditions=subset),
            query("open", conditions=[opens[2], opens[0], opens[2]])))
        names = [e["condition"] for e in
                 json.loads(response.body)["results"][0]["estimates"]]
        assert names == subset

    def test_unit_yield_is_zero_dpm_normalised_to_one(self):
        response = assert_matches_oracle(default_snapshot(), body_of(
            query("bridge", yield_fraction=1.0),
            query("open", yield_fraction=1)))
        for result in json.loads(response.body)["results"]:
            assert result["yield_fraction"] == 1.0
            for estimate in result["estimates"]:
                assert estimate["dpm"] == 0.0
                assert estimate["dpm_normalised"] == 1.0

    def test_zero_best_dpm_renders_infinity(self):
        snapshot = DatabaseSnapshot.from_database(CoverageDatabase([
            rec("bridge", 1e3, "VLV", 100),
            rec("bridge", 1e3, "Vmax", 60)]))
        response = assert_matches_oracle(snapshot, body_of(
            query("bridge", rows=8, columns=2, bits=4)))
        assert b'"dpm_normalised":Infinity' in response.body
        assert b'"dpm_normalised":1.0' in response.body

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["bridge", "open"]),
                  st.integers(1, 1 << 14), st.integers(1, 1 << 10),
                  st.integers(1, 128), st.integers(1, 16),
                  st.one_of(st.none(),
                            st.floats(1e-12, 1.0, exclude_min=True)),
                  st.randoms(use_true_random=False)),
        min_size=1, max_size=4))
    def test_random_queries(self, specs):
        snapshot = default_snapshot()
        queries = []
        for kind, rows, columns, bits, blocks, y, rnd in specs:
            q = query(kind, rows, columns, bits, blocks)
            if y is not None:
                q["yield_fraction"] = y
            if rnd.random() < 0.5:
                names = snapshot.database.conditions(kind)
                q["conditions"] = rnd.sample(
                    names, rnd.randint(1, len(names)))
            queries.append(q)
        assert_matches_oracle(snapshot, body_of(*queries))


class TestErrors:
    @pytest.fixture
    def bridge_only(self):
        return DatabaseSnapshot.from_database(CoverageDatabase([
            rec("bridge", 1e2, "VLV", 100), rec("bridge", 1e4, "VLV", 90),
            rec("bridge", 1e2, "Vmax", 80), rec("bridge", 1e4, "Vmax", 40)]))

    def test_unknown_condition_404_body(self, bridge_only):
        response = assert_matches_oracle(bridge_only, body_of(
            query("bridge", conditions=["Vmax", "Vhuge", "Vtiny"])),
            status=404)
        assert response.body == (
            b'{"error":{"code":"unknown-condition","detail":"condition(s) '
            b"'Vhuge', 'Vtiny' not in the database suite ['VLV', 'Vmax'] "
            b"for kind='bridge'\"}}\n")

    def test_unknown_kind_404_body(self, bridge_only):
        response = assert_matches_oracle(bridge_only, body_of(
            query("bridge"), query("open")), status=404)
        assert response.body == (
            b'{"error":{"code":"unknown-kind","detail":"no records for '
            b"kind='open'; available kinds: ['bridge']\"}}\n")

    def test_first_failing_query_names_the_error(self, bridge_only):
        assert_matches_oracle(bridge_only, body_of(
            query("open"), query("bridge", conditions=["Vhuge"])),
            status=404)
        assert_matches_oracle(bridge_only, body_of(
            query("bridge", conditions=["Vhuge"]), query("open")),
            status=404)


def two_kind_database(detected):
    return CoverageDatabase([
        rec(kind, r, cond, detected - i * 10)
        for kind in ("bridge", "open")
        for r in (1e2, 1e4)
        for i, cond in enumerate(("VLV", "Vmax", "Vnom"))])


class TestStructure:
    """Fragments are built once per (snapshot, kind); a miss re-encodes
    no coverage column."""

    @pytest.fixture
    def builds(self, monkeypatch):
        kinds = []
        build = EstimateFragments.build

        def counting(kind, table):
            kinds.append(kind)
            return build(kind, table)

        monkeypatch.setattr(EstimateFragments, "build",
                            staticmethod(counting))
        return kinds

    def test_each_kind_built_once_per_snapshot(self, tmp_path, builds):
        path = tmp_path / "coverage.json"
        two_kind_database(100).save(path)
        service = EstimatorService(
            ServiceState(DatabaseSnapshot.load(path), path))
        bodies = [body_of(query("bridge", rows=n), query("open", rows=n))
                  for n in range(1, 101)]
        first = [service.dispatch("POST", "/v1/estimate", b)
                 for b in bodies[:50]]
        two_kind_database(90).save(path)
        assert json.loads(service.dispatch(
            "POST", "/v1/reload", b"").body)["outcome"] == "reloaded"
        second = [service.dispatch("POST", "/v1/estimate", b)
                  for b in bodies[50:]]
        assert sorted(builds) == ["bridge", "bridge", "open", "open"]
        assert all(r.headers["X-Cache"] == "miss" for r in first + second)
        etags = []
        for responses in (first, second):
            (etag,) = {json.loads(r.body)["etag"] for r in responses}
            assert {r.headers["ETag"] for r in responses} == {f'"{etag}"'}
            etags.append(etag)
        assert etags[0] != etags[1] == service.state.snapshot.etag
        for b, response in zip(bodies[50:], second):
            assert (response.status, response.body) == oracle_response(
                service.state.snapshot, b)

    def test_miss_encodes_no_fault_coverage(self, monkeypatch):
        snapshot = DatabaseSnapshot.from_database(two_kind_database(100))
        service = fresh_service(snapshot)
        encoded = []

        def recording(body):
            encoded.append(body)
            return canonical_json(body)

        for module in (repro.service.schema, repro.service.app):
            monkeypatch.setattr(module, "canonical_json", recording)

        def coverage_encodes():
            return sum("fault_coverage" in body for body in encoded
                       if isinstance(body, dict))

        service.dispatch("POST", "/v1/estimate",
                         body_of(query("bridge"), query("open")))
        assert coverage_encodes() == 6   # the fragments' first build
        encoded.clear()
        for n in range(1, 21):
            response = service.dispatch(
                "POST", "/v1/estimate",
                body_of(query("bridge", rows=n), query("open", rows=n)))
            assert response.headers["X-Cache"] == "miss"
        assert coverage_encodes() == 0
        assert encoded   # the cache key still goes through it

"""Estimator output pinned byte for byte, and its per-database tables.

:class:`~repro.core.estimator.FaultCoverageEstimator` integrates the
geometry-independent part of a report (fault coverage per R, defect
coverage, relative coverage) once per (database, kind, distribution) and
reuses it for every query.  The golden digest pins the canonical JSON of
the reports over the shipped database, so any change to that arithmetic
-- or to its order -- shows up as a digest mismatch.  The other tests
check that the memoised rows follow the records and never leak between
estimators, reports or reloaded snapshots.
"""

import hashlib
import json
import random

import pytest

from repro.core.database import CoverageDatabase, load_default_database
from repro.core.estimator import FaultCoverageEstimator
from repro.defects.distribution import (
    LognormalComponent,
    ResistanceDistribution,
)
from repro.ifa.flow import CoverageRecord
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.runner.atomic import canonical_json
from repro.service.app import EstimatorService
from repro.service.schema import report_document
from repro.service.state import DatabaseSnapshot, ServiceState

#: SHA-256 of :func:`_golden_documents` rendered as canonical JSON.
#: Regenerate (only for a deliberate change to the estimator's numbers,
#: named with its reason in CHANGES.md) with::
#:
#:   PYTHONPATH=src:. python -c "from tests.core.test_estimator_tables \
#:   import golden_digest; print(golden_digest())"
GOLDEN_DIGEST = (
    "e74ed3b6ebacead236428660a2246d2d07ca3fd039c68e29ca49207b29a3ac15")


def _golden_queries() -> list[tuple[MemoryGeometry, str, float | None]]:
    """200 seeded geometries x both kinds, Veqtor4, two explicit yields."""
    rng = random.Random(2005)
    queries: list[tuple[MemoryGeometry, str, float | None]] = []
    for _ in range(200):
        geometry = MemoryGeometry(rows=rng.randint(1, 4096),
                                  columns=rng.randint(1, 64),
                                  bits_per_word=rng.randint(1, 128),
                                  blocks=rng.randint(1, 8))
        queries += [(geometry, "bridge", None), (geometry, "open", None)]
    for kind in ("bridge", "open"):
        queries.append((VEQTOR4_INSTANCE, kind, None))
        for yield_fraction in (0.5, 0.987654321):
            queries.append((VEQTOR4_INSTANCE, kind, yield_fraction))
    return queries


def _golden_documents() -> list[dict]:
    estimator = FaultCoverageEstimator(load_default_database())
    return [report_document(estimator.estimate(g, kind, yield_fraction=y))
            for g, kind, y in _golden_queries()]


def golden_digest() -> str:
    """SHA-256 of the canonical JSON of every golden report document."""
    text = canonical_json(_golden_documents())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_digest_of_estimator_output():
    assert golden_digest() == GOLDEN_DIGEST


def rec(kind, r, cond, detected, total=100):
    return CoverageRecord(kind, r, cond, 1.8, 1e-7, detected, total)


RECORDS_V1 = [rec("bridge", 1e2, "VLV", 100), rec("bridge", 1e4, "VLV", 90),
              rec("bridge", 1e2, "Vmax", 80), rec("bridge", 1e4, "Vmax", 40)]
RECORDS_V2 = [rec("bridge", 1e2, "VLV", 95), rec("bridge", 1e4, "VLV", 70),
              rec("bridge", 1e3, "Vmin", 60)]
GEOMETRY = MemoryGeometry(rows=64, columns=4, bits_per_word=8)


def high_ohmic_distribution():
    return ResistanceDistribution([LognormalComponent(1.0, 5e3, 0.5)],
                                  name="high-ohmic")


class TestCoverageTable:
    def test_add_records_invalidates_table(self):
        database = CoverageDatabase(RECORDS_V1)
        estimator = FaultCoverageEstimator(database)
        before = estimator.estimate(GEOMETRY)
        database.add_records(RECORDS_V2)
        after = estimator.estimate(GEOMETRY)
        fresh = FaultCoverageEstimator(
            CoverageDatabase(RECORDS_V1 + RECORDS_V2)).estimate(GEOMETRY)
        assert after == fresh
        assert after != before

    def test_distributions_do_not_share_rows(self):
        database = CoverageDatabase(RECORDS_V1)
        default = FaultCoverageEstimator(database)
        custom = FaultCoverageEstimator(
            database, bridge_distribution=high_ohmic_distribution())
        first = default.estimate(GEOMETRY)
        second = custom.estimate(GEOMETRY)
        assert second == FaultCoverageEstimator(
            CoverageDatabase(RECORDS_V1),
            bridge_distribution=high_ohmic_distribution(),
        ).estimate(GEOMETRY)
        assert (second.by_condition("Vmax").defect_coverage
                < first.by_condition("Vmax").defect_coverage)
        assert default.estimate(GEOMETRY) == first

    def test_each_report_owns_its_fault_coverage(self):
        estimator = FaultCoverageEstimator(CoverageDatabase(RECORDS_V1))
        first = estimator.estimate(GEOMETRY)
        pristine = dict(first.by_condition("VLV").fault_coverage)
        first.by_condition("VLV").fault_coverage[1e2] = -1.0
        first.by_condition("VLV").fault_coverage.clear()
        assert estimator.estimate(GEOMETRY).by_condition(
            "VLV").fault_coverage == pristine

    def test_table_rows_match_scalar_integrals(self):
        database = load_default_database()
        estimator = FaultCoverageEstimator(database)
        for kind, dist in (("bridge", estimator.bridge_distribution),
                           ("open", estimator.open_distribution)):
            table = database.coverage_table(kind, dist)
            envelope = database.envelope_coverage(kind, dist)
            assert [row.condition for row in table] == \
                database.conditions(kind)
            for row in table:
                dc = database.weighted_coverage(kind, row.condition, dist)
                assert row.defect_coverage == dc
                assert row.relative_coverage == dc / envelope
                assert row.fault_coverage == tuple(
                    (r, database.coverage(kind, row.condition, r))
                    for r in database.resistances(kind))

    def test_absent_kind_raises_keyerror(self):
        database = CoverageDatabase(RECORDS_V1)
        with pytest.raises(KeyError, match="kind='open'"):
            database.coverage_table("open", high_ohmic_distribution())

    def test_reload_answers_from_new_records(self, tmp_path):
        path = tmp_path / "coverage.json"
        CoverageDatabase(RECORDS_V1).save(path)
        service = EstimatorService(
            ServiceState(DatabaseSnapshot.load(path), path))
        body = json.dumps({"queries": [{"geometry": {
            "rows": 64, "columns": 4, "bits_per_word": 8}}]}).encode()
        old = json.loads(service.dispatch("POST", "/v1/estimate",
                                          body).body)
        CoverageDatabase(RECORDS_V2).save(path)
        reload = service.dispatch("POST", "/v1/reload", b"")
        assert json.loads(reload.body)["outcome"] == "reloaded"
        new = json.loads(service.dispatch("POST", "/v1/estimate",
                                          body).body)
        expected = report_document(FaultCoverageEstimator(
            CoverageDatabase(RECORDS_V2)).estimate(GEOMETRY))
        assert new["results"] == [expected]
        assert new["results"] != old["results"]

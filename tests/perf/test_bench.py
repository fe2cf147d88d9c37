"""Tests for the benchmark harness: document shape and validation."""

import json

import pytest

from repro.perf.bench import (
    BENCH_SCHEMA,
    BenchConfig,
    SiteLatencyBehaviorModel,
    run_benchmark,
    validate_bench,
)


@pytest.fixture(scope="module")
def bench_doc():
    """One quick benchmark run shared by the shape tests."""
    return run_benchmark(BenchConfig.quick())


class TestSiteLatencyModel:
    def test_delegates_to_inner(self):
        class Fake:
            def fails_condition(self, defect, condition):
                return True

        model = SiteLatencyBehaviorModel(Fake(), latency=0.0)
        assert model.fails_condition(None, None) is True

    def test_is_fingerprintable(self):
        from repro.circuit.technology import CMOS018
        from repro.defects.behavior import DefectBehaviorModel
        from repro.perf.fingerprint import behavior_fingerprint
        from repro.runner.atomic import canonical_json

        inner = DefectBehaviorModel(CMOS018)
        a = behavior_fingerprint(SiteLatencyBehaviorModel(inner, 0.001))
        b = behavior_fingerprint(inner)
        assert canonical_json(a) != canonical_json(b)


class TestBenchDocument:
    def test_schema_valid(self, bench_doc):
        assert validate_bench(bench_doc) == []

    def test_headline_fields(self, bench_doc):
        assert bench_doc["schema"] == BENCH_SCHEMA
        assert bench_doc["cache_hit_rate"] == 1.0
        assert bench_doc["speedup_parallel"] > 0
        assert bench_doc["workloads"]["cpu"][
            "supervised_matches_serial"] is True

    def test_round_trips_through_json(self, bench_doc):
        assert validate_bench(json.loads(json.dumps(bench_doc))) == []


class TestWorkerClamp:
    """The cpu-bound workload never oversubscribes the host's cores."""

    def test_cpu_workers_clamped_to_visible_cpus(self, bench_doc):
        import os

        requested = bench_doc["config"]["workers"]
        cpu_parallel = bench_doc["workloads"]["cpu"]["supervised"]
        assert cpu_parallel["workers_requested"] == requested
        assert cpu_parallel["workers"] == min(requested,
                                              os.cpu_count() or 1)
        assert bench_doc["workloads"]["cpu"]["workers_clamped"] == (
            cpu_parallel["workers"] < requested)

    def test_sim_workload_keeps_requested_workers(self, bench_doc):
        """Latency-bound oversubscription is the sim workload's point."""
        sim_parallel = bench_doc["workloads"]["sim"]["supervised"]
        assert sim_parallel["workers"] == bench_doc["config"]["workers"]

    def test_validator_requires_clamp_fields(self, bench_doc):
        doc = json.loads(json.dumps(bench_doc))
        del doc["workloads"]["cpu"]["workers_clamped"]
        del doc["workloads"]["sim"]["supervised"]["workers_requested"]
        problems = validate_bench(doc)
        assert any("workers_clamped" in p for p in problems)
        assert any("workers_requested" in p for p in problems)


class TestValidateBench:
    def test_rejects_non_object(self):
        assert validate_bench([]) == ["document is not a JSON object"]

    def test_reports_each_defect(self):
        problems = validate_bench({"schema": "wrong"})
        assert any("schema" in p for p in problems)
        assert any("workloads" in p for p in problems)
        assert any("cache_hit_rate" in p for p in problems)

    def test_flags_failed_determinism_check(self, bench_doc):
        doc = json.loads(json.dumps(bench_doc))
        doc["workloads"]["sim"]["supervised_matches_serial"] = False
        assert any("supervised_matches_serial" in p
                   for p in validate_bench(doc))

    def test_committed_artifact_is_valid(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_campaign.json"
        doc = json.loads(path.read_text())
        assert validate_bench(doc) == []
        assert doc["cache_hit_rate"] >= 0.9
        assert doc["speedup_parallel"] >= 2.0

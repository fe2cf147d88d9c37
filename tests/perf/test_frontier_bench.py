"""Tests for the fast-path benchmark harness and its committed artefact."""

import json
from pathlib import Path

import pytest

from repro.perf.frontier_bench import (
    FRONTIER_BENCH_SCHEMA,
    MIN_BATCH_WALLCLOCK,
    FrontierBenchConfig,
    run_frontier_benchmark,
    validate_frontier_bench,
)


@pytest.fixture(scope="module")
def frontier_doc():
    """One quick frontier benchmark run shared by the shape tests."""
    return run_frontier_benchmark(FrontierBenchConfig.quick())


class TestFrontierBenchDocument:
    def test_schema_valid(self, frontier_doc):
        assert validate_frontier_bench(frontier_doc) == []

    def test_headline_fields(self, frontier_doc):
        assert frontier_doc["schema"] == FRONTIER_BENCH_SCHEMA
        assert frontier_doc["invocation_reduction_campaign"] >= 5.0
        assert frontier_doc["invocation_reduction_shmoo"] >= 3.0
        assert frontier_doc["campaign"]["records_match"] is True
        assert frontier_doc["shmoo"]["grids_match"] is True

    def test_batch_stats_embedded(self, frontier_doc):
        campaign = frontier_doc["campaign"]
        stats = campaign["batch"]["stats"]
        assert stats["batch_sites"] == stats["sites"]
        assert stats["demoted_sites"] == 0
        assert stats["crosscheck_mismatches"] == 0
        assert campaign["speedup_batch"] >= MIN_BATCH_WALLCLOCK

    def test_round_trips_through_json(self, frontier_doc):
        doc = json.loads(json.dumps(frontier_doc))
        assert validate_frontier_bench(doc) == []


class TestValidateFrontierBench:
    def test_rejects_non_object(self):
        assert validate_frontier_bench(None) == [
            "document is not a JSON object"]

    def test_reports_each_defect(self):
        problems = validate_frontier_bench({"schema": "wrong"})
        assert any("schema" in p for p in problems)
        assert any("campaign" in p for p in problems)
        assert any("shmoo" in p for p in problems)

    def test_enforces_reduction_floors(self, frontier_doc):
        doc = json.loads(json.dumps(frontier_doc))
        doc["invocation_reduction_campaign"] = 4.9
        doc["invocation_reduction_shmoo"] = 2.9
        problems = validate_frontier_bench(doc)
        assert any("5.0x floor" in p for p in problems)
        assert any("3.0x floor" in p for p in problems)

    def test_enforces_batch_wallclock_floor(self, frontier_doc):
        doc = json.loads(json.dumps(frontier_doc))
        doc["wallclock_speedup_batch"] = MIN_BATCH_WALLCLOCK - 0.1
        problems = validate_frontier_bench(doc)
        assert any("wallclock_speedup_batch" in p for p in problems)

    def test_flags_failed_equivalence_check(self, frontier_doc):
        doc = json.loads(json.dumps(frontier_doc))
        doc["campaign"]["records_match"] = False
        doc["shmoo"]["grids_match"] = False
        problems = validate_frontier_bench(doc)
        assert any("records_match" in p for p in problems)
        assert any("grids_match" in p for p in problems)

    def test_committed_artifact_is_valid(self):
        path = Path(__file__).resolve().parents[2] / "BENCH_frontier.json"
        doc = json.loads(path.read_text())
        assert validate_frontier_bench(doc) == []
        assert doc["invocation_reduction_campaign"] >= 5.0
        assert doc["invocation_reduction_shmoo"] >= 3.0
        # The committed artefact is generated at the default (not
        # quick) configuration, where the ISSUE's 10x target holds.
        assert doc["wallclock_speedup_batch"] >= 10.0
        assert doc["campaign"]["records_match"] is True

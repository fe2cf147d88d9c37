"""Tests for the benchmark harness: suites, document shape, validator.

Every suite gets one module-scoped ``--quick`` run; the validator is
exercised against those documents, against every committed
``BENCH_*.json`` and against hand-broken copies.
"""

import importlib.util
import json
import math
import os
from pathlib import Path

import pytest

from repro.perf.bench import FLOORS, SCHEMA, SUITES, run_suite, validate
from repro.perf.experiment_bench import ExperimentBenchConfig
from repro.perf.service_bench import ServiceBenchConfig

ROOT = Path(__file__).resolve().parents[2]
SUITE_NAMES = sorted(SUITES)
CHECKS = [(name, flag) for name in SUITE_NAMES
          for flag in SUITES[name].checks]


def sound(suite, flag):
    """The value a sound run reports for one check flag."""
    return SUITES[suite].checks[flag][1]


def named(flag, value):
    """The validator's complaint about a check that is not ``value``."""
    return f"checks.{flag} is not {json.dumps(value)}"


@pytest.fixture(scope="module")
def quick_doc():
    """``quick_doc(suite)``: that suite's quick run, once per module."""
    docs = {}

    def get(name):
        if name not in docs:
            docs[name] = run_suite(name, SUITES[name].config.quick())
        return docs[name]

    return get


def _copy(doc):
    """A deep, JSON-round-tripped copy of a document."""
    return json.loads(json.dumps(doc))


class TestBenchDocument:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_schema_valid(self, quick_doc, suite):
        assert validate(quick_doc(suite)) == []

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_round_trips_through_json(self, quick_doc, suite):
        assert validate(_copy(quick_doc(suite))) == []

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_headline_fields(self, quick_doc, suite):
        doc = quick_doc(suite)
        assert doc["schema"] == SCHEMA
        assert doc["suite"] == suite
        assert doc["config"]["cpu_count"] == (os.cpu_count() or 1)
        assert list(doc["headline"]) == list(SUITES[suite].headline)
        assert all(value > 0 for value in doc["headline"].values())
        assert doc["checks"] == {flag: sound(suite, flag)
                                 for flag in SUITES[suite].checks}


class TestValidateBench:
    def test_rejects_non_object(self):
        assert validate([]) == ["document is not a JSON object"]

    def test_reports_each_defect(self):
        problems = validate({"schema": "wrong"})
        assert any("schema" in p for p in problems)
        assert any("unknown suite" in p for p in problems)
        for section in ("config", "rows", "headline", "checks"):
            assert any(repr(section) in p for p in problems)

    def test_every_floor_bounds_a_declared_headline_metric(self):
        for (suite, metric), (kind, _) in FLOORS.items():
            assert metric in SUITES[suite].headline
            assert kind in ("min", "max")

    @pytest.mark.parametrize("suite,metric", sorted(FLOORS))
    def test_value_past_floor_is_named(self, quick_doc, suite, metric):
        kind, bound = FLOORS[(suite, metric)]
        doc = _copy(quick_doc(suite))
        doc["headline"][metric] = math.nextafter(
            bound, -math.inf if kind == "min" else math.inf)
        problems = validate(doc)
        assert len(problems) == 1 and metric in problems[0]

    @pytest.mark.parametrize("suite,metric", sorted(FLOORS))
    def test_missing_floor_metric_is_named(self, quick_doc, suite, metric):
        doc = _copy(quick_doc(suite))
        del doc["headline"][metric]
        problems = validate(doc)
        assert len(problems) == 1 and metric in problems[0]

    @pytest.mark.parametrize("suite,flag", CHECKS)
    def test_flags_failed_check(self, quick_doc, suite, flag):
        doc = _copy(quick_doc(suite))
        doc["checks"][flag] = not sound(suite, flag)
        assert validate(doc) == [named(flag, sound(suite, flag))]

    @pytest.mark.parametrize("suite,flag", CHECKS)
    def test_flags_missing_check(self, quick_doc, suite, flag):
        doc = _copy(quick_doc(suite))
        del doc["checks"][flag]
        assert validate(doc) == [named(flag, sound(suite, flag))]

    def test_committed_artifact_is_valid(self):
        docs = {path.name: json.loads(path.read_text())
                for path in sorted(ROOT.glob("BENCH_*.json"))}
        assert set(docs) == {f"BENCH_{name}.json" for name in SUITE_NAMES}
        assert {name: validate(doc) for name, doc in docs.items()} == {
            name: [] for name in docs}


def _committed(suite):
    """The committed ``BENCH_<suite>.json``, checked by the validator."""
    doc = json.loads((ROOT / f"BENCH_{suite}.json").read_text())
    assert validate(doc) == []
    return doc


class TestEntryPoint:
    """``benchmarks/perf/bench.py --validate`` is the check.sh gate."""

    @staticmethod
    def _main():
        spec = importlib.util.spec_from_file_location(
            "bench_entry", ROOT / "benchmarks" / "perf" / "bench.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main

    def test_validate_exit_codes(self, quick_doc, tmp_path, capsys):
        main = self._main()
        good = tmp_path / "good.json"
        good.write_text(json.dumps(quick_doc("service")))
        assert main(["--validate", str(good)]) == 0
        # A leftover artefact of a retired harness has no suite.
        stale = tmp_path / "BENCH_retired.json"
        stale.write_text(json.dumps({"schema": "repro.bench-retired/3"}))
        assert main(["--validate", str(stale)]) == 1
        assert "unknown suite" in capsys.readouterr().err


class TestFastpathSuite:
    def test_batch_stats_embedded(self, quick_doc):
        campaign = quick_doc("fastpath")["rows"]["campaign"]
        stats = campaign["batch"]["stats"]
        assert stats["batch_sites"] == stats["sites"]
        assert stats["demoted_sites"] == 0
        assert stats["crosscheck_mismatches"] == 0
        _, floor = FLOORS[("fastpath", "wallclock_speedup_batch")]
        assert campaign["speedup_batch"] >= floor

    def test_adjacency_row_covers_the_veqtor4_window(self, quick_doc):
        adjacency = quick_doc("fastpath")["rows"]["adjacency"]
        assert adjacency["pairs"] == 2172
        assert adjacency["pairs_match"] is True
        _, floor = FLOORS[("fastpath", "wallclock_speedup_adjacency")]
        assert adjacency["speedup"] >= floor

    def test_draw_row_covers_the_test_plan_sample(self, quick_doc):
        draw = quick_doc("fastpath")["rows"]["draw"]
        assert draw["defects"] == 3000
        assert draw["defects_match"] is True
        _, floor = FLOORS[("fastpath", "wallclock_speedup_draw")]
        assert draw["speedup"] >= floor

    def test_committed_artifact_is_valid(self):
        doc = _committed("fastpath")
        assert doc["headline"]["invocation_reduction_campaign"] >= 5.0
        assert doc["headline"]["invocation_reduction_shmoo"] >= 3.0
        # The committed artefact is generated at the default (not quick)
        # configuration, where the 10x wall-clock target holds.
        assert doc["headline"]["wallclock_speedup_batch"] >= 10.0
        assert doc["rows"]["campaign"]["records_match"] is True
        assert doc["rows"]["adjacency"]["pairs_match"] is True
        assert doc["rows"]["draw"]["defects_match"] is True


class TestExperimentSuite:
    def test_streaming_section_covers_the_population(self, quick_doc):
        config = ExperimentBenchConfig.quick()
        streaming = quick_doc("experiment")["rows"]["streaming"]
        assert streaming["devices"] == config.devices
        assert streaming["shards"] == config.devices // config.shard_devices
        assert streaming["defective"] > 0
        assert streaming["setup_seconds"] > 0

    def test_memory_section_records_both_peaks(self, quick_doc):
        memory = quick_doc("experiment")["rows"]["memory"]
        assert memory["small_devices"] < memory["large_devices"]
        assert memory["small_peak_bytes"] > 0
        assert memory["peak_ratio"] <= 1.25

    def test_pool_uses_every_cpu(self, quick_doc):
        pool = quick_doc("experiment")["rows"]["pool"]
        assert pool["workers"] == max(2, os.cpu_count() or 1)
        assert pool["devices"] == ExperimentBenchConfig.quick().pool_devices
        assert pool["serial_seconds"] > 0 and pool["pooled_seconds"] > 0

    def test_quick_keeps_block_alignment(self):
        config = ExperimentBenchConfig.quick()
        assert config.devices % config.shard_devices == 0

    def test_rejects_inverted_memory_probe(self):
        with pytest.raises(ValueError, match="memory_devices"):
            ExperimentBenchConfig(memory_devices=(65_536, 4096))

    def test_committed_artifact_is_valid(self):
        # Generated at the default configuration: the 10^6 device lot,
        # and the pool timed at 10^7.
        doc = _committed("experiment")
        assert doc["rows"]["streaming"]["devices"] >= 1_000_000
        assert doc["rows"]["pool"]["devices"] >= 10_000_000


class TestServiceSuite:
    def test_cold_pass_misses_and_warm_pass_hits(self, quick_doc):
        config = ServiceBenchConfig.quick()
        rows = quick_doc("service")["rows"]
        assert rows["cold"]["requests"] == config.unique_requests
        assert rows["cold"]["cache_hits"] == 0
        assert rows["warm"]["requests"] == (config.unique_requests
                                            * config.warm_repeats)
        assert rows["warm"]["cache_hits"] == rows["warm"]["requests"]

    def test_every_unique_response_checked(self, quick_doc):
        identity = quick_doc("service")["rows"]["identity"]
        assert identity == {
            "checked_requests": ServiceBenchConfig.quick().unique_requests,
            "byte_identical": True}

    def test_fresh_service_loads_no_numpy(self, quick_doc):
        startup = quick_doc("service")["rows"]["startup"]
        assert startup["numpy_loaded"] is False
        assert 0 < startup["repro_modules"] < 30
        assert startup["seconds"] > 0 and startup["peak_rss_mb"] > 0

    def test_latency_percentiles_ordered(self, quick_doc):
        warm = quick_doc("service")["rows"]["warm"]
        assert 0 < warm["p50_ms"] <= warm["p99_ms"]

    @pytest.mark.parametrize("kwargs,match", [
        ({"unique_requests": 0}, "unique_requests"),
        ({"unique_requests": 8, "cache_size": 4}, "cache_size"),
    ])
    def test_config_rejects_unmeasurable_shapes(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServiceBenchConfig(**kwargs)

"""Tests for repro.obs.metrics: counters and their snapshot."""

from repro.obs.metrics import MetricsRegistry


class TestCounters:
    def test_inc_creates_and_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("units.executed")
        reg.inc("units.executed", 4)
        assert reg.counters == {"units.executed": 5}


class TestSnapshot:
    def test_snapshot_sorts_counters(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a")
        snap = reg.snapshot()
        assert snap == {"counters": {"a": 1, "b": 1}}
        assert list(snap["counters"]) == ["a", "b"]  # sorted

"""Tests for repro.obs.metrics: counters, gauges, timers, merge."""

from repro.obs.metrics import MetricsRegistry


class FakeClock:
    """Deterministic monotonic clock advancing by explicit ticks."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCounters:
    def test_inc_creates_and_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("units.executed")
        reg.inc("units.executed", 4)
        assert reg.counters == {"units.executed": 5}

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("cache.hit_rate", 0.25)
        reg.set_gauge("cache.hit_rate", 0.5)
        assert reg.gauges == {"cache.hit_rate": 0.5}


class TestTimers:
    def test_timer_accumulates_monotonic_elapsed(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        with reg.timer("evaluate"):
            clock.now += 2.0
        with reg.timer("evaluate"):
            clock.now += 1.5
        assert reg.timers == {"evaluate": {"count": 2, "total_s": 3.5}}

    def test_timer_records_even_on_exception(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        try:
            with reg.timer("evaluate"):
                clock.now += 1.0
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert reg.timers["evaluate"]["count"] == 1


class TestMergeAndSnapshot:
    def test_merge_adds_counters_and_timers(self):
        clock = FakeClock()
        a, b = MetricsRegistry(clock=clock), MetricsRegistry(clock=clock)
        a.inc("n", 1)
        b.inc("n", 2)
        b.inc("only_b")
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 2.0)
        with a.timer("t"):
            clock.now += 1.0
        with b.timer("t"):
            clock.now += 2.0
        a.merge(b)
        assert a.counters == {"n": 3, "only_b": 1}
        assert a.gauges == {"g": 2.0}  # merged-in registry wins
        assert a.timers == {"t": {"count": 2, "total_s": 3.0}}

    def test_snapshot_excludes_timers_by_default(self):
        """Timers are wall-clock-ish: never in deterministic artefacts."""
        clock = FakeClock()
        reg = MetricsRegistry(clock=clock)
        reg.inc("b")
        reg.inc("a")
        with reg.timer("t"):
            clock.now += 1.0
        snap = reg.snapshot()
        assert snap == {"counters": {"a": 1, "b": 1}, "gauges": {}}
        assert list(snap["counters"]) == ["a", "b"]  # sorted
        full = reg.snapshot(include_timers=True)
        assert full["timers"] == {"t": {"count": 1, "total_s": 1.0}}

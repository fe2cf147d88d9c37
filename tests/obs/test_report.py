"""Tests for repro.obs.report: folding events into run summaries."""

import json

from repro.obs.bus import EventBus
from repro.obs.report import build_report, render_json, render_text


def synthetic_bus():
    """A hand-built event stream exercising every report section."""
    bus = EventBus(meta={"seed": 11})
    bus.emit("run.start", plan_units=3)
    bus.emit("checkpoint.resume", completed_units=2,
             recovered_from_temp=True)
    bus.emit("unit.resumed", unit="bridge:1e3:VLV")
    bus.emit("unit.done", unit="bridge:1e3:VLV", source="checkpoint",
             detected=5, total=10, errors=0, condition="VLV")
    bus.emit("unit.resumed", unit="bridge:1e3:Vmax")
    bus.emit("unit.done", unit="bridge:1e3:Vmax", source="checkpoint",
             detected=6, total=10, errors=0, condition="Vmax")
    bus.emit("unit.start", unit="bridge:2e3:VLV", kind="bridge",
             resistance=2e3, condition="VLV")
    bus.emit("unit.retry", unit="bridge:2e3:VLV",
             error="site 3: RuntimeError: boom")
    bus.emit("unit.retry", unit="bridge:2e3:VLV",
             error="site 3: RuntimeError: boom again")
    bus.emit("unit.quarantine", unit="bridge:2e3:VLV", site_index=3,
             attempts=2, error="RuntimeError: boom again")
    bus.emit("unit.done", unit="bridge:2e3:VLV", source="executed",
             detected=4, total=10, errors=1, condition="VLV")
    bus.emit("batch.demote", kind="bridge", condition="VLV",
             site_index=7, reason="lying-model", stage="crosscheck")
    bus.emit("checkpoint.save", completed_units=3)
    bus.emit("run.done", executed_units=1, resumed_units=2,
             quarantined_sites=1)
    return bus


class TestBuildReport:
    def test_totals_and_sections(self):
        bus = synthetic_bus()
        report = build_report(bus.meta, bus.events)
        assert report["schema"] == "repro.run-report"
        assert report["version"] == 1
        assert report["meta"] == {"seed": 11}
        assert report["totals"] == {
            "events": 14, "plan_units": 3, "executed_units": 1,
            "resumed_units": 2, "quarantined_sites": 1}
        assert report["sources"] == {"checkpoint": 2, "executed": 1}
        assert report["conditions"]["VLV"] == {
            "units": 2, "detected": 9, "total": 20, "errors": 1}
        assert report["retries"]["attempts"] == 2
        assert report["retries"]["by_unit"] == {"bridge:2e3:VLV": 2}
        assert report["quarantines"][0]["site_index"] == 3
        assert report["batch"]["demotions"][0]["reason"] == "lying-model"
        assert report["checkpoints"] == {"saves": 1, "resumes": 1}
        assert report["shmoo"] is None

    def test_empty_journal_reports_cleanly(self):
        report = build_report({}, [])
        assert report["totals"] == {"events": 0}
        assert report["conditions"] == {}

    def test_pool_section_clean_run(self):
        report = build_report({}, [])
        assert report["pool"] == {
            "worker_losses": 0, "deadline_losses": 0, "rebuilds": 0,
            "redispatched_units": 0, "degraded_units": 0,
            "degraded": False, "poison_units": []}

    def test_pool_section_folds_supervision_events(self):
        bus = EventBus()
        bus.emit("pool.worker_lost", unit="bridge:1e3:VLV", units=4,
                 cause="worker-lost")
        bus.emit("pool.redispatch", unit="bridge:1e3:VLV", units=4,
                 attempt=1)
        bus.emit("pool.rebuild", rebuilds=1, budget=8)
        bus.emit("pool.worker_lost", unit="bridge:2e3:VLV", units=1,
                 cause="chunk-deadline")
        bus.emit("pool.redispatch", unit="bridge:2e3:VLV", units=1,
                 attempt=2)
        bus.emit("pool.poison_unit", unit="bridge:2e3:VLV", attempts=4,
                 error="InjectedCrash: boom")
        bus.emit("pool.degrade_serial", units=3, rebuilds=1)
        report = build_report({}, bus.events)
        assert report["pool"]["worker_losses"] == 2
        assert report["pool"]["deadline_losses"] == 1
        assert report["pool"]["rebuilds"] == 1
        assert report["pool"]["redispatched_units"] == 5
        assert report["pool"]["degraded"] is True
        assert report["pool"]["degraded_units"] == 3
        assert report["pool"]["poison_units"][0]["unit"] == (
            "bridge:2e3:VLV")

    @staticmethod
    def _shmoo_events(**start):
        bus = EventBus()
        bus.emit("shmoo.start", voltages=4, periods=6, **start)
        bus.emit("shmoo.row", row=0, vdd=0.8, first_pass=3)
        bus.emit("shmoo.row", row=1, vdd=0.9, first_pass=None)
        bus.emit("shmoo.fallback")
        bus.emit("shmoo.done", tester_invocations=17)
        return bus.events

    def test_shmoo_section(self):
        report = build_report({}, self._shmoo_events())
        assert report["shmoo"] == {
            "voltages": 4, "periods": 6,
            "rows": 2, "fallbacks": 1, "tester_invocations": 17}
        assert ("Shmoo: grid=4x6 rows=2 fallbacks=1 tester_invocations=17"
                in render_text(report))

    def test_shmoo_start_with_strategy_key_still_renders(self):
        """Journals written while the shmoo fill was selectable carry
        a ``strategy`` key on ``shmoo.start``; they render the same."""
        events = self._shmoo_events(strategy="exact")
        assert build_report({}, events) == build_report(
            {}, self._shmoo_events())
        assert "Shmoo: grid=4x6 rows=2" in render_text(
            build_report({}, events))

    def test_service_section_absent_without_service_events(self):
        assert build_report({}, [])["service"] is None

    def test_service_section_folds_traffic(self):
        bus = EventBus()
        bus.emit("service.request", method="POST", path="/v1/estimate",
                 status=200, queries=3, cached=False)
        bus.emit("service.cache_hit", key="a" * 64)
        bus.emit("service.request", method="POST", path="/v1/estimate",
                 status=200, queries=3, cached=True)
        bus.emit("service.request", method="POST", path="/v1/estimate",
                 status=400, queries=0, cached=False)
        bus.emit("service.reload", outcome="rejected", etag="e" * 64,
                 error="corrupt")
        bus.emit("service.request", method="POST", path="/v1/reload",
                 status=409, queries=0, cached=False)
        bus.emit("service.reject", reason="bad-request")
        bus.emit("service.reject", reason="read-timeout")
        bus.emit("service.reject", reason="read-timeout")
        report = build_report({}, bus.events)
        assert report["service"] == {
            "requests": 4, "queries": 6, "cached": 1,
            "by_status": {"200": 2, "400": 1, "409": 1},
            "cache_hits": 1,
            "rejects": {"bad-request": 1, "read-timeout": 2},
            "reloads": [{"outcome": "rejected", "etag": "e" * 64,
                         "error": "corrupt"}]}

    def test_service_section_renders_in_text(self):
        bus = EventBus()
        bus.emit("service.request", method="POST", path="/v1/estimate",
                 status=200, queries=1, cached=False)
        bus.emit("service.reload", outcome="unchanged", etag="e" * 64)
        text = render_text(build_report({}, bus.events))
        assert "Service: requests=1" in text
        assert "rejected connections: (none)" in text
        bus.emit("service.reject", reason="read-timeout")
        text = render_text(build_report({}, bus.events))
        assert "rejected connections: read-timeout=1" in text
        assert "unchanged: etag=eeeeeeeeeeee" in text


class TestRendering:
    def test_text_always_prints_forensics_sections(self):
        """check.sh greps these headers; they must render when clean."""
        text = render_text(build_report({}, []))
        assert "Quarantines:\n  (none)" in text
        assert "Batch demotions:\n  (none)" in text
        assert "Poison units:\n  (none)" in text
        assert "Pool supervision: worker_losses=0" in text
        assert "DEGRADED-SERIAL" not in text

    def test_text_renders_pool_supervision(self):
        bus = EventBus()
        bus.emit("pool.worker_lost", unit="u", units=1,
                 cause="chunk-deadline")
        bus.emit("pool.poison_unit", unit="u", attempts=4,
                 error="InjectedCrash: boom")
        bus.emit("pool.degrade_serial", units=2, rebuilds=0)
        text = render_text(build_report({}, bus.events))
        assert "worker_losses=1 (deadline=1)" in text
        assert "DEGRADED-SERIAL units=2" in text
        assert "InjectedCrash: boom" in text

    def test_text_renders_populated_tables(self):
        bus = synthetic_bus()
        text = render_text(build_report(bus.meta, bus.events))
        assert "lying-model" in text
        assert "crosscheck" in text
        assert "bridge:2e3:VLV" in text
        assert "totals: plan=3 executed=1 resumed=2 quarantined=1" in text
        assert "(none)" not in text.split("Quarantines:")[1].split(
            "\n\n")[0]

    def test_json_is_canonical_and_parseable(self):
        bus = synthetic_bus()
        report = build_report(bus.meta, bus.events)
        doc = json.loads(render_json(report))
        assert doc == json.loads(render_json(report))
        assert doc["schema"] == "repro.run-report"

    def test_report_is_pure_function_of_journal(self):
        bus = synthetic_bus()
        a = render_json(build_report(bus.meta, bus.events))
        b = render_json(build_report(bus.meta, bus.events))
        assert a == b

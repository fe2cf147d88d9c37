"""Integration tests: the run journal through the campaign runner.

The acceptance claims of the observability layer, end to end:

* journal off (the default) means **zero** event-bus invocations, not
  "few" -- asserted with a monkeypatched emit and a counting wrapper;
* a journal is a pure function of what the run computed: no execution
  knob reaches a campaign's header, and a 4-worker lot writes bytes
  identical to a serial one;
* nothing is swallowed -- every quarantine, retry and kernel
  demotion appears as an event, and
  ``build_report`` reproduces the runner's own statistics from the
  journal alone.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import DefectKind
from repro.experiment.streaming.engine import StreamingExperiment
from repro.experiment.streaming.runner import StreamingRunner
from repro.ifa.flow import IfaCampaign
from repro.march.library import TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.obs.bus import EventBus, read_journal
from repro.obs.report import build_report
from repro.perf.counting import CountingEventBus
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.chaos import (
    FaultInjector,
    InjectedCrash,
)
from repro.stress import production_conditions
from repro.tester.ate import VirtualTester
from repro.tester.shmoo import ShmooRunner

GEOM = MemoryGeometry(16, 2, 4)
N_SITES = 40
SEED = 11


def make_campaign(injector=None):
    return IfaCampaign(GEOM, CMOS018, n_sites=N_SITES, seed=SEED,
                       injector=injector)


def two_conditions():
    conds = production_conditions(CMOS018)
    return (conds["VLV"], conds["Vmax"])


def bridge_spec():
    return SweepSpec.of(DefectKind.BRIDGE, (1e3, 10e3), two_conditions())


def records_bytes(records):
    return json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True).encode()


def names(events):
    return [e.name for e in events]


class TestJournalOnDisk:
    def test_journal_written_and_schema_valid(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = CampaignRunner(make_campaign(), journal=path).run(
            [bridge_spec()])
        meta, events = read_journal(path)  # validates every line
        assert names(events)[0] == "run.start"
        assert names(events)[-1] == "run.done"
        done = events[-1].data
        assert done["executed_units"] == result.executed_units == 4
        starts = [e for e in events if e.name == "unit.start"]
        dones = [e for e in events if e.name == "unit.done"]
        assert len(starts) == len(dones) == 4
        assert all(d.data["source"] == "executed" for d in dones)
        # Determinism contract: no execution knobs in the header.
        assert "workers" not in meta

    def test_metrics_snapshot_on_result(self, tmp_path):
        result = CampaignRunner(
            make_campaign(), journal=tmp_path / "run.jsonl").run(
            [bridge_spec()])
        assert result.metrics is not None
        assert result.metrics["counters"]["units.executed"] == 4
        assert "timers" not in result.metrics  # deterministic snapshot

    def test_no_journal_means_no_metrics(self):
        result = CampaignRunner(make_campaign()).run([bridge_spec()])
        assert result.metrics is None


class TestZeroOverheadOff:
    def test_journal_off_zero_bus_invocations(self, monkeypatch):
        """Off by default is *zero* emit calls, monkeypatch-counted."""
        calls = []
        original = EventBus.emit

        def counting_emit(self, name, **data):
            calls.append(name)
            return original(self, name, **data)

        monkeypatch.setattr(EventBus, "emit", counting_emit)
        monkeypatch.setattr(
            EventBus, "__init__",
            lambda self, *a, **k: calls.append("__init__"))
        result = CampaignRunner(make_campaign()).run([bridge_spec()])
        assert calls == []
        assert result.executed_units == 4

    def test_counting_bus_sees_every_event(self, tmp_path):
        """A CountingEventBus passed as the journal counts each emit."""
        bus = CountingEventBus(EventBus(tmp_path / "run.jsonl"))
        CampaignRunner(make_campaign(), journal=bus).run([bridge_spec()])
        assert bus.calls == len(bus.inner.events) > 0

    def test_journal_off_records_byte_identical(self, tmp_path):
        plain = CampaignRunner(make_campaign()).run([bridge_spec()])
        journalled = CampaignRunner(
            make_campaign(), journal=tmp_path / "run.jsonl").run(
            [bridge_spec()])
        assert records_bytes(plain.records) == records_bytes(
            journalled.records)


class TestWorkerDeterminism:
    def test_4_worker_journal_byte_identical_to_serial(self, tmp_path):
        """The streaming lot is the one pooled run: its journal is the
        same bytes at 1 and 4 workers."""
        serial_path = tmp_path / "serial.jsonl"
        pooled_path = tmp_path / "pooled.jsonl"
        for workers, path in ((1, serial_path), (4, pooled_path)):
            lot = StreamingExperiment(n_devices=8192, shard_devices=2048,
                                      block_devices=1024)
            StreamingRunner(lot, workers=workers, journal=path).run()
        assert serial_path.read_bytes() == pooled_path.read_bytes()


class TestResume:
    def test_resume_emits_checkpoint_and_resumed_units(self, tmp_path):
        ck = tmp_path / "ck.json"
        inj = FaultInjector(crash_positions={"behavior.evaluate": {90}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make_campaign(inj),
                           checkpoint_path=ck).run([bridge_spec()])
        path = tmp_path / "resume.jsonl"
        result = CampaignRunner(make_campaign(), checkpoint_path=ck,
                                journal=path).run([bridge_spec()])
        _, events = read_journal(path)
        (resume,) = [e for e in events if e.name == "checkpoint.resume"]
        assert resume.data["completed_units"] == result.resumed_units == 2
        assert resume.data["recovered_from_temp"] is False
        resumed = [e for e in events if e.name == "unit.resumed"]
        assert len(resumed) == 2
        restored = [e for e in events if e.name == "unit.done"
                    and e.data["source"] == "checkpoint"]
        assert len(restored) == 2
        saves = [e for e in events if e.name == "checkpoint.save"]
        assert saves and saves[-1].data["completed_units"] == 4


class TestChaosCompleteness:
    def test_every_quarantine_is_journalled(self, tmp_path):
        """Chaos run: each ledger entry has its event chain."""
        inj = FaultInjector(positions={"behavior.evaluate": {0, 41, 42}})
        path = tmp_path / "chaos.jsonl"
        result = CampaignRunner(make_campaign(inj), journal=path,
                                max_attempts=1).run([bridge_spec()])
        assert result.quarantine, "chaos should have quarantined sites"
        _, events = read_journal(path)
        quarantined = [e for e in events if e.name == "unit.quarantine"]
        assert len(quarantined) == len(result.quarantine)
        for entry, event in zip(result.quarantine, quarantined):
            assert event.data["unit"] == entry["unit_id"]
            assert event.data["site_index"] == entry["site_index"]
            assert event.data["error"] == entry["error"]
        # ... and each quarantining unit still completed, with errors.
        dones = {e.data["unit"]: e.data for e in events
                 if e.name == "unit.done"}
        for entry in result.quarantine:
            assert dones[entry["unit_id"]]["errors"] > 0

    def test_retry_events_match_runner_stats(self, tmp_path):
        """Transient faults (retry succeeds): journalled, not dropped."""
        inj = FaultInjector(positions={"behavior.evaluate": {0, 50}})
        path = tmp_path / "retry.jsonl"
        result = CampaignRunner(make_campaign(inj), journal=path,
                                max_attempts=3).run([bridge_spec()])
        assert result.retry_stats.retries == 2
        assert not result.quarantine
        meta, events = read_journal(path)
        report = build_report(meta, events)
        assert report["retries"]["attempts"] == 2
        assert report["quarantines"] == []


class LyingBatchModel:
    """A batch hook that inverts every cell (a lie the cross-check
    catches); the scalar path stays honest."""

    def __init__(self, inner):
        self._inner = inner

    def fails_condition(self, defect, condition):
        return self._inner.fails_condition(defect, condition)

    def evaluate_batch(self, sites, resistances, condition):
        return ~np.asarray(self._inner.evaluate_batch(
            sites, resistances, condition))


class TestBatchEvents:
    def test_lying_batch_hook_demotions(self, tmp_path):
        campaign = make_campaign()
        campaign.behavior = LyingBatchModel(campaign.behavior)
        path = tmp_path / "batch.jsonl"
        result = CampaignRunner(campaign, journal=path).run([bridge_spec()])
        stats = result.batch_stats
        assert stats["demoted_sites"] == stats["crosscheck_mismatches"] > 0
        meta, events = read_journal(path)
        demotions = [e for e in events if e.name == "batch.demote"]
        assert len(demotions) == stats["demoted_sites"]
        assert {d.data["reason"] for d in demotions} == {"lying-model"}
        assert all(d.data["stage"] == "crosscheck" for d in demotions)
        # Demotions land after the last unit, before run.done.
        assert names(events)[-1] == "run.done"
        assert names(events)[-1 - len(demotions):-1] == (
            ["batch.demote"] * len(demotions))
        report = build_report(meta, events)
        assert len(report["batch"]["demotions"]) == len(demotions)

    def test_honest_serial_run_journals_no_batch_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CampaignRunner(make_campaign(), journal=path).run([bridge_spec()])
        _, events = read_journal(path)
        assert not [e for e in events if e.name.startswith("batch.")]


class TestShmooJournal:
    def test_rows_and_done(self):
        tester = VirtualTester(DefectBehaviorModel(CMOS018))
        runner = ShmooRunner(tester, TEST_11N)
        sram = Sram(MemoryGeometry(8, 2, 4), CMOS018)
        voltages = [0.8, 1.2, 1.8]
        periods = [5e-9, 20e-9, 60e-9, 120e-9]
        bus = EventBus()
        plot = runner.run(sram, [], voltages, periods, bus=bus)
        assert names(bus.events)[0] == "shmoo.start"
        assert bus.events[0].data == {"voltages": 3, "periods": 4}
        rows = [e for e in bus.events if e.name == "shmoo.row"]
        assert [r.data["row"] for r in rows] == [0, 1, 2]
        for i, event in enumerate(rows):
            expected = plot.passed[i]
            first = event.data["first_pass"]
            if expected.any():
                assert first == int(expected.argmax())
            else:
                assert first is None
        assert bus.events[-1].name == "shmoo.done"
        assert (bus.events[-1].data["tester_invocations"]
                == runner.last_stats.tester_invocations)

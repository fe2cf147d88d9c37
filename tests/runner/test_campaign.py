"""Tests for repro.runner.campaign: kill/resume, quarantine, degradation.

These are the acceptance tests of the resilient runner: a campaign
killed mid-run resumes from its checkpoint into records byte-identical
to an uninterrupted run, and injected per-site failures are quarantined
and reported rather than fatal.
"""

import dataclasses
import json

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.models import DefectKind
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.chaos import (
    FaultInjector,
    InjectedCrash,
)
from repro.runner.checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatchError,
)
from repro.runner.outcome import UnitDeadlineExceeded
from repro.stress import production_conditions

from ..injectors import scheduled_injector

GEOM = MemoryGeometry(16, 2, 4)
N_SITES = 40
SEED = 11


def make_campaign(injector=None):
    campaign = IfaCampaign(GEOM, CMOS018, n_sites=N_SITES, seed=SEED)
    campaign.injector = injector
    return campaign


def per_site_campaign():
    """A healthy campaign the runner evaluates site by site.

    A campaign with an injector runs every site through the per-site
    loop (each attempt probes the injector) -- what the call-count and
    deadline tests below measure.
    """
    return make_campaign(FaultInjector())


def two_conditions():
    conds = production_conditions(CMOS018)
    return (conds["VLV"], conds["Vmax"])


def bridge_spec():
    return SweepSpec.of(DefectKind.BRIDGE, (1e3, 10e3), two_conditions())


def records_bytes(records):
    """Canonical byte serialisation for exact-identity comparison."""
    return json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True).encode()


class TestPlainRun:
    def test_matches_direct_loop(self):
        """The runner reproduces the historical monolithic loop."""
        campaign = make_campaign()
        result = CampaignRunner(campaign).run([bridge_spec()])
        population = campaign.population(DefectKind.BRIDGE).defects()
        spec = bridge_spec()
        expected = []
        for r in spec.resistances:
            variants = [d.with_resistance(r) for d in population]
            for cond in spec.conditions:
                expected.append(sum(
                    1 for d in variants
                    if campaign.behavior.fails_condition(d, cond)))
        assert [rec.detected for rec in result.records] == expected
        assert all(rec.errors == 0 for rec in result.records)
        assert all(rec.total == N_SITES for rec in result.records)

    def test_record_order_is_plan_order(self):
        result = CampaignRunner(make_campaign()).run([bridge_spec()])
        keys = [(r.resistance, r.condition) for r in result.records]
        assert keys == [(1e3, "VLV"), (1e3, "Vmax"),
                        (10e3, "VLV"), (10e3, "Vmax")]

    def test_multi_kind_plan(self):
        specs = [
            bridge_spec(),
            SweepSpec.of(DefectKind.OPEN, (1e6,), two_conditions()),
        ]
        result = CampaignRunner(make_campaign()).run(specs)
        assert [r.kind for r in result.records] == ["bridge"] * 4 + [
            "open"] * 2


class TestKillResume:
    @pytest.mark.parametrize("crash_position", [30, 75, 130])
    def test_resume_is_byte_identical(self, tmp_path, crash_position):
        """Kill mid-campaign (at several depths), resume, compare."""
        baseline = CampaignRunner(make_campaign()).run([bridge_spec()])

        ck = tmp_path / "ck.json"
        inj = scheduled_injector(
            crash_positions={"behavior.evaluate": {crash_position}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make_campaign(inj),
                           checkpoint_path=ck).run([bridge_spec()])

        resumed = CampaignRunner(make_campaign(),
                                 checkpoint_path=ck).run([bridge_spec()])
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)
        assert resumed.resumed_units == crash_position // N_SITES
        assert resumed.resumed_units + resumed.executed_units == 4

    def test_crash_during_checkpoint_io_is_survivable(self, tmp_path):
        """A crash inside the checkpoint *write* loses nothing either."""
        baseline = CampaignRunner(make_campaign()).run([bridge_spec()])
        ck = tmp_path / "ck.json"
        inj = scheduled_injector(crash_positions={"io.replace": {2}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make_campaign(inj),
                           checkpoint_path=ck).run([bridge_spec()])
        resumed = CampaignRunner(make_campaign(),
                                 checkpoint_path=ck).run([bridge_spec()])
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)

    def test_completed_checkpoint_resumes_without_evaluation(self,
                                                            tmp_path):
        ck = tmp_path / "ck.json"
        CampaignRunner(make_campaign(), checkpoint_path=ck).run(
            [bridge_spec()])
        # An injector with rate 1.0 would fail every evaluation -- but
        # none must happen on a fully complete checkpoint.
        inj = FaultInjector(rates={"behavior.evaluate": 1.0})
        result = CampaignRunner(make_campaign(inj),
                                checkpoint_path=ck).run([bridge_spec()])
        assert result.executed_units == 0 and result.resumed_units == 4

    def test_checkpoint_of_other_campaign_refused(self, tmp_path):
        ck = tmp_path / "ck.json"
        CampaignRunner(make_campaign(), checkpoint_path=ck).run(
            [bridge_spec()])
        other = IfaCampaign(GEOM, CMOS018, n_sites=N_SITES, seed=SEED + 1)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            CampaignRunner(other, checkpoint_path=ck).run([bridge_spec()])

    def test_checkpoint_quarantine_restored_on_resume(self, tmp_path):
        ck = tmp_path / "ck.json"
        inj = scheduled_injector(
            positions={"behavior.evaluate": {0, 1, 2}},  # 3 tries: site 0
            crash_positions={"behavior.evaluate": {120}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make_campaign(inj), max_attempts=3,
                           checkpoint_path=ck).run([bridge_spec()])
        resumed = CampaignRunner(make_campaign(),
                                 checkpoint_path=ck).run([bridge_spec()])
        assert len(resumed.quarantine) == 1
        assert resumed.quarantine[0]["site_index"] == 0
        assert resumed.records[0].errors == 1


class TestErrorsUnderResume:
    """Regression tests for docs/robustness.md 'errors under resume':
    completed units are re-emitted, never re-evaluated, so quarantine
    outcomes persist across resume even when the failure has healed."""

    def run_degraded_checkpoint(self, tmp_path):
        """Quarantine site 0 of unit 0, crash before the campaign ends."""
        ck = tmp_path / "ck.json"
        inj = scheduled_injector(
            positions={"behavior.evaluate": {0, 1, 2}},
            crash_positions={"behavior.evaluate": {120}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make_campaign(inj), max_attempts=3,
                           checkpoint_path=ck).run([bridge_spec()])
        return ck

    def test_healed_model_does_not_clear_errors(self, tmp_path):
        """Resuming with a healthy model keeps the stored errors count:
        the record reports the unit's one evaluation, not the world's
        current state."""
        ck = self.run_degraded_checkpoint(tmp_path)
        resumed = CampaignRunner(make_campaign(),  # no injector: healed
                                 checkpoint_path=ck).run([bridge_spec()])
        assert resumed.records[0].errors == 1
        assert sum(r.errors for r in resumed.records) == 1
        assert resumed.quarantine[0]["site_index"] == 0

    def test_degraded_unit_is_not_reexecuted_on_resume(self, tmp_path):
        """The quarantined unit counts as resumed, not executed."""
        ck = self.run_degraded_checkpoint(tmp_path)
        resumed = CampaignRunner(per_site_campaign(),
                                 checkpoint_path=ck).run([bridge_spec()])
        assert resumed.resumed_units >= 1
        # Unit 0 (the degraded one) came from the checkpoint: the
        # resumed run made no retry calls for its 40 sites.
        total_sites = sum(r.total for r in resumed.records)
        executed_sites = resumed.executed_units * N_SITES
        assert resumed.retry_stats.calls == executed_sites
        assert executed_sites < total_sites

    def test_fresh_run_reevaluates_where_resume_does_not(self, tmp_path):
        """Without the checkpoint, a healed model produces errors == 0 —
        the contrast that makes the resume semantics worth documenting."""
        ck = self.run_degraded_checkpoint(tmp_path)
        resumed = CampaignRunner(make_campaign(),
                                 checkpoint_path=ck).run([bridge_spec()])
        fresh = CampaignRunner(make_campaign()).run([bridge_spec()])
        assert resumed.records[0].errors == 1
        assert fresh.records[0].errors == 0
        assert fresh.records[0].detected >= resumed.records[0].detected

    def test_checkpoint_with_deadline_hit_keys_resumes(self, tmp_path):
        """Quarantine entries of older checkpoints carry an always-False
        ``deadline_hit`` key; such a checkpoint still resumes to the
        same records and keeps its ledger verbatim."""
        ck = self.run_degraded_checkpoint(tmp_path)
        old = tmp_path / "old.json"
        ckpt = CampaignCheckpoint.load(ck)
        for entry in ckpt.quarantine:
            entry["deadline_hit"] = False
        ckpt.save(old)
        current = CampaignRunner(make_campaign(),
                                 checkpoint_path=ck).run([bridge_spec()])
        resumed = CampaignRunner(make_campaign(),
                                 checkpoint_path=old).run([bridge_spec()])
        assert records_bytes(resumed.records) == records_bytes(
            current.records)
        assert resumed.quarantine == [dict(q, deadline_hit=False)
                                      for q in current.quarantine]


class TestQuarantine:
    def test_persistent_failure_is_quarantined_not_fatal(self):
        # Positions 0..2 exhaust the 3-attempt policy on site 0 of the
        # first unit; position 10 is a one-off that retry heals.
        inj = scheduled_injector(
            positions={"behavior.evaluate": {0, 1, 2, 10}})
        result = CampaignRunner(make_campaign(inj), max_attempts=3).run(
            [bridge_spec()])
        assert sum(r.errors for r in result.records) == 1
        assert len(result.quarantine) == 1
        entry = result.quarantine[0]
        assert entry["site_index"] == 0
        assert entry["attempts"] == 3
        assert "InjectedFault" in entry["error"]
        assert result.retry_stats.retries >= 3

    def test_quarantined_site_not_counted_detected(self):
        """errors + detected never exceeds the population."""
        inj = FaultInjector(rates={"behavior.evaluate": 0.2}, seed=5)
        # No retry: quarantine often.
        result = CampaignRunner(make_campaign(inj), max_attempts=1).run(
            [bridge_spec()])
        assert sum(r.errors for r in result.records) > 0
        for rec in result.records:
            assert rec.detected + rec.errors <= rec.total
            unit_id = f"{rec.kind}:{rec.resistance!r}:{rec.condition}"
            assert rec.errors == sum(
                1 for q in result.quarantine if q["unit_id"] == unit_id)

    def test_injector_probed_once_per_site_attempt(self, tmp_path):
        """The campaign's injector sees one ``behavior.evaluate`` probe
        per site and attempt, and the checkpoint writes probe it too."""
        inj = scheduled_injector(positions={"behavior.evaluate": {5}})
        result = CampaignRunner(make_campaign(inj),
                                checkpoint_path=tmp_path / "ck.json").run(
            [bridge_spec()])
        stats = inj.stats()
        units = result.executed_units
        assert stats["behavior.evaluate"] == {
            "calls": units * N_SITES + 1, "injected": 1}
        assert result.retry_stats.retries == 1 and not result.quarantine
        for site in ("io.write", "io.fsync", "io.replace"):
            assert stats[site]["calls"] >= units
            assert stats[site]["injected"] == 0
        plain = CampaignRunner(make_campaign()).run([bridge_spec()])
        assert records_bytes(result.records) == records_bytes(
            plain.records)

    def test_chaos_quarantine_is_deterministic(self):
        """Same seed -> same quarantine ledger, run to run."""
        def run_once():
            inj = FaultInjector(rates={"behavior.evaluate": 0.1}, seed=9)
            return CampaignRunner(make_campaign(inj), max_attempts=2).run(
                [bridge_spec()])

        a, b = run_once(), run_once()
        assert a.quarantine == b.quarantine
        assert records_bytes(a.records) == records_bytes(b.records)


class TestDeadline:
    def test_unit_deadline_aborts_resumably(self, tmp_path):
        now = [0.0]

        def clock():
            now[0] += 1.0  # every site evaluation "takes" one second
            return now[0]

        ck = tmp_path / "ck.json"
        runner = CampaignRunner(per_site_campaign(), checkpoint_path=ck,
                                unit_deadline=10.0, clock=clock)
        with pytest.raises(UnitDeadlineExceeded, match="checkpointed"):
            runner.run([bridge_spec()])
        # Nothing committed (first unit overran), but the file is sane.
        assert not ck.exists() or CampaignCheckpoint.load(ck)

    def test_validation(self):
        with pytest.raises(ValueError, match="unit_deadline"):
            CampaignRunner(make_campaign(), unit_deadline=0.0)


class TestStatus:
    def test_status_progression(self, tmp_path):
        ck = tmp_path / "ck.json"
        runner = CampaignRunner(make_campaign(), checkpoint_path=ck)
        spec = bridge_spec()
        assert runner.status([spec])["completed_units"] == 0
        runner.run([spec])
        status = runner.status([spec])
        assert status["completed_units"] == 4
        assert status["total_units"] == 4
        assert status["remaining_units"] == 0

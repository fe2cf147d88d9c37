"""Tests for repro.perf.supervisor: heal worker death without losing work.

The acceptance claims of the supervised pool, end to end:

* an injected worker death (exit or hang) is healed by a pool rebuild
  and the campaign's records stay **byte-identical** to an undisturbed
  serial run, with the recovery visible as ``pool.*`` journal events;
* a genuine poison unit is quarantined into its coverage record's
  error ledger instead of aborting the campaign;
* an exhausted rebuild budget degrades to serial in-parent evaluation
  rather than aborting;
* a pool that breaks while the parent is still submitting chunks is
  healed like a death seen while waiting on one;
* a failed worker initializer surfaces as :class:`WorkerInitError`
  naming the cause (fatal: no rebuild);
* fork-copied chaos counters merge back so ``FaultInjector.stats()``
  agrees between serial and pooled runs;
* a campaign interrupted *while healing* worker deaths resumes to the
  undisturbed serial result.
"""

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.models import DefectKind
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.obs import read_journal
from repro.perf import supervisor
from repro.perf.executor import WorkerInitError
from repro.perf.supervisor import SupervisedUnitExecutor
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.chaos import (
    WORKER_EXIT_SITE,
    WORKER_HANG_SITE,
    ChaosBehaviorModel,
    FaultInjector,
    InjectedCrash,
)
from repro.runner.retry import RetryPolicy
from repro.runner.units import plan_units
from repro.stress import production_conditions

GEOM = MemoryGeometry(16, 2, 4)
N_SITES = 40
SEED = 11


def make_campaign(injector=None):
    campaign = IfaCampaign(GEOM, CMOS018, n_sites=N_SITES, seed=SEED)
    if injector is not None:
        campaign.behavior = ChaosBehaviorModel(campaign.behavior, injector)
    return campaign


def conditions(n=2):
    conds = production_conditions(CMOS018)
    return tuple(conds.values())[:n]


def bridge_spec():
    return SweepSpec.of(DefectKind.BRIDGE, (1e3, 10e3), conditions())


def wide_spec():
    return SweepSpec.of(DefectKind.BRIDGE, (20.0, 1e3, 10e3, 90e3),
                        conditions(3))


def spec_unit_ids(spec):
    return [u.unit_id for u in
            plan_units(spec.kind, spec.resistances, spec.conditions)]


def records_bytes(records):
    return json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True).encode()


def exit_injector(unit_ids, times=1):
    return FaultInjector(worker_faults={
        WORKER_EXIT_SITE: {uid: times for uid in unit_ids}})


class TestWorkerDeathHeals:
    def test_exit_heals_byte_identical(self, tmp_path):
        """An injected worker death rebuilds the pool; records match."""
        spec = wide_spec()
        baseline = CampaignRunner(make_campaign()).run([spec])
        victim = spec_unit_ids(spec)[1]

        journal = tmp_path / "run.jsonl"
        result = CampaignRunner(
            make_campaign(exit_injector([victim])),
            workers=2, journal=journal).run([spec])

        assert records_bytes(result.records) == records_bytes(
            baseline.records)
        stats = result.supervisor_stats
        assert stats["worker_losses"] >= 1
        assert stats["rebuilds"] >= 1
        assert stats["poison_units"] == 0
        _, events = read_journal(journal)
        names = {e.name for e in events}
        assert {"pool.worker_lost", "pool.redispatch",
                "pool.rebuild"} <= names

    def test_undisturbed_run_emits_no_pool_events(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        result = CampaignRunner(make_campaign(), workers=2,
                                journal=journal).run([bridge_spec()])
        assert result.supervisor_stats == {
            "worker_losses": 0, "deadline_losses": 0, "rebuilds": 0,
            "redispatched_units": 0, "poison_units": 0,
            "degraded_units": 0}
        _, events = read_journal(journal)
        assert not [e for e in events if e.name.startswith("pool.")]

    def test_hang_detected_by_chunk_deadline(self):
        """A hung worker trips the parent-side deadline, then heals."""
        spec = bridge_spec()
        baseline = CampaignRunner(make_campaign()).run([spec])
        victim = spec_unit_ids(spec)[1]
        inj = FaultInjector(
            worker_faults={WORKER_HANG_SITE: {victim: 1}},
            hang_seconds=30.0)

        result = CampaignRunner(
            make_campaign(inj), workers=2, chunksize=1,
            unit_deadline=5.0, chunk_deadline_factor=0.2).run([spec])

        assert records_bytes(result.records) == records_bytes(
            baseline.records)
        assert result.supervisor_stats["deadline_losses"] >= 1
        assert result.supervisor_stats["rebuilds"] >= 1


def pool_breaking_on_submit(k):
    """A pool class whose k-th ``submit`` (counted across every pool
    built from it) finds the pool broken, as when a worker dies while
    the parent is still submitting chunks."""

    class BreaksOnSubmit(ProcessPoolExecutor):
        submits = 0

        def submit(self, fn, /, *args, **kwargs):
            BreaksOnSubmit.submits += 1
            if BreaksOnSubmit.submits == k:
                raise BrokenProcessPool("worker lost during submit (test)")
            return super().submit(fn, *args, **kwargs)

    return BreaksOnSubmit


class TestSubmitRace:
    @pytest.mark.parametrize("k", [1, 3])
    def test_broken_submit_heals_byte_identical(self, tmp_path,
                                                monkeypatch, k):
        spec = wide_spec()
        baseline = CampaignRunner(make_campaign()).run([spec])
        monkeypatch.setattr(supervisor, "ProcessPoolExecutor",
                            pool_breaking_on_submit(k))

        journal = tmp_path / "run.jsonl"
        result = CampaignRunner(make_campaign(), workers=2, chunksize=1,
                                journal=journal).run([spec])

        assert records_bytes(result.records) == records_bytes(
            baseline.records)
        assert result.supervisor_stats["worker_losses"] == 1
        assert result.supervisor_stats["rebuilds"] == 1
        _, events = read_journal(journal)
        assert [e.data["cause"] for e in events
                if e.name == "pool.worker_lost"] == ["worker-lost"]
        assert [e for e in events if e.name == "pool.rebuild"]


class TestPoisonUnit:
    def test_poison_unit_quarantined_not_fatal(self, tmp_path):
        """A unit that always kills its worker lands in the ledger."""
        spec = bridge_spec()
        baseline = CampaignRunner(make_campaign()).run([spec])
        unit_ids = spec_unit_ids(spec)
        poison = unit_ids[1]

        journal = tmp_path / "run.jsonl"
        result = CampaignRunner(
            make_campaign(exit_injector([poison], times=1000)),
            workers=2, chunksize=1, journal=journal).run([spec])

        assert result.supervisor_stats["poison_units"] == 1
        assert len(result.records) == len(baseline.records)
        bad = result.records[unit_ids.index(poison)]
        assert bad.detected == 0
        assert bad.errors == bad.total > 0
        # Every other unit's record is the undisturbed one.
        for i, (got, want) in enumerate(
                zip(result.records, baseline.records)):
            if i != unit_ids.index(poison):
                assert got == want
        entries = [q for q in result.quarantine
                   if q["unit_id"] == poison]
        assert len(entries) == 1
        assert entries[0]["site_index"] == -1
        assert entries[0]["defect"] == "<entire unit>"
        _, events = read_journal(journal)
        assert [e for e in events if e.name == "pool.poison_unit"]


class TestDegradeSerial:
    def test_budget_exhausted_degrades_not_aborts(self, tmp_path):
        spec = wide_spec()
        baseline = CampaignRunner(make_campaign()).run([spec])
        victim = spec_unit_ids(spec)[1]

        journal = tmp_path / "run.jsonl"
        result = CampaignRunner(
            make_campaign(exit_injector([victim])),
            workers=2, chunksize=1, max_pool_rebuilds=0,
            journal=journal).run([spec])

        assert records_bytes(result.records) == records_bytes(
            baseline.records)
        assert result.supervisor_stats["rebuilds"] == 0
        assert result.supervisor_stats["degraded_units"] > 0
        _, events = read_journal(journal)
        assert [e for e in events if e.name == "pool.degrade_serial"]

    def test_rebuild_budget_validation(self):
        with pytest.raises(ValueError, match="max_pool_rebuilds"):
            SupervisedUnitExecutor(make_campaign(), max_pool_rebuilds=-1)
        with pytest.raises(ValueError, match="chunk_deadline_factor"):
            SupervisedUnitExecutor(make_campaign(),
                                   chunk_deadline_factor=0.0)


class _UnpicklableInWorker:
    """Pickles fine in the parent; explodes when a worker unpickles it."""

    def __init__(self):
        # Non-empty state, so unpickling really calls __setstate__.
        self.armed = True

    def __setstate__(self, state):
        raise RuntimeError("exploding payload (test)")


class TestWorkerInitError:
    def make_broken_campaign(self):
        campaign = make_campaign()
        campaign.bomb = _UnpicklableInWorker()
        return campaign

    def test_bare_executor_names_cause(self):
        """The pool executor alone, without a runner, names the cause."""
        executor = SupervisedUnitExecutor(self.make_broken_campaign(),
                                          workers=2)
        units = plan_units(DefectKind.BRIDGE, (1e3,), conditions(1))
        with pytest.raises(WorkerInitError,
                           match="exploding payload"):
            list(executor.run(units))
        assert executor.stats.rebuilds == 0

    def test_supervisor_does_not_rebuild_on_init_failure(self):
        runner = CampaignRunner(self.make_broken_campaign(), workers=2)
        with pytest.raises(WorkerInitError, match="exploding payload"):
            runner.run([bridge_spec()])
        assert runner._supervisor.stats.rebuilds == 0


class TestInjectorStatsMerge:
    def test_pooled_stats_match_serial(self):
        """Fork-copied chaos counters merge back via UnitOutcome."""
        spec = bridge_spec()
        retry = RetryPolicy(max_attempts=6, base_delay=0.0, jitter=0.0)

        serial_inj = FaultInjector(
            seed=9, rates={"behavior.evaluate": 0.03},
            scope_by_unit=True)
        serial = CampaignRunner(make_campaign(serial_inj),
                                retry=retry).run([spec])

        pooled_inj = FaultInjector(
            seed=9, rates={"behavior.evaluate": 0.03},
            scope_by_unit=True)
        pooled = CampaignRunner(make_campaign(pooled_inj), retry=retry,
                                workers=4).run([spec])

        assert records_bytes(pooled.records) == records_bytes(
            serial.records)
        assert serial_inj.stats()["behavior.evaluate"]["injected"] > 0
        assert pooled_inj.stats() == serial_inj.stats()


class TestResumeAfterWorkerDeath:
    def test_interrupted_healing_run_resumes_byte_identical(
            self, tmp_path):
        """Worker death + parent crash + resume == undisturbed serial."""
        ck = tmp_path / "ck.json"
        spec = wide_spec()
        baseline = CampaignRunner(make_campaign()).run([spec])
        victim = spec_unit_ids(spec)[1]

        inj = FaultInjector(
            worker_faults={WORKER_EXIT_SITE: {victim: 1}},
            crash_positions={"io.replace": {6}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make_campaign(inj), checkpoint_path=ck,
                           workers=2, fault_hook=inj.check).run([spec])

        resumed = CampaignRunner(make_campaign(), checkpoint_path=ck,
                                 workers=2).run([spec])
        assert resumed.resumed_units > 0
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)

"""Tests for the worker pool: chunking, byte-identity, chaos, resume.

The pool is :class:`~repro.perf.supervisor.SupervisedUnitExecutor`
over the worker-side helpers of :mod:`repro.perf.executor`; the
serial runner it must match is the grid evaluator, and the per-site
:class:`~repro.runner.evaluate.UnitEvaluator` is the oracle for the
retry tallies.
"""

import dataclasses
import json

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.models import DefectKind
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.perf.executor import DEFAULT_CHUNKS_PER_WORKER, chunk_units
from repro.perf.supervisor import SupervisedUnitExecutor
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.evaluate import UnitEvaluator
from repro.runner.chaos import (
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


def records_bytes(records):
    return json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True).encode()


class TestChunking:
    def units(self, n):
        return plan_units(DefectKind.BRIDGE,
                          [float(i + 1) for i in range(n)], conditions(1))

    def test_chunks_cover_in_order(self):
        units = self.units(10)
        chunks = chunk_units(units, workers=3, chunksize=4)
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert [u.unit_id for c in chunks for u in c] == [
            u.unit_id for u in units]

    def test_auto_chunksize_targets_chunks_per_worker(self):
        units = self.units(32)
        chunks = chunk_units(units, workers=4)
        assert len(chunks) == 4 * DEFAULT_CHUNKS_PER_WORKER

    def test_small_input_one_unit_chunks(self):
        assert [len(c) for c in chunk_units(self.units(3), workers=4)] == [
            1, 1, 1]

    def test_empty_input(self):
        assert chunk_units([], workers=2) == []

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0), dict(workers=2, chunksize=0),
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            chunk_units(self.units(2), **kwargs)


class TestParallelMatchesSerial:
    def test_byte_identical_records(self):
        """The headline guarantee: workers change nothing but wall time."""
        spec = wide_spec()
        serial = CampaignRunner(make_campaign()).run([spec])
        parallel = CampaignRunner(make_campaign(), workers=4).run([spec])
        assert records_bytes(parallel.records) == records_bytes(
            serial.records)
        assert parallel.executed_units == serial.executed_units
        # The pool runs the per-site evaluator: one call per site.
        oracle = UnitEvaluator(make_campaign())
        calls = sum(oracle.evaluate(unit).stats.calls for unit in
                    plan_units(spec.kind, spec.resistances,
                               spec.conditions))
        assert parallel.retry_stats.calls == calls

    def test_explicit_chunksize(self):
        spec = bridge_spec()
        serial = CampaignRunner(make_campaign()).run([spec])
        parallel = CampaignRunner(make_campaign(), workers=2,
                                  chunksize=3).run([spec])
        assert records_bytes(parallel.records) == records_bytes(
            serial.records)

    def test_executor_yields_plan_order(self):
        units = plan_units(DefectKind.BRIDGE, (1e3, 10e3), conditions())
        executor = SupervisedUnitExecutor(make_campaign(), workers=2,
                                          chunksize=1)
        outcomes = list(executor.run(units))
        assert [o.unit_id for o in outcomes] == [u.unit_id for u in units]
        assert [o.index for o in outcomes] == [u.index for u in units]

    def test_empty_units(self):
        executor = SupervisedUnitExecutor(make_campaign(), workers=2)
        assert list(executor.run([])) == []

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignRunner(make_campaign(), workers=0)
        with pytest.raises(ValueError, match="workers"):
            SupervisedUnitExecutor(make_campaign(), workers=0)


class TestResumeWithWorkers:
    def test_serial_checkpoint_resumes_parallel(self, tmp_path):
        """workers is an execution knob, not campaign identity."""
        ck = tmp_path / "ck.json"
        spec = wide_spec()
        baseline = CampaignRunner(make_campaign()).run([spec])

        inj = FaultInjector(crash_positions={"behavior.evaluate": {150}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make_campaign(inj),
                           checkpoint_path=ck).run([spec])

        resumed = CampaignRunner(make_campaign(), checkpoint_path=ck,
                                 workers=4).run([spec])
        assert resumed.resumed_units > 0
        assert resumed.executed_units > 0
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)

    def test_parallel_crash_resumes_serial(self, tmp_path):
        """A worker crash leaves a valid checkpointed prefix behind."""
        ck = tmp_path / "ck.json"
        spec = wide_spec()
        baseline = CampaignRunner(make_campaign()).run([spec])

        # Positions are per-process with workers; a small position
        # crashes whichever worker evaluates its first sites.
        inj = FaultInjector(crash_positions={"behavior.evaluate": {5}})
        with pytest.raises((InjectedCrash, Exception)):
            CampaignRunner(make_campaign(inj), checkpoint_path=ck,
                           workers=2, chunksize=1).run([spec])

        resumed = CampaignRunner(make_campaign(),
                                 checkpoint_path=ck).run([spec])
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)


class TestChaosWithWorkers:
    def test_rate_chaos_heals_under_retry(self):
        """Injected transient faults retry to clean records in workers."""
        spec = bridge_spec()
        healthy = CampaignRunner(make_campaign()).run([spec])
        inj = FaultInjector(seed=9,
                            rates={"behavior.evaluate": 0.02})
        chaotic = CampaignRunner(
            make_campaign(inj), workers=4,
            retry=RetryPolicy(max_attempts=6, base_delay=0.0, jitter=0.0),
        ).run([spec])
        # Clean records equal healthy values: an InjectedFault raises
        # before the inner evaluation, and the retry re-asks the pure
        # model.
        assert records_bytes(chaotic.records) == records_bytes(
            healthy.records)
        assert chaotic.total_errors == 0

    def test_injected_crash_propagates_from_worker(self):
        """BaseException crosses the pool boundary (no silent loss)."""
        inj = FaultInjector(crash_positions={"behavior.evaluate": {0}})
        runner = CampaignRunner(make_campaign(inj), workers=2,
                                chunksize=1)
        with pytest.raises(InjectedCrash):
            runner.run([bridge_spec()])

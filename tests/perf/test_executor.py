"""Tests for the worker pool: chunking, byte-identity, chaos, resume.

The pool is :class:`~repro.perf.supervisor.SupervisedUnitExecutor`
over the worker-side helpers of :mod:`repro.perf.executor`, and its
only client is the streaming lot: every claim here compares a pooled
:class:`~repro.experiment.StreamingRunner` run against the serial one
on a small four-shard lot.
"""

import pytest

from repro.experiment import (
    ExperimentAccumulator,
    ShardPlan,
    StreamingExperiment,
    StreamingRunner,
)
from repro.perf.executor import DEFAULT_CHUNKS_PER_WORKER, chunk_units
from repro.perf.supervisor import SupervisedUnitExecutor
from repro.runner.atomic import canonical_json
from repro.runner.chaos import (
    ChaosBehaviorModel,
    FaultInjector,
    InjectedCrash,
)
from repro.runner.retry import RetryPolicy

N_DEVICES = 8192
SHARD_DEVICES = 2048


def make_lot(injector=None):
    """The four-shard test lot, chaos-wrapped when given an injector."""
    behavior = None
    if injector is not None:
        behavior = ChaosBehaviorModel(
            StreamingExperiment(n_devices=N_DEVICES).behavior, injector)
    return StreamingExperiment(n_devices=N_DEVICES,
                               shard_devices=SHARD_DEVICES,
                               block_devices=1024, behavior=behavior)


def payload_bytes(result):
    return canonical_json(result.accumulator.as_payload())


def outcomes_bytes(outcomes):
    """Reduce shard outcomes in order, as the runner does."""
    total = ExperimentAccumulator()
    for outcome in outcomes:
        total.merge(ExperimentAccumulator.from_payload(outcome.record))
    return canonical_json(total.as_payload())


@pytest.fixture(scope="module")
def baseline():
    """The undisturbed serial payload of the test lot."""
    return payload_bytes(StreamingRunner(make_lot()).run())


class TestChunking:
    def units(self, n):
        return ShardPlan(n * 1024, shard_devices=1024,
                         block_devices=1024).shards()

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
    def test_byte_identical_records(self, baseline):
        """The headline guarantee: workers change nothing but wall time."""
        parallel = StreamingRunner(make_lot(), workers=2).run()
        assert payload_bytes(parallel) == baseline
        assert parallel.executed_shards == len(make_lot().plan.shards())

    def test_explicit_chunksize(self, baseline):
        lot = make_lot()
        executor = SupervisedUnitExecutor(lot, workers=2, chunksize=3)
        assert outcomes_bytes(executor.run(lot.plan.shards())) == baseline

    def test_executor_yields_plan_order(self):
        lot = make_lot()
        shards = lot.plan.shards()
        executor = SupervisedUnitExecutor(lot, workers=2, chunksize=1)
        outcomes = list(executor.run(shards))
        assert [o.unit_id for o in outcomes] == [s.unit_id for s in shards]
        assert [o.index for o in outcomes] == [s.index for s in shards]

    def test_empty_units(self):
        executor = SupervisedUnitExecutor(make_lot(), workers=2)
        assert list(executor.run([])) == []

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            StreamingRunner(make_lot(), workers=0)
        with pytest.raises(ValueError, match="workers"):
            SupervisedUnitExecutor(make_lot(), workers=0)


class TestResumeWithWorkers:
    def test_serial_checkpoint_resumes_parallel(self, tmp_path, baseline):
        """workers is an execution knob, not lot identity."""
        ck = tmp_path / "ck.json"
        # ~280 model calls per shard: position 600 dies in shard 2.
        inj = FaultInjector(crash_positions={"behavior.evaluate": {600}})
        with pytest.raises(InjectedCrash):
            StreamingRunner(make_lot(inj), checkpoint_path=ck).run()

        resumed = StreamingRunner(make_lot(), checkpoint_path=ck,
                                  workers=2).run()
        assert resumed.resumed_shards > 0
        assert resumed.executed_shards > 0
        assert payload_bytes(resumed) == baseline

    def test_parallel_crash_resumes_serial(self, tmp_path, baseline):
        """A worker crash leaves a valid checkpointed prefix behind."""
        ck = tmp_path / "ck.json"
        # Positions count per process; a small one crashes whichever
        # worker classifies its first chips.
        inj = FaultInjector(crash_positions={"behavior.evaluate": {5}})
        with pytest.raises(InjectedCrash):
            StreamingRunner(make_lot(inj), checkpoint_path=ck,
                            workers=2).run()

        resumed = StreamingRunner(make_lot(), checkpoint_path=ck).run()
        assert payload_bytes(resumed) == baseline


class TestChaosWithWorkers:
    def test_rate_chaos_heals_under_retry(self, baseline):
        """Injected transient faults retry to clean payloads in workers."""
        inj = FaultInjector(seed=9, rates={"behavior.evaluate": 0.01})
        chaotic = StreamingRunner(
            make_lot(inj), workers=2,
            retry=RetryPolicy(max_attempts=6, base_delay=0.0, jitter=0.0),
        ).run()
        # An InjectedFault raises before the inner evaluation, and the
        # per-chip retry re-asks the pure model.
        assert payload_bytes(chaotic) == baseline
        assert inj.stats()["behavior.evaluate"]["injected"] > 0
        assert chaotic.accumulator.errors == 0
        assert chaotic.quarantine == []

    def test_injected_crash_propagates_from_worker(self):
        """BaseException crosses the pool boundary (no silent loss)."""
        inj = FaultInjector(crash_positions={"behavior.evaluate": {0}})
        runner = StreamingRunner(make_lot(inj), workers=2)
        with pytest.raises(InjectedCrash):
            runner.run()

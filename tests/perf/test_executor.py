"""Tests for the worker pool: byte-identity, plan order, chaos, resume.

The pool is :class:`~repro.perf.supervisor.SupervisedUnitExecutor`
over the worker-side helpers of :mod:`repro.perf.executor`, and its
only client is the streaming lot: every claim here compares a pooled
:class:`~repro.experiment.streaming.runner.StreamingRunner` run against
the serial one on a small four-shard lot.
"""

import pytest

from repro.experiment.streaming.accumulator import ExperimentAccumulator
from repro.experiment.streaming.engine import StreamingExperiment
from repro.experiment.streaming.runner import StreamingRunner
from repro.perf.supervisor import SupervisedUnitExecutor
from repro.runner.atomic import canonical_json
from repro.runner.chaos import InjectedCrash

N_DEVICES = 8192
SHARD_DEVICES = 2048


class CrashingLot(StreamingExperiment):
    """The test lot, dying (``kill -9`` style) as it draws one block."""

    def __init__(self, crash_block):
        super().__init__(n_devices=N_DEVICES, shard_devices=SHARD_DEVICES,
                         block_devices=1024)
        self.crash_block = crash_block

    def block_defects(self, block_index, start, stop):
        if block_index == self.crash_block:
            raise InjectedCrash(f"injected crash in block {block_index}")
        return super().block_defects(block_index, start, stop)


def make_lot():
    """The four-shard test lot (two 1024-device blocks per shard)."""
    return StreamingExperiment(n_devices=N_DEVICES,
                               shard_devices=SHARD_DEVICES,
                               block_devices=1024)


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


class TestParallelMatchesSerial:
    def test_byte_identical_records(self, baseline):
        """The headline guarantee: workers change nothing but wall time."""
        parallel = StreamingRunner(make_lot(), workers=2).run()
        assert payload_bytes(parallel) == baseline
        assert parallel.executed_shards == len(make_lot().plan.shards())

    def test_executor_yields_plan_order(self, baseline):
        lot = make_lot()
        shards = lot.plan.shards()
        executor = SupervisedUnitExecutor(lot, workers=2)
        outcomes = list(executor.run(shards))
        assert outcomes_bytes(outcomes) == baseline
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
        # Block 4 is the first of shard 2.
        with pytest.raises(InjectedCrash):
            StreamingRunner(CrashingLot(4), checkpoint_path=ck).run()

        resumed = StreamingRunner(make_lot(), checkpoint_path=ck,
                                  workers=2).run()
        assert resumed.resumed_shards > 0
        assert resumed.executed_shards > 0
        assert payload_bytes(resumed) == baseline

    def test_parallel_crash_resumes_serial(self, tmp_path, baseline):
        """A worker crash leaves a valid checkpointed prefix behind."""
        ck = tmp_path / "ck.json"
        with pytest.raises(InjectedCrash):
            StreamingRunner(CrashingLot(2), checkpoint_path=ck,
                            workers=2).run()

        resumed = StreamingRunner(make_lot(), checkpoint_path=ck).run()
        assert payload_bytes(resumed) == baseline


class TestChaosWithWorkers:
    def test_injected_crash_propagates_from_worker(self):
        """BaseException crosses the pool boundary (no silent loss)."""
        runner = StreamingRunner(CrashingLot(0), workers=2)
        with pytest.raises(InjectedCrash):
            runner.run()

"""Tests for repro.perf.supervisor: heal worker death without losing work.

The supervised pool serves the streaming lot, so every claim is made on
a small :class:`~repro.experiment.streaming.engine.StreamingExperiment`
carrying a worker-fault injector (four shards, or 32 where the pool
must keep working past a fault; every pool task is one shard):

* an injected worker death (exit or hang) is healed by a pool rebuild
  and the lot's payload stays **byte-identical** to an undisturbed
  serial run, with the recovery visible as ``pool.*`` journal events;
* a genuine poison shard is quarantined (its devices counted as
  errors) instead of aborting the lot, after exactly
  :data:`~repro.perf.supervisor.POISON_AFTER` worker losses, and a hung
  worker costs exactly one deadline loss, however long the lot;
* an exhausted rebuild budget degrades to serial in-parent evaluation
  rather than aborting;
* a pool that breaks while the parent is still submitting shards is
  healed like a death seen while waiting on one;
* a failed worker initializer surfaces as :class:`WorkerInitError`
  naming the cause (fatal: no rebuild);
* a lot interrupted *while healing* worker deaths resumes to the
  undisturbed serial result.
"""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiment.streaming.accumulator import ExperimentAccumulator
from repro.experiment.streaming.engine import (
    ShardEvaluator,
    StreamingExperiment,
)
from repro.experiment.streaming.runner import StreamingRunner
from repro.obs.bus import read_journal
from repro.perf import supervisor
from repro.perf.executor import WorkerInitError
from repro.perf.supervisor import SupervisedUnitExecutor
from repro.runner.atomic import canonical_json
from repro.runner.chaos import (
    WORKER_EXIT_SITE,
    WORKER_HANG_SITE,
    FaultInjector,
    InjectedCrash,
)

N_DEVICES = 8192
SHARD_DEVICES = 2048


def make_lot(injector=None):
    """The four-shard test lot, with an optional worker-fault injector."""
    return StreamingExperiment(n_devices=N_DEVICES,
                               shard_devices=SHARD_DEVICES,
                               block_devices=1024, injector=injector)


def make_wide_lot(injector=None):
    """A 32-shard lot: plenty of healthy shards around a faulty one."""
    return StreamingExperiment(n_devices=32 * 1024, shard_devices=1024,
                               block_devices=1024, injector=injector)


def shard_ids():
    return [shard.unit_id for shard in make_lot().plan.shards()]


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


@pytest.fixture(scope="module")
def wide_baseline():
    """The undisturbed serial payload of the 32-shard lot."""
    return payload_bytes(StreamingRunner(make_wide_lot()).run())


def poisoned_fold(lot, poison):
    """The serial fold of ``lot`` with shard ``poison`` all errors."""
    evaluator = ShardEvaluator(lot)
    expected = ExperimentAccumulator()
    for shard in lot.plan.shards():
        if shard.unit_id == poison:
            expected.merge(ExperimentAccumulator(
                devices=shard.devices, errors=shard.devices))
        else:
            expected.merge(ExperimentAccumulator.from_payload(
                evaluator.evaluate(shard).record))
    return canonical_json(expected.as_payload())


def exit_injector(unit_ids, times=1):
    return FaultInjector(worker_faults={
        WORKER_EXIT_SITE: {uid: times for uid in unit_ids}})


def pool_events(journal):
    _, events = read_journal(journal)
    return [e for e in events if e.name.startswith("pool.")]


class TestWorkerDeathHeals:
    def test_exit_heals_byte_identical(self, tmp_path, baseline):
        """An injected worker death rebuilds the pool; payloads match."""
        journal = tmp_path / "run.jsonl"
        result = StreamingRunner(
            make_lot(exit_injector([shard_ids()[1]])),
            workers=2, journal=journal).run()

        assert payload_bytes(result) == baseline
        stats = result.supervisor_stats
        assert stats["worker_losses"] >= 1
        assert stats["rebuilds"] >= 1
        assert stats["poison_units"] == 0
        assert {"pool.worker_lost", "pool.redispatch",
                "pool.rebuild"} <= {e.name for e in pool_events(journal)}

    def test_undisturbed_run_emits_no_pool_events(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        result = StreamingRunner(make_lot(), workers=2,
                                 journal=journal).run()
        assert result.supervisor_stats == {
            "worker_losses": 0, "deadline_losses": 0, "rebuilds": 0,
            "redispatched_units": 0, "poison_units": 0,
            "degraded_units": 0}
        assert pool_events(journal) == []

    def test_hang_needs_unit_deadline(self):
        """Without a shard deadline nothing would ever end an injected
        hang, so the runner refuses the table up front."""
        lot = make_lot(FaultInjector(
            worker_faults={WORKER_HANG_SITE: {shard_ids()[1]: 1}}))
        with pytest.raises(ValueError,
                           match="worker.hang fault needs unit_deadline"):
            StreamingRunner(lot, workers=2)
        StreamingRunner(lot, workers=2, unit_deadline=5.0)

    def test_hang_detected_by_chunk_deadline(self, monkeypatch,
                                             wide_baseline):
        """A hung worker trips the parent-side deadline once, then
        heals: every other shard finished meanwhile and is salvaged."""
        monkeypatch.setattr(supervisor, "HANG_DEADLINE_FACTOR", 0.4)
        hung = make_wide_lot().plan.shards()[1].unit_id
        lot = make_wide_lot(FaultInjector(
            worker_faults={WORKER_HANG_SITE: {hung: 1}}))
        executor = SupervisedUnitExecutor(lot, workers=2, unit_deadline=5.0)

        outcomes = list(executor.run(lot.plan.shards()))

        assert outcomes_bytes(outcomes) == wide_baseline
        assert executor.stats.as_dict() == {
            "worker_losses": 1, "deadline_losses": 1, "rebuilds": 1,
            "redispatched_units": 1, "poison_units": 0,
            "degraded_units": 0}


def pool_breaking_on_submit(k):
    """A pool class whose k-th ``submit`` (counted across every pool
    built from it) finds the pool broken, as when a worker dies while
    the parent is still submitting shards."""

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
                                                monkeypatch, baseline, k):
        monkeypatch.setattr(supervisor, "ProcessPoolExecutor",
                            pool_breaking_on_submit(k))

        journal = tmp_path / "run.jsonl"
        result = StreamingRunner(make_lot(), workers=2,
                                 journal=journal).run()

        assert payload_bytes(result) == baseline
        assert result.supervisor_stats["worker_losses"] == 1
        assert result.supervisor_stats["rebuilds"] == 1
        events = pool_events(journal)
        assert [e.data["cause"] for e in events
                if e.name == "pool.worker_lost"] == ["worker-lost"]
        assert [e for e in events if e.name == "pool.rebuild"]


class TestPoisonUnit:
    def test_poison_unit_quarantined_not_fatal(self, tmp_path):
        """A shard that always kills its worker lands in the ledger."""
        ids = shard_ids()
        poison = ids[1]

        journal = tmp_path / "run.jsonl"
        result = StreamingRunner(
            make_lot(exit_injector([poison], times=1000)),
            workers=2, journal=journal).run()

        assert result.supervisor_stats["poison_units"] == 1
        # Every other shard is the undisturbed one; the poison shard
        # claims nothing but its devices, all counted as errors.
        assert payload_bytes(result) == poisoned_fold(make_lot(), poison)
        assert result.accumulator.errors == SHARD_DEVICES
        assert len(result.quarantine) == 1
        entry = result.quarantine[0]
        assert entry["unit_id"] == poison
        assert entry["site_index"] == -1
        assert entry["defect"] == "<entire shard>"
        assert [e for e in pool_events(journal)
                if e.name == "pool.poison_unit"]

    def test_poison_isolated_in_poison_after_losses(self):
        """One shard per task: the poison shard is the only one ever
        blamed, so isolating it costs exactly POISON_AFTER losses,
        rebuilds and redispatches."""
        lot = make_wide_lot()
        poison = lot.plan.shards()[0].unit_id

        result = StreamingRunner(
            make_wide_lot(exit_injector([poison], times=1000)),
            workers=2).run()

        stats = result.supervisor_stats
        assert (stats["worker_losses"] == stats["rebuilds"]
                == stats["redispatched_units"] == supervisor.POISON_AFTER)
        assert stats["poison_units"] == 1
        assert payload_bytes(result) == poisoned_fold(lot, poison)


class TestDegradeSerial:
    def test_budget_exhausted_degrades_not_aborts(self, tmp_path,
                                                  monkeypatch, baseline):
        monkeypatch.setattr(supervisor, "MAX_POOL_REBUILDS", 0)
        journal = tmp_path / "run.jsonl"
        result = StreamingRunner(
            make_lot(exit_injector([shard_ids()[1]])),
            workers=2, journal=journal).run()

        assert payload_bytes(result) == baseline
        assert result.supervisor_stats["rebuilds"] == 0
        assert result.supervisor_stats["degraded_units"] > 0
        assert [e for e in pool_events(journal)
                if e.name == "pool.degrade_serial"]


class _UnpicklableInWorker:
    """Pickles fine in the parent; explodes when a worker unpickles it."""

    def __init__(self):
        # Non-empty state, so unpickling really calls __setstate__.
        self.armed = True

    def __setstate__(self, state):
        raise RuntimeError("exploding payload (test)")


class TestWorkerInitError:
    def make_broken_lot(self):
        lot = make_lot()
        lot.bomb = _UnpicklableInWorker()
        return lot

    def test_bare_executor_names_cause(self):
        """The pool executor alone, without a runner, names the cause."""
        lot = self.make_broken_lot()
        executor = SupervisedUnitExecutor(lot, workers=2)
        with pytest.raises(WorkerInitError, match="exploding payload"):
            list(executor.run(lot.plan.shards()[:1]))
        assert executor.stats.rebuilds == 0

    def test_supervisor_does_not_rebuild_on_init_failure(self):
        runner = StreamingRunner(self.make_broken_lot(), workers=2)
        with pytest.raises(WorkerInitError, match="exploding payload"):
            runner.run()
        assert runner._supervisor.stats.rebuilds == 0


class TestResumeAfterWorkerDeath:
    def test_interrupted_healing_run_resumes_byte_identical(
            self, tmp_path, baseline):
        """Serial crash -> pooled resume that heals a worker death and
        crashes again -> serial resume == undisturbed serial."""
        ck = tmp_path / "ck.json"
        ids = shard_ids()

        # A serial run dies on its second checkpoint write.
        inj = FaultInjector(crash_positions={"io.replace": {1}})
        with pytest.raises(InjectedCrash):
            StreamingRunner(make_lot(inj), checkpoint_path=ck).run()

        # The pool resumes it, loses a worker, heals, and dies too.
        journal = tmp_path / "pool.jsonl"
        inj = FaultInjector(
            worker_faults={WORKER_EXIT_SITE: {ids[1]: 1}},
            crash_positions={"io.replace": {1}})
        with pytest.raises(InjectedCrash):
            StreamingRunner(make_lot(inj), checkpoint_path=ck, workers=2,
                            journal=journal).run()
        assert "pool.worker_lost" in {e.name for e in
                                      pool_events(journal)}

        resumed = StreamingRunner(make_lot(), checkpoint_path=ck).run()
        assert resumed.resumed_shards >= 2
        assert payload_bytes(resumed) == baseline

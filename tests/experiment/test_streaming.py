"""Streaming sharded experiment: plan, accumulator, equivalence, chaos.

The load-bearing suite for :mod:`repro.experiment.streaming`: the shard
plan's determinism contract (results a pure function of ``(seed,
n_devices, block_devices)``), the accumulator's merge algebra, the
``scheme="legacy"`` byte-identity oracle against the materialise-
everything pipeline, checkpoint resume, and worker-kill chaos healing
without changing a single count.
"""

import json

import numpy as np
import pytest

from repro.defects.behavior import DefectBehaviorModel
from repro.experiment.classify import (
    FAIL_BIT_NAMES,
    DeviceRecord,
    StressClassifier,
    decode_fail_bits,
)
from repro.experiment.diagnosis import LotDiagnostician
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.experiment.streaming.accumulator import ExperimentAccumulator
from repro.experiment.streaming.engine import (
    DefectBlock,
    ShardEvaluator,
    StreamingExperiment,
)
from repro.experiment.streaming.plan import ShardPlan
from repro.experiment.streaming.runner import StreamingRunner
from repro.experiment.veqtor import VeqtorChip
from repro.runner.atomic import canonical_json
from repro.runner.chaos import WORKER_EXIT_SITE, FaultInjector
from repro.runner.checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatchError,
)
from repro.runner.evaluate import UnitDeadlineExceeded


def _engine(n_devices, *, seed=1105, scheme="spawn", shard_devices=None,
            block_devices=None, diagnose=False):
    return StreamingExperiment(
        n_devices=n_devices, seed=seed, scheme=scheme, diagnose=diagnose,
        **({"shard_devices": shard_devices}
           if shard_devices is not None else {}),
        **({"block_devices": block_devices}
           if block_devices is not None else {}))


def _payload(n_devices, *, workers=1, **kwargs):
    """One streaming run's canonical accumulator payload."""
    engine_kwargs = {key: kwargs.pop(key) for key in (
        "seed", "scheme", "shard_devices", "block_devices", "diagnose")
        if key in kwargs}
    runner = StreamingRunner(_engine(n_devices, **engine_kwargs),
                             workers=workers, **kwargs)
    return runner.run().accumulator.as_payload()


def _per_chip_payload(n_devices, **kwargs):
    """The oracle: fold ``classify_chip`` over every shard's chips."""
    engine = _engine(n_devices, **kwargs)
    classifier = engine.classifier
    total = ExperimentAccumulator()
    for shard in engine.plan.shards():
        acc = ExperimentAccumulator(devices=shard.devices)
        for chip in engine.iter_shard_chips(shard):
            record = classifier.classify_chip(chip)
            if record is None:
                continue
            acc.observe(record)
            if engine.diagnose and record.interesting:
                acc.observe_hints(
                    engine.diagnostician.diagnose_device(record).hints)
        total.merge(acc)
    return total.as_payload()


class TestShardPlan:
    def test_legacy_scheme_is_one_full_shard(self):
        plan = ShardPlan(10_000, scheme="legacy")
        shards = plan.shards()
        assert len(shards) == 1
        assert (shards[0].start, shards[0].stop) == (0, 10_000)

    def test_spawn_shards_tile_the_device_space(self):
        plan = ShardPlan(10_000, shard_devices=4096, block_devices=1024)
        shards = plan.shards()
        assert [(s.start, s.stop) for s in shards] == [
            (0, 4096), (4096, 8192), (8192, 10_000)]
        assert [s.index for s in shards] == [0, 1, 2]
        assert sum(s.devices for s in shards) == 10_000

    def test_blocks_carry_global_indices(self):
        plan = ShardPlan(16_384, shard_devices=8192, block_devices=4096)
        second = plan.shards()[1]
        assert plan.blocks_of(second) == [
            (2, 8192, 12_288), (3, 12_288, 16_384)]

    def test_unit_ids_are_stable_and_sortable(self):
        plan = ShardPlan(16_384, shard_devices=8192, block_devices=4096)
        ids = [s.unit_id for s in plan.shards()]
        assert ids == ["shard:00000:0-8192", "shard:00001:8192-16384"]
        assert ids == sorted(ids)

    def test_rejects_misaligned_shards(self):
        with pytest.raises(ValueError, match="block"):
            ShardPlan(10_000, shard_devices=5000, block_devices=4096)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            ShardPlan(10_000, scheme="interleaved")

    def test_rejects_nonpositive_devices(self):
        with pytest.raises(ValueError):
            ShardPlan(0)


def _record(chip_id, failed_standard=False, failed_stress=()):
    return DeviceRecord(chip=VeqtorChip(chip_id=chip_id),
                        failed_standard=failed_standard,
                        failed_stress=frozenset(failed_stress))


def _synthetic(devices, records, hints=()):
    acc = ExperimentAccumulator(devices=devices)
    for record in records:
        acc.observe(record)
    for hint_map in hints:
        acc.observe_hints(hint_map)
    return acc


class TestAccumulator:
    def test_observe_routes_standard_before_stress(self):
        acc = _synthetic(3, [
            _record(0, failed_standard=True, failed_stress=("VLV",)),
            _record(1, failed_stress=("VLV",)),
            _record(2, failed_stress=("VLV", "Vmax")),
        ])
        assert acc.defective == 3
        assert acc.standard_fails == 1
        assert acc.interesting == 2
        assert acc.class_counts[frozenset({"VLV"})] == 1

    def test_payload_round_trip_is_identity(self):
        acc = _synthetic(10, [
            _record(0, failed_stress=("VLV", "at-speed")),
            _record(1, failed_standard=True),
        ], hints=[{"VLV": "coupling"}])
        payload = acc.as_payload()
        rebuilt = ExperimentAccumulator.from_payload(payload)
        assert canonical_json(rebuilt.as_payload()) == (
            canonical_json(payload))
        assert json.loads(json.dumps(payload)) == payload

    def test_merge_equals_single_pass(self):
        records = [
            _record(i, failed_standard=(i % 5 == 0),
                    failed_stress=("VLV",) if i % 3 == 0 else ())
            for i in range(30)
        ]
        whole = _synthetic(30, records)
        left = _synthetic(10, records[:10])
        right = _synthetic(20, records[10:])
        assert canonical_json(left.merge(right).as_payload()) == (
            canonical_json(whole.as_payload()))

    def test_merge_is_commutative_and_associative(self):
        def fresh():
            a = _synthetic(4, [_record(0, failed_stress=("VLV",))],
                           hints=[{"VLV": "single-cell"}])
            b = _synthetic(6, [_record(1, failed_standard=True),
                               _record(2, failed_stress=("Vmax",))])
            c = _synthetic(2, [_record(3, failed_stress=("VLV",))])
            return a, b, c

        a, b, c = fresh()
        ab_c = a.merge(b).merge(c).as_payload()
        a, b, c = fresh()
        a_bc = a.merge(b.merge(c)).as_payload()
        a, b, c = fresh()
        cba = c.merge(b).merge(a).as_payload()
        assert canonical_json(ab_c) == canonical_json(a_bc)
        assert canonical_json(ab_c) == canonical_json(cba)

    def test_fail_bits_fold_like_records(self):
        words = [0b00001, 0b00100, 0b01100, 0b11110, 0b00000, 0b00100]
        records = [_record(i, *decode_fail_bits(w))
                   for i, w in enumerate(words)]
        by_bits = ExperimentAccumulator(devices=10)
        by_bits.observe_fail_bits(np.array(words, dtype=np.uint8))
        assert canonical_json(by_bits.as_payload()) == (
            canonical_json(_synthetic(10, records).as_payload()))

    def test_escape_dpm_guards_empty_accumulator(self):
        assert ExperimentAccumulator().escape_dpm("VLV") == 0.0

    def test_escape_dpm_counts_region_membership(self):
        acc = _synthetic(1_000_000, [
            _record(0, failed_stress=("VLV",)),
            _record(1, failed_stress=("VLV", "Vmax")),
            _record(2, failed_stress=("at-speed",)),
        ])
        assert acc.escape_dpm("VLV") == 2.0
        assert acc.escape_dpm("Vmax") == 1.0


class TestLegacyEquivalence:
    """``scheme="legacy"`` streaming is byte-identical to the old path."""

    N = 2048
    SEED = 77

    def test_single_shard_matches_materialised_pipeline(self):
        spec = PopulationSpec(n_devices=self.N, seed=self.SEED)
        chips = PopulationGenerator(spec).generate()
        legacy = ExperimentAccumulator.from_experiment(
            StressClassifier().classify(chips))
        streamed = _payload(self.N, seed=self.SEED, scheme="legacy")
        assert canonical_json(streamed) == (
            canonical_json(legacy.as_payload()))

    @pytest.mark.parametrize("diagnose", [False, True])
    @pytest.mark.parametrize("seed", [1, 7, 2005])
    def test_block_slices_equal_per_chip_oracle(self, seed, diagnose):
        """The legacy shard classifies block-sized slices through the
        kernel; the payload is the per-chip fold's, hints included."""
        kwargs = dict(seed=seed, scheme="legacy", block_devices=1024,
                      diagnose=diagnose)
        streamed = _payload(5000, **kwargs)
        assert streamed["defective"] > 0
        assert bool(streamed["hints"]) == diagnose
        assert canonical_json(streamed) == (
            canonical_json(_per_chip_payload(5000, **kwargs)))


class TestInvariance:
    """Results are a pure function of (seed, n_devices, block_devices)."""

    N = 16_384

    @pytest.fixture(scope="class")
    def base_payload(self):
        return _payload(self.N, shard_devices=8192)

    def test_shard_layout_does_not_change_results(self, base_payload):
        resharded = _payload(self.N, shard_devices=4096)
        assert canonical_json(resharded) == canonical_json(base_payload)

    def test_worker_count_does_not_change_results(self, base_payload):
        pooled = _payload(self.N, shard_devices=4096, workers=4)
        assert canonical_json(pooled) == canonical_json(base_payload)

    def test_block_size_is_part_of_the_population_identity(
            self, base_payload):
        reblocked = _payload(self.N, shard_devices=8192,
                             block_devices=2048)
        assert canonical_json(reblocked) != canonical_json(base_payload)

    def test_journals_byte_identical_across_worker_counts(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        _payload(self.N, shard_devices=4096, journal=serial)
        _payload(self.N, shard_devices=4096, workers=2, journal=pooled)
        assert serial.read_bytes() == pooled.read_bytes()


class TestResume:
    N = 16_384

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ckpt_path = tmp_path / "exp.ckpt.json"
        uninterrupted = _payload(self.N, shard_devices=4096)
        full = _payload(self.N, shard_devices=4096,
                        checkpoint_path=ckpt_path)
        assert canonical_json(full) == canonical_json(uninterrupted)

        # Rewind the checkpoint to "killed after two shards": keep the
        # first two completed units, drop the rest.
        done = CampaignCheckpoint.load(ckpt_path)
        engine = StreamingExperiment(n_devices=self.N,
                                     shard_devices=4096)
        partial = CampaignCheckpoint(engine.meta())
        shards = engine.plan.shards()
        assert len(shards) == 4
        for shard in shards[:2]:
            partial.record_unit(shard.unit_id,
                                done.result_for(shard.unit_id))
        partial.save(ckpt_path)

        runner = StreamingRunner(
            StreamingExperiment(n_devices=self.N, shard_devices=4096),
            checkpoint_path=ckpt_path)
        result = runner.run()
        assert result.resumed_shards == 2
        assert result.executed_shards == 2
        assert canonical_json(result.accumulator.as_payload()) == (
            canonical_json(uninterrupted))

    def test_checkpoint_saved_after_every_shard(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        _payload(self.N, shard_devices=4096,
                 checkpoint_path=tmp_path / "exp.ckpt.json",
                 journal=journal)
        saves = [e["data"]["completed_units"]
                 for e in map(json.loads, journal.read_text().splitlines())
                 if e.get("event") == "checkpoint.save"]
        assert saves == [1, 2, 3, 4]

    def test_mismatched_checkpoint_is_rejected(self, tmp_path):
        ckpt_path = tmp_path / "exp.ckpt.json"
        _payload(self.N, shard_devices=4096, checkpoint_path=ckpt_path)
        runner = StreamingRunner(
            StreamingExperiment(n_devices=self.N, shard_devices=4096,
                                seed=2),
            checkpoint_path=ckpt_path)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            runner.run()


class TestChaos:
    """Worker-kill chaos heals without changing a single count."""

    N = 8192

    def _chaotic_payload(self):
        victim = ShardPlan(self.N, shard_devices=4096).shards()[1].unit_id
        chaotic = StreamingExperiment(
            n_devices=self.N, shard_devices=4096,
            injector=FaultInjector(
                worker_faults={WORKER_EXIT_SITE: {victim: 1}}))
        runner = StreamingRunner(chaotic, workers=2)
        return runner.run()

    def test_worker_exit_heals_with_identical_results(self):
        clean = _payload(self.N, shard_devices=4096)
        result = self._chaotic_payload()
        assert result.supervisor_stats["worker_losses"] >= 1
        assert result.supervisor_stats["redispatched_units"] >= 1
        assert result.quarantine == []
        assert result.accumulator.errors == 0
        assert canonical_json(result.accumulator.as_payload()) == (
            canonical_json(clean))


class TestArrayPath:
    """Array classification of RNG blocks == chip-by-chip classify_chip."""

    @pytest.mark.parametrize("block_devices", [2048, 4096])
    @pytest.mark.parametrize("seed", [1, 7, 2005])
    def test_payload_equals_per_chip_path(self, seed, block_devices):
        kwargs = dict(seed=seed, shard_devices=8192,
                      block_devices=block_devices)
        array = _payload(16_384, **kwargs)
        per_chip = _per_chip_payload(16_384, **kwargs)
        assert array["defective"] > 0
        assert canonical_json(array) == canonical_json(per_chip)

    @pytest.mark.parametrize("scheme", ["spawn", "legacy"])
    def test_no_scheme_classifies_chip_by_chip(self, monkeypatch, scheme):
        def refuse(self, chip):
            raise AssertionError("classify_chip is the oracle only")

        monkeypatch.setattr(StressClassifier, "classify_chip", refuse)
        payload = _payload(4096, scheme=scheme, diagnose=True)
        assert payload["defective"] > 0

    def test_a_spawn_shard_is_one_kernel_call(self, monkeypatch):
        engine = StreamingExperiment(n_devices=16_384, shard_devices=16_384)
        shard, = engine.plan.shards()
        assert len(engine.plan.blocks_of(shard)) == 4
        classifier = engine.classifier
        timed = sum(classifier.bench.meets_timing(classifier.conditions[name])
                    for name in FAIL_BIT_NAMES)
        assert timed > 0
        calls = {"fail_bits": 0, "evaluate_elements": 0}

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        counting(StressClassifier, "fail_bits")
        counting(DefectBehaviorModel, "evaluate_elements")
        assert ShardEvaluator(engine).evaluate(shard).record["defective"] > 0
        assert calls == {"fail_bits": 1, "evaluate_elements": timed}

    def test_block_chips_are_the_per_chip_view(self):
        engine = StreamingExperiment(n_devices=8192, shard_devices=8192)
        shard = engine.plan.shards()[0]
        chips = list(engine.iter_shard_chips(shard))
        blocks = [engine.block_defects(*b)
                  for b in engine.plan.blocks_of(shard)]
        ids = [b.start + int(row) for b in blocks if b is not None
               for row in b.rows]
        assert [c.chip_id for c in chips] == ids
        assert sum(len(c.all_defects) for c in chips) == sum(
            len(b.defects) for b in blocks if b is not None)


class TestDiagnosis:
    """``diagnose=True`` materialises only the interesting parts."""

    N = 16_384

    def test_only_interesting_chips_materialise(self, monkeypatch):
        built = []
        original = DefectBlock.chip

        def counting_chip(self, k):
            built.append(k)
            return original(self, k)

        monkeypatch.setattr(DefectBlock, "chip", counting_chip)
        engine = StreamingExperiment(n_devices=self.N, shard_devices=8192,
                                     diagnose=True)
        acc = StreamingRunner(engine).run().accumulator
        assert acc.interesting > 0
        assert len(built) == acc.interesting
        assert sum(acc.hint_counts["VLV"].values()) == sum(
            n for region, n in acc.class_counts.items() if "VLV" in region)

    def test_diagnosed_chips_match_their_fail_bit_words(self, monkeypatch):
        diagnosed = []
        original = LotDiagnostician.diagnose_device

        def recording(self, record):
            diagnosed.append(record)
            return original(self, record)

        monkeypatch.setattr(LotDiagnostician, "diagnose_device", recording)
        engine = StreamingExperiment(n_devices=self.N, shard_devices=self.N,
                                     diagnose=True)
        shard, = engine.plan.shards()
        acc = StreamingRunner(engine).run().accumulator
        assert len(diagnosed) == acc.interesting > 0
        per_block = {chip.chip_id: chip
                     for chip in engine.iter_shard_chips(shard)}
        ids = [record.chip.chip_id for record in diagnosed]
        assert len(set(ids)) == len(ids)
        assert len({chip_id // engine.plan.block_devices
                    for chip_id in ids}) > 1
        for record in diagnosed:
            assert record.chip == per_block[record.chip.chip_id]
            oracle = engine.classifier.classify_chip(record.chip)
            assert (oracle.failed_standard, oracle.failed_stress) == (
                record.failed_standard, record.failed_stress)

    def test_hint_histograms_equal_per_chip_path(self):
        array = _payload(self.N, shard_devices=8192, diagnose=True)
        per_chip = _per_chip_payload(self.N, shard_devices=8192,
                                     diagnose=True)
        assert array["hints"]
        assert canonical_json(array) == canonical_json(per_chip)


class TestUnitDeadline:
    def test_overrun_names_the_shard(self):
        engine = StreamingExperiment(n_devices=16_384, shard_devices=16_384,
                                     block_devices=4096)
        shard = engine.plan.shards()[0]
        ticks = iter(range(100))
        evaluator = ShardEvaluator(engine, unit_deadline=1.5,
                                   clock=lambda: float(next(ticks)))
        with pytest.raises(UnitDeadlineExceeded) as excinfo:
            evaluator.evaluate(shard)
        message = str(excinfo.value)
        assert shard.unit_id in message
        # The clock reads once at the start and once per RNG block:
        # block 2 is the first past the 1.5 s budget.
        assert "after 2 blocks" in message

    def test_overrun_stops_the_draws_before_the_kernel(self, monkeypatch):
        drawn = []
        block_defects = StreamingExperiment.block_defects

        def counting_draw(self, block_index, start, stop):
            drawn.append(block_index)
            return block_defects(self, block_index, start, stop)

        def refuse(self, defects, chip_starts):
            raise AssertionError("the kernel ran on an overrun shard")

        monkeypatch.setattr(StreamingExperiment, "block_defects",
                            counting_draw)
        monkeypatch.setattr(StressClassifier, "fail_bits", refuse)
        engine = StreamingExperiment(n_devices=16_384, shard_devices=16_384,
                                     block_devices=4096)
        shard, = engine.plan.shards()
        assert len(engine.plan.blocks_of(shard)) == 4
        ticks = iter(range(100))
        evaluator = ShardEvaluator(engine, unit_deadline=1.5,
                                   clock=lambda: float(next(ticks)))
        with pytest.raises(UnitDeadlineExceeded) as excinfo:
            evaluator.evaluate(shard)
        message = str(excinfo.value)
        assert shard.unit_id in message
        assert "after 2 blocks" in message
        assert drawn == [0, 1]

    def test_runner_rejects_non_positive_deadline_up_front(self):
        engine = StreamingExperiment(n_devices=8192, shard_devices=8192)
        with pytest.raises(ValueError, match="unit_deadline"):
            StreamingRunner(engine, unit_deadline=0)
        with pytest.raises(ValueError, match="unit_deadline"):
            StreamingRunner(engine, unit_deadline=-1.0, workers=2)

    def test_generous_deadline_is_silent(self):
        engine = StreamingExperiment(n_devices=8192, shard_devices=8192)
        shard = engine.plan.shards()[0]
        evaluator = ShardEvaluator(engine, unit_deadline=1e9)
        outcome = evaluator.evaluate(shard)
        assert outcome.record["devices"] == 8192


class TestRunnerObservability:
    N = 8192

    def test_journal_carries_shard_and_merge_events(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        _payload(self.N, shard_devices=4096, journal=journal)
        events = [json.loads(line)
                  for line in journal.read_text().splitlines()]
        shard_events = [e["data"] for e in events
                        if e.get("event") == "experiment.shard"]
        merge_events = [e["data"] for e in events
                        if e.get("event") == "experiment.merge"]
        assert len(shard_events) == 2
        assert [e["shard"] for e in shard_events] == [0, 1]
        assert all(e["source"] == "executed" for e in shard_events)
        assert len(merge_events) == 1
        assert merge_events[0]["devices"] == self.N

    def test_report_renders_experiment_section(self, tmp_path):
        from repro.obs.bus import read_journal
        from repro.obs.report import build_report, render_text

        journal = tmp_path / "run.jsonl"
        _payload(self.N, shard_devices=4096, journal=journal)
        meta, events = read_journal(journal)
        report = build_report(meta, events)
        section = report["experiment"]
        assert section["shards"] == 2
        assert section["devices"] == self.N
        text = render_text(report)
        assert "Streaming experiment:" in text
        assert f"devices={self.N}" in text

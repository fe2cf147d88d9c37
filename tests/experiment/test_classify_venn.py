"""Tests for repro.experiment.classify and repro.experiment.venn."""

import numpy as np
import pytest

from repro.defects.models import (
    BridgeSite,
    DefectArrays,
    OpenSite,
    bridge,
    open_defect,
)
from repro.experiment.classify import (
    FAIL_BIT_NAMES,
    DeviceRecord,
    ExperimentResult,
    StressClassifier,
    decode_fail_bits,
)
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.experiment.veqtor import VeqtorChip
from repro.experiment.venn import PAPER_VENN, VennCounts
from repro.memory.geometry import MemoryGeometry


def chip_with(defect):
    chip = VeqtorChip(0)
    chip.add_defect(0, defect)
    return chip


@pytest.fixture(scope="module")
def classifier():
    return StressClassifier(geometry=MemoryGeometry(8, 2, 4))


class TestProtocol:
    def test_clean_chip_not_recorded(self, classifier):
        result = classifier.classify([VeqtorChip(0)])
        assert result.records == []
        assert result.n_devices == 1

    def test_hard_fail_is_standard_yield_loss(self, classifier):
        chip = chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 20.0))
        result = classifier.classify([chip])
        assert result.n_standard_fails == 1
        assert result.interesting_devices == []

    def test_vlv_only_defect_is_interesting(self, classifier):
        chip = chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 150e3))
        result = classifier.classify([chip])
        interesting = result.interesting_devices
        assert len(interesting) == 1
        assert interesting[0].failed_stress == frozenset({"VLV"})

    def test_vmax_only_defect(self, classifier):
        chip = chip_with(open_defect(OpenSite.DECODER_INPUT, 5e5))
        result = classifier.classify([chip])
        assert result.interesting_devices[0].failed_stress == frozenset(
            {"Vmax"})

    def test_pullup_open_vlv_and_vmax(self, classifier):
        chip = chip_with(open_defect(OpenSite.CELL_PULLUP, 10e6))
        result = classifier.classify([chip])
        assert result.interesting_devices[0].failed_stress == frozenset(
            {"VLV", "Vmax"})

    def test_escape_dpm(self, classifier):
        chips = [chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 150e3))
                 for _ in range(3)]
        chips += [VeqtorChip(i + 10) for i in range(7)]
        result = classifier.classify(chips)
        assert result.escape_dpm("VLV") == pytest.approx(3e5)
        assert result.escape_dpm("Vmax") == 0.0


def _record_tuples(records):
    return [(r.chip.chip_id, r.failed_standard, sorted(r.failed_stress))
            for r in records]


class TestArrayClassification:
    """``classify`` on fail bits == the chip-by-chip scalar oracle."""

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    def test_records_equal_per_chip_path(self, seed):
        chips = PopulationGenerator(
            PopulationSpec(n_devices=3000, seed=seed)).generate()
        classifier = StressClassifier()
        got = classifier.classify(chips)
        expected = [record for record in map(classifier.classify_chip, chips)
                    if record is not None]
        assert got.records and _record_tuples(got.records) == (
            _record_tuples(expected))
        assert all(a.chip is b.chip for a, b in zip(got.records, expected))
        assert got.n_standard_fails == sum(r.failed_standard
                                           for r in expected)
        assert got.n_devices == len(chips)

    def test_fail_bits_or_over_a_chips_defects(self, classifier):
        silent = bridge(BridgeSite.CELL_NODE_RAIL, 10e6)
        vlv = bridge(BridgeSite.CELL_NODE_RAIL, 150e3)
        vmax = open_defect(OpenSite.DECODER_INPUT, 5e5)
        flat = DefectArrays.from_defects([silent, vlv, vmax, silent])
        bits = classifier.fail_bits(flat, np.array([0, 1, 3]))
        # Parts own [silent], [vlv, vmax] and [silent].
        assert [decode_fail_bits(b) for b in bits.tolist()] == [
            (False, frozenset()),
            (False, frozenset({"VLV", "Vmax"})),
            (False, frozenset()),
        ]

    def test_timing_miss_fails_every_part(self):
        classifier = StressClassifier(geometry=MemoryGeometry(8, 2, 4))
        at_speed = FAIL_BIT_NAMES.index("at-speed")
        slow = classifier.conditions["at-speed"]
        classifier.conditions["at-speed"] = type(slow)(
            slow.name, slow.vdd, 1e-12)
        silent = DefectArrays.from_defects(
            [bridge(BridgeSite.CELL_NODE_RAIL, 10e6)])
        bits = classifier.fail_bits(silent, np.array([0]))
        assert bits.tolist() == [1 << at_speed]
        chip = chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 10e6))
        assert classifier.classify_chip(chip).failed_stress == frozenset(
            {"at-speed"})

    def test_standard_fail_carries_no_stress_set(self):
        assert decode_fail_bits(0b11101) == (True, frozenset())
        assert decode_fail_bits(0b10100) == (
            False, frozenset({"VLV", "at-speed"}))


class TestVennAccounting:
    def test_from_experiment(self):
        result = ExperimentResult(n_devices=10)
        result.records = [
            DeviceRecord(VeqtorChip(0), False, frozenset({"VLV"})),
            DeviceRecord(VeqtorChip(1), False, frozenset({"VLV"})),
            DeviceRecord(VeqtorChip(2), False, frozenset({"VLV", "Vmax"})),
            DeviceRecord(VeqtorChip(3), False, frozenset({"at-speed"})),
            DeviceRecord(VeqtorChip(4), True),   # standard fail: excluded
        ]
        venn = VennCounts.from_experiment(result)
        assert venn.vlv_only == 2
        assert venn.vlv_vmax == 1
        assert venn.atspeed_only == 1
        assert venn.total == 4

    def test_totals(self):
        v = VennCounts(vlv_only=27, vmax_only=3, atspeed_only=3,
                       vlv_vmax=2, vlv_atspeed=1)
        assert v.total == 36
        assert v.vlv_total == 30
        assert v.vmax_total == 5
        assert v.atspeed_total == 4

    def test_paper_figures(self):
        assert PAPER_VENN.total == 36
        assert PAPER_VENN.vlv_only == 27

    def test_render(self):
        text = PAPER_VENN.render("paper")
        assert "VLV only: 27" in text
        assert "interesting devices: 36" in text


class TestEndToEndVennShape:
    """The Figure 11 regression on a reduced lot (fast)."""

    @pytest.fixture(scope="class")
    def venn(self):
        spec = PopulationSpec(n_devices=4000, seed=1105)
        chips = PopulationGenerator(spec).generate()
        result = StressClassifier().classify(chips)
        return VennCounts.from_experiment(result)

    def test_vlv_dominates(self, venn):
        assert venn.vlv_only >= 3 * max(venn.vmax_only, 1) - 2
        assert venn.vlv_only > venn.atspeed_only

    def test_empty_regions_match_paper(self, venn):
        assert venn.vmax_atspeed == 0
        assert venn.all_three == 0

    def test_some_interesting_devices_exist(self, venn):
        assert venn.total > 0


class TestVennMerge:
    """The Venn reduce contract: merge/__add__ is a field-wise sum."""

    A = VennCounts(vlv_only=3, vmax_only=1, atspeed_only=2, vlv_vmax=1)
    B = VennCounts(vlv_only=2, vlv_atspeed=4, all_three=1)
    C = VennCounts(vmax_only=5, vmax_atspeed=2)

    def test_merge_is_fieldwise_addition(self):
        merged = self.A.merge(self.B)
        assert merged.vlv_only == 5
        assert merged.vlv_atspeed == 4
        assert merged.total == self.A.total + self.B.total

    def test_add_and_merge_agree(self):
        assert self.A + self.B == self.A.merge(self.B)

    def test_merge_is_commutative(self):
        assert self.A.merge(self.B) == self.B.merge(self.A)

    def test_merge_is_associative(self):
        left = (self.A + self.B) + self.C
        right = self.A + (self.B + self.C)
        assert left == right

    def test_empty_is_identity(self):
        assert self.A + VennCounts() == self.A

    def test_originals_unchanged(self):
        """VennCounts is frozen: merging returns a new value."""
        self.A.merge(self.B)
        assert self.A.vlv_only == 3
        assert self.B.vlv_only == 2


class TestEscapeDpmGuards:
    """Satellite: zero-division audit of the DPM estimators."""

    def test_empty_lot_has_no_escapes(self):
        empty = ExperimentResult(records=[], n_devices=0)
        assert empty.escape_dpm("VLV") == 0.0

    def test_lot_without_interesting_devices(self):
        result = ExperimentResult(
            records=[DeviceRecord(VeqtorChip(0), True)], n_devices=100)
        assert result.escape_dpm("VLV") == 0.0

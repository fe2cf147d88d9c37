"""Tests for repro.experiment.classify and repro.experiment.venn."""

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.models import (
    BridgeSite,
    DefectArrays,
    OpenSite,
    bridge,
    open_defect,
)
from repro.experiment.classify import (
    FAIL_BIT_NAMES,
    ExperimentAccumulator,
    StressClassifier,
    decode_fail_bits,
)
from repro.experiment.population import (
    DefectBlock,
    PopulationGenerator,
    PopulationSpec,
)
from repro.runner.atomic import canonical_json
from repro.experiment.veqtor import VeqtorChip
from repro.experiment.venn import PAPER_VENN, VennCounts
from repro.memory.geometry import MemoryGeometry
from repro.memory.timing import TimingModel


def chip_with(defect):
    chip = VeqtorChip(0)
    chip.add_defect(0, defect)
    return chip


@pytest.fixture(scope="module")
def classifier():
    return StressClassifier(geometry=MemoryGeometry(8, 2, 4))


def classify(classifier, chips):
    """Classify a list of chips as one lot."""
    return classifier.classify(DefectBlock.from_chips(0, chips))


def only_class(acc):
    """The one Venn region of an accumulator holding one interesting
    part."""
    region, = acc.class_counts
    assert acc.class_counts[region] == 1
    return region


def oracle_fold(classifier, chips):
    """The per-part oracle: ``classify_chip``'s words, folded."""
    acc = ExperimentAccumulator(devices=len(chips))
    words = [word for word in map(classifier.classify_chip, chips)
             if word is not None]
    acc.observe_fail_bits(np.array(words, dtype=np.uint8))
    return acc


class TestProtocol:
    def test_clean_chip_only_counted(self, classifier):
        acc = classify(classifier, [VeqtorChip(0)])
        assert (acc.devices, acc.defective) == (1, 0)
        assert classifier.classify_chip(VeqtorChip(0)) is None

    def test_standard_fail_is_not_retested_at_stress(self, classifier):
        chip = chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 20.0))
        word = classifier.classify_chip(chip)
        kernel, = classifier.fail_bits(
            DefectArrays.from_defects(chip.all_defects), np.array([0]))
        # The oracle stops at the first standard fail; the kernel
        # evaluates every condition.  Both decode to one standard fail.
        assert word == 1 << FAIL_BIT_NAMES.index("Vmin")
        assert int(kernel) & ~word
        assert decode_fail_bits(int(kernel)) == decode_fail_bits(word)

    def test_hard_fail_is_standard_yield_loss(self, classifier):
        chip = chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 20.0))
        acc = classify(classifier, [chip])
        assert acc.standard_fails == 1
        assert acc.interesting == 0
        assert decode_fail_bits(classifier.classify_chip(chip)) == (
            True, frozenset())

    def test_vlv_only_defect_is_interesting(self, classifier):
        chip = chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 150e3))
        acc = classify(classifier, [chip])
        assert acc.interesting == 1
        assert only_class(acc) == frozenset({"VLV"})

    def test_vmax_only_defect(self, classifier):
        chip = chip_with(open_defect(OpenSite.DECODER_INPUT, 5e5))
        assert only_class(classify(classifier, [chip])) == frozenset(
            {"Vmax"})

    def test_pullup_open_vlv_and_vmax(self, classifier):
        chip = chip_with(open_defect(OpenSite.CELL_PULLUP, 10e6))
        assert only_class(classify(classifier, [chip])) == frozenset(
            {"VLV", "Vmax"})

    def test_escape_dpm(self, classifier):
        chips = [chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 150e3))
                 for _ in range(3)]
        chips += [VeqtorChip(i + 10) for i in range(7)]
        acc = classify(classifier, chips)
        assert acc.escape_dpm("VLV") == pytest.approx(3e5)
        assert acc.escape_dpm("Vmax") == 0.0


class TestArrayClassification:
    """``classify`` on fail bits == the chip-by-chip scalar oracle."""

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    def test_lot_equals_per_chip_path(self, seed):
        generator = PopulationGenerator(
            PopulationSpec(n_devices=3000, seed=seed))
        classifier = StressClassifier()
        got = classifier.classify(generator.generate())
        expected = oracle_fold(classifier, list(generator.iter_chips()))
        assert got.interesting and got.standard_fails
        assert canonical_json(got.as_payload()) == (
            canonical_json(expected.as_payload()))

    def test_from_chips_round_trips_the_parts(self):
        chips = [chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 150e3)),
                 VeqtorChip(1), VeqtorChip(2)]
        chips[2].add_defect(3, open_defect(OpenSite.DECODER_INPUT, 5e5))
        chips[2].add_defect(1, bridge(BridgeSite.CELL_NODE_RAIL, 20.0))
        lot = DefectBlock.from_chips(0, chips)
        assert lot.devices == 3
        assert lot.rows.tolist() == [0, 2]
        assert [lot.chip(k) for k in range(2)] == [chips[0], chips[2]]

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
        assert classifier.classify_chip(chip) == 1 << at_speed

    def test_timing_comes_from_the_behaviour_model(self, monkeypatch):
        # A core too slow for VLV and at-speed: the kernel and the
        # oracle bench fail a silent part exactly where the behaviour
        # model's own timing rule does.
        slow = TimingModel(t_wire=85e-9)
        monkeypatch.setattr("repro.defects.behavior.TimingModel",
                            lambda: slow)
        classifier = StressClassifier(geometry=MemoryGeometry(8, 2, 4))
        missed = frozenset(
            name for name, condition in classifier.conditions.items()
            if name in FAIL_BIT_NAMES and not slow.meets_timing(
                condition.vdd, CMOS018.vdd_nominal, condition.period))
        assert missed == {"VLV", "at-speed"}
        silent = bridge(BridgeSite.CELL_NODE_RAIL, 10e6)
        bits = classifier.fail_bits(DefectArrays.from_defects([silent]),
                                    np.array([0]))
        assert decode_fail_bits(bits.tolist()[0]) == (False, missed)
        assert decode_fail_bits(classifier.classify_chip(
            chip_with(silent))) == (False, missed)

    def test_standard_fail_carries_no_stress_set(self):
        assert decode_fail_bits(0b11101) == (True, frozenset())
        assert decode_fail_bits(0b10100) == (
            False, frozenset({"VLV", "at-speed"}))


def word(*names):
    """The fail-bit word of a part failing ``names``."""
    return sum(1 << FAIL_BIT_NAMES.index(name) for name in names)


class TestVennAccounting:
    def test_from_experiment(self):
        acc = ExperimentAccumulator(devices=10)
        acc.observe_fail_bits(np.array([
            word("VLV"), word("VLV"), word("VLV", "Vmax"), word("at-speed"),
            word("Vmin", "VLV"),   # standard fail: excluded
        ], dtype=np.uint8))
        venn = VennCounts.from_experiment(acc)
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
        text = PAPER_VENN.render()
        assert "VLV only: 27" in text
        assert "interesting devices: 36" in text


class TestEndToEndVennShape:
    """The Figure 11 regression on a reduced lot (fast)."""

    @pytest.fixture(scope="class")
    def venn(self):
        spec = PopulationSpec(n_devices=4000, seed=1105)
        lot = PopulationGenerator(spec).generate()
        return VennCounts.from_experiment(StressClassifier().classify(lot))

    def test_vlv_dominates(self, venn):
        assert venn.vlv_only >= 3 * max(venn.vmax_only, 1) - 2
        assert venn.vlv_only > venn.atspeed_only

    def test_empty_regions_match_paper(self, venn):
        assert venn.vmax_atspeed == 0
        assert venn.all_three == 0

    def test_some_interesting_devices_exist(self, venn):
        assert venn.total > 0


class TestVennMerge:
    """The Venn reduce contract: ``+`` is a field-wise sum."""

    A = VennCounts(vlv_only=3, vmax_only=1, atspeed_only=2, vlv_vmax=1)
    B = VennCounts(vlv_only=2, vlv_atspeed=4, all_three=1)
    C = VennCounts(vmax_only=5, vmax_atspeed=2)

    def test_merge_is_fieldwise_addition(self):
        merged = self.A + self.B
        assert merged.vlv_only == 5
        assert merged.vlv_atspeed == 4
        assert merged.total == self.A.total + self.B.total

    def test_merge_is_commutative(self):
        assert self.A + self.B == self.B + self.A

    def test_merge_is_associative(self):
        left = (self.A + self.B) + self.C
        right = self.A + (self.B + self.C)
        assert left == right

    def test_empty_is_identity(self):
        assert self.A + VennCounts() == self.A

    def test_originals_unchanged(self):
        """VennCounts is frozen: adding returns a new value."""
        _ = self.A + self.B
        assert self.A.vlv_only == 3
        assert self.B.vlv_only == 2


class TestEscapeDpmGuards:
    """Satellite: zero-division audit of the DPM estimators."""

    def test_empty_lot_has_no_escapes(self):
        assert ExperimentAccumulator().escape_dpm("VLV") == 0.0

    def test_lot_without_interesting_devices(self):
        acc = ExperimentAccumulator(devices=100)
        acc.observe_fail_bits(np.array([word("Vnom")], dtype=np.uint8))
        assert acc.escape_dpm("VLV") == 0.0

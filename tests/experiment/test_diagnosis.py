"""Tests for repro.experiment.diagnosis (lot bitmapping)."""

import pytest

from repro.defects.models import BridgeSite, OpenSite, bridge, open_defect
from repro.experiment.classify import StressClassifier
from repro.experiment.diagnosis import LotDiagnostician
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.experiment.veqtor import VeqtorChip
from repro.tester.bitmap import DefectClassHint


def chip_with(defect):
    chip = VeqtorChip(0)
    chip.add_defect(0, defect)
    return chip


@pytest.fixture(scope="module")
def diagnostician():
    return LotDiagnostician()


class TestDeviceDiagnosis:
    def test_vlv_bridge_is_single_cell_stuck(self, diagnostician):
        hints = diagnostician.diagnose_device(
            chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=100000,
                             polarity=1)),
            frozenset({"VLV"}))
        assert hints == {"VLV": DefectClassHint.SINGLE_CELL_STUCK}

    def test_decoder_open_is_address_pair(self, diagnostician):
        hints = diagnostician.diagnose_device(
            chip_with(open_defect(OpenSite.DECODER_INPUT, 5e5, cell=40)),
            frozenset({"Vmax"}))
        assert hints["Vmax"] is DefectClassHint.ADDRESS_PAIR

    def test_delay_open_diagnosed_at_speed(self, diagnostician):
        hints = diagnostician.diagnose_device(
            chip_with(open_defect(OpenSite.BITLINE_SEGMENT, 3e6, cell=77)),
            frozenset({"at-speed"}))
        assert hints["at-speed"] is not DefectClassHint.CLEAN

    def test_rehoming_keeps_cell_in_range(self, diagnostician):
        hints = diagnostician.diagnose_device(
            chip_with(bridge(BridgeSite.CELL_NODE_RAIL, 150e3,
                             cell=10 ** 6)),
            frozenset({"VLV"}))
        assert hints["VLV"] is not DefectClassHint.CLEAN


class TestLotDiagnosis:
    """``classify(lot, diagnostician)`` folds every interesting part's
    hints into the accumulator."""

    @pytest.fixture(scope="class")
    def acc(self, diagnostician):
        lot = PopulationGenerator(
            PopulationSpec(n_devices=4000, seed=1105)).generate()
        return StressClassifier().classify(lot, diagnostician)

    def test_every_interesting_device_diagnosed(self, acc):
        assert acc.interesting > 0
        for condition, counts in acc.hint_counts.items():
            assert sum(counts.values()) == sum(
                n for region, n in acc.class_counts.items()
                if condition in region)

    def test_no_clean_verdicts(self, acc):
        """Quick-mode fails must reproduce in full mode (model
        consistency between the two tiers)."""
        for counts in acc.hint_counts.values():
            assert counts.get(DefectClassHint.CLEAN.value, 0) == 0

    def test_vlv_fails_dominated_by_single_cell(self, acc):
        """The paper's observation: the VLV escapes are single-bit
        matrix failures."""
        vlv = acc.hint_counts.get("VLV")
        if vlv:
            assert vlv.most_common(1)[0][0] in (
                DefectClassHint.SINGLE_CELL_STUCK.value,
                DefectClassHint.SINGLE_CELL_DISTURB.value)

    def test_render(self, acc):
        lines = acc.render_hints()
        assert "  hints at VLV:" in lines
        assert any(line.strip().startswith("single_cell") for line in lines)

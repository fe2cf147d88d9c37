"""Tests for repro.experiment.diagnosis (lot bitmapping)."""

import pytest

from repro.defects.models import BridgeSite, OpenSite, bridge, open_defect
from repro.experiment.classify import DeviceRecord, StressClassifier
from repro.experiment.diagnosis import LotDiagnostician
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.experiment.veqtor import VeqtorChip
from repro.tester.bitmap import DefectClassHint


def record_for(defect, stress):
    chip = VeqtorChip(0)
    chip.add_defect(0, defect)
    return DeviceRecord(chip, False, frozenset(stress))


@pytest.fixture(scope="module")
def diagnostician():
    return LotDiagnostician()


class TestDeviceDiagnosis:
    def test_vlv_bridge_is_single_cell_stuck(self, diagnostician):
        rec = record_for(
            bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=100000,
                   polarity=1),
            ["VLV"])
        device = diagnostician.diagnose_device(rec)
        assert device.hints["VLV"] is DefectClassHint.SINGLE_CELL_STUCK
        assert "stuck-at-1" in device.summaries["VLV"]

    def test_decoder_open_is_address_pair(self, diagnostician):
        rec = record_for(open_defect(OpenSite.DECODER_INPUT, 5e5, cell=40),
                         ["Vmax"])
        device = diagnostician.diagnose_device(rec)
        assert device.hints["Vmax"] is DefectClassHint.ADDRESS_PAIR

    def test_delay_open_diagnosed_at_speed(self, diagnostician):
        rec = record_for(
            open_defect(OpenSite.BITLINE_SEGMENT, 3e6, cell=77),
            ["at-speed"])
        device = diagnostician.diagnose_device(rec)
        assert device.hints["at-speed"] is not DefectClassHint.CLEAN

    def test_rehoming_keeps_cell_in_range(self, diagnostician):
        rec = record_for(
            bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=10 ** 6),
            ["VLV"])
        device = diagnostician.diagnose_device(rec)
        assert device.hints["VLV"] is not DefectClassHint.CLEAN


class TestLotDiagnosis:
    @pytest.fixture(scope="class")
    def lot(self, diagnostician=None):
        chips = PopulationGenerator(
            PopulationSpec(n_devices=4000, seed=1105)).generate()
        experiment = StressClassifier().classify(chips)
        return LotDiagnostician().diagnose(experiment), experiment

    def test_every_interesting_device_diagnosed(self, lot):
        diagnosis, experiment = lot
        assert len(diagnosis.devices) == len(experiment.interesting_devices)

    def test_no_clean_verdicts(self, lot):
        """Quick-mode fails must reproduce in full mode (model
        consistency between the two tiers)."""
        diagnosis, _ = lot
        for counts in diagnosis.hint_histogram.values():
            assert counts.get(DefectClassHint.CLEAN, 0) == 0

    def test_vlv_fails_dominated_by_single_cell(self, lot):
        """The paper's observation: the VLV escapes are single-bit
        matrix failures."""
        diagnosis, _ = lot
        vlv = diagnosis.hint_histogram.get("VLV")
        if vlv:
            assert vlv.most_common(1)[0][0] in (
                DefectClassHint.SINGLE_CELL_STUCK,
                DefectClassHint.SINGLE_CELL_DISTURB)

    def test_render(self, lot):
        diagnosis, _ = lot
        text = diagnosis.render()
        assert "diagnosed devices" in text


class TestLotDiagnosisMerge:
    """Shard-local diagnoses reduce into the lot view (streaming)."""

    def _shard(self, diagnostician, defect, stress):
        """A one-device shard-local LotDiagnosis."""
        from collections import Counter

        from repro.experiment.diagnosis import LotDiagnosis

        device = diagnostician.diagnose_device(record_for(defect, stress))
        lot = LotDiagnosis(devices=[device])
        for condition, hint in device.hints.items():
            lot.hint_histogram.setdefault(condition, Counter())[hint] += 1
        return lot

    def test_merge_concatenates_and_adds(self, diagnostician):
        a = self._shard(
            diagnostician,
            bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=100000,
                   polarity=1),
            ["VLV"])
        b = self._shard(
            diagnostician,
            bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=7,
                   polarity=1),
            ["VLV"])
        a_hist = dict(a.hint_histogram.get("VLV", {}))
        b_hist = dict(b.hint_histogram.get("VLV", {}))
        merged = a.merge(b)
        assert merged is a
        assert len(merged.devices) == 2
        for hint in set(a_hist) | set(b_hist):
            assert merged.hint_histogram["VLV"][hint] == (
                a_hist.get(hint, 0) + b_hist.get(hint, 0))

    def test_merge_is_commutative_on_histograms(self, diagnostician):
        def fresh():
            return (
                self._shard(
                    diagnostician,
                    bridge(BridgeSite.CELL_NODE_RAIL, 150e3,
                           cell=100000, polarity=1), ["VLV"]),
                self._shard(
                    diagnostician,
                    open_defect(OpenSite.CELL_PULLUP, 1e9, cell=3),
                    ["at-speed"]),
            )

        a, b = fresh()
        ab = a.merge(b).hint_histogram
        a, b = fresh()
        ba = b.merge(a).hint_histogram
        assert ab == ba

    def test_merge_with_empty_is_identity(self, diagnostician):
        from repro.experiment.diagnosis import LotDiagnosis

        lot = self._shard(
            diagnostician,
            bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=100000,
                   polarity=1),
            ["VLV"])
        before = dict(lot.hint_histogram.get("VLV", {}))
        merged = lot.merge(LotDiagnosis())
        assert len(merged.devices) == 1
        assert dict(merged.hint_histogram["VLV"]) == before

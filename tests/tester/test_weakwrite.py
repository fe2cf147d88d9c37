"""Tests for repro.tester.weakwrite (WWTM screen)."""

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.models import BridgeSite, OpenSite, bridge, open_defect
from repro.tester.weakwrite import WeakWriteSettings, WeakWriteTester


@pytest.fixture(scope="module")
def wwtm():
    return WeakWriteTester(CMOS018)


class TestDetection:
    def test_weak_pullup_flagged(self, wwtm):
        assert wwtm.detects(open_defect(OpenSite.CELL_PULLUP, 5e6))

    def test_healthy_pullup_untouched(self, wwtm):
        assert not wwtm.detects(open_defect(OpenSite.CELL_PULLUP, 1e5))

    def test_snm_bridge_flagged(self, wwtm):
        assert wwtm.detects(bridge(BridgeSite.CELL_NODE_NODE, 100e3))

    def test_rail_bridge_prebias_flagged(self, wwtm):
        assert wwtm.detects(bridge(BridgeSite.CELL_NODE_RAIL, 50e3))
        assert not wwtm.detects(bridge(BridgeSite.CELL_NODE_RAIL, 500e3))

    def test_blind_to_periphery_classes(self, wwtm):
        """The mode exercises the cell, not the decoder or timing."""
        assert not wwtm.detects(open_defect(OpenSite.DECODER_INPUT, 5e5))
        assert not wwtm.detects(open_defect(OpenSite.BITLINE_SEGMENT, 3e6))
        assert not wwtm.detects(open_defect(OpenSite.PERIPHERY_PATH, 6e6))
        assert not wwtm.detects(bridge(BridgeSite.DECODER_LOGIC, 1e3))

    def test_strength_scales_thresholds(self, wwtm):
        weak_site = open_defect(OpenSite.CELL_PULLUP, 2.5e6, strength=0.5)
        strong_site = open_defect(OpenSite.CELL_PULLUP, 2.5e6, strength=2.0)
        assert wwtm.detects(weak_site)
        assert not wwtm.detects(strong_site)


class TestCoverage:
    def test_empty_population(self, wwtm):
        assert wwtm.coverage([]) == 1.0

    def test_complements_stress_testing(self, wwtm):
        """WWTM catches a VLV-band pull-up open at nominal conditions --
        but misses the decoder open only Vmax finds."""
        from repro.defects.behavior import DefectBehaviorModel
        from repro.stress import production_conditions

        behavior = DefectBehaviorModel(CMOS018)
        conds = production_conditions(CMOS018)

        pullup = open_defect(OpenSite.CELL_PULLUP, 3e6)
        assert wwtm.detects(pullup)
        assert not behavior.fails_condition(pullup, conds["Vnom"])

        decoder = open_defect(OpenSite.DECODER_INPUT, 5e5)
        assert not wwtm.detects(decoder)
        assert behavior.fails_condition(decoder, conds["Vmax"])


class TestValidation:
    def test_settings_bounds(self):
        with pytest.raises(ValueError):
            WeakWriteSettings(drive_margin=1.0)
        with pytest.raises(ValueError):
            WeakWriteSettings(pullup_r_threshold=0.0)

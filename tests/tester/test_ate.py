"""Tests for repro.tester.ate (the virtual ATE)."""

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import BridgeSite, OpenSite, bridge, open_defect
from repro.march.library import TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.stress import StressCondition, production_conditions
from repro.tester.ate import VirtualTester


@pytest.fixture(scope="module")
def setup():
    geom = MemoryGeometry(8, 2, 4)
    sram = Sram(geom, CMOS018)
    tester = VirtualTester(DefectBehaviorModel(CMOS018))
    conds = production_conditions(CMOS018)
    return sram, tester, conds


class TestQuickMode:
    def test_clean_device_passes_everywhere(self, setup):
        sram, tester, conds = setup
        for cond in conds.values():
            assert tester.test_device(sram, [], TEST_11N, cond).passed

    def test_gross_timing_fail(self, setup):
        sram, tester, _ = setup
        cond = StressCondition("too-fast", 1.0, 5e-9)
        result = tester.test_device(sram, [], TEST_11N, cond)
        assert not result.passed
        assert result.gross_timing_fail

    def test_manifesting_defect_fails(self, setup):
        sram, tester, conds = setup
        d = bridge(BridgeSite.CELL_NODE_RAIL, 20.0)
        result = tester.test_device(sram, [d], TEST_11N, conds["Vnom"])
        assert not result.passed
        assert result.manifestations

    def test_silent_defect_passes(self, setup):
        sram, tester, conds = setup
        d = bridge(BridgeSite.CELL_NODE_RAIL, 150e3)   # VLV-only band
        assert tester.test_device(sram, [d], TEST_11N, conds["Vnom"]).passed


class TestFullMode:
    def test_quick_and_full_agree(self, setup):
        sram, tester, conds = setup
        cases = [
            ([], True),
            ([bridge(BridgeSite.CELL_NODE_RAIL, 20.0, cell=5)], False),
            ([bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=5)], True),
        ]
        for defects, expect_pass in cases:
            quick = tester.test_device(sram, defects, TEST_11N,
                                       conds["Vnom"], quick=True)
            full = tester.test_device(sram, defects, TEST_11N,
                                      conds["Vnom"], quick=False)
            assert quick.passed == full.passed == expect_pass

    def test_fail_log_points_to_defect_cell(self, setup):
        sram, tester, conds = setup
        cell = sram.geometry.cell_index(3, 2)
        d = bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=cell, polarity=1)
        result = tester.test_device(sram, [d], TEST_11N, conds["VLV"],
                                    quick=False)
        assert not result.passed
        addresses = {(f.address, f.bit) for f in result.fails}
        assert addresses == {(3, 2)}

    def test_stuck1_fails_reading_zero(self, setup):
        """Chip-1 signature: all fails while reading '0'."""
        sram, tester, conds = setup
        cell = sram.geometry.cell_index(3, 2)
        d = bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=cell, polarity=1)
        result = tester.test_device(sram, [d], TEST_11N, conds["VLV"],
                                    quick=False)
        assert all(f.expected == 0 for f in result.fails)

    def test_decoder_open_fails_at_vmax_full(self, setup):
        sram, tester, conds = setup
        d = open_defect(OpenSite.DECODER_INPUT, 5e5, cell=9)
        result = tester.test_device(sram, [d], TEST_11N, conds["Vmax"],
                                    quick=False)
        assert not result.passed
        assert tester.test_device(sram, [d], TEST_11N, conds["Vnom"],
                                  quick=False).passed

    def test_faults_detached_after_run(self, setup):
        sram, tester, conds = setup
        d = bridge(BridgeSite.CELL_NODE_RAIL, 20.0, cell=0)
        tester.test_device(sram, [d], TEST_11N, conds["Vnom"], quick=False)
        assert not sram.faults

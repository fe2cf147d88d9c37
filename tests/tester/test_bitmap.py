"""Tests for repro.tester.bitmap (diagnosis)."""

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import BridgeSite, OpenSite, bridge, open_defect
from repro.march.library import TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.stress import production_conditions
from repro.tester.ate import AteFailRecord, VirtualTester
from repro.tester.bitmap import BitmapAnalyzer, DefectClassHint


@pytest.fixture(scope="module")
def geom():
    return MemoryGeometry(8, 2, 4)


@pytest.fixture(scope="module")
def analyzer(geom):
    return BitmapAnalyzer(geom, TEST_11N)


def run_and_diagnose(geom, analyzer, defects, condition_name):
    sram = Sram(geom, CMOS018)
    tester = VirtualTester(DefectBehaviorModel(CMOS018))
    conds = production_conditions(CMOS018)
    result = tester.test_device(sram, defects, TEST_11N,
                                conds[condition_name], quick=False)
    return analyzer.diagnose(result.fails)


class TestCleanAndBasicClasses:
    def test_clean(self, analyzer):
        d = analyzer.diagnose([])
        assert d.hint is DefectClassHint.CLEAN

    def test_single_cell_stuck(self, geom, analyzer):
        cell = geom.cell_index(3, 1)
        defect = bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=cell,
                        polarity=1)
        diag = run_and_diagnose(geom, analyzer, [defect], "VLV")
        assert diag.hint is DefectClassHint.SINGLE_CELL_STUCK
        assert diag.failing_cells == {(3, 1)}

    def test_address_pair_from_decoder_open(self, geom, analyzer):
        defect = open_defect(OpenSite.DECODER_INPUT, 5e5, cell=9)
        diag = run_and_diagnose(geom, analyzer, [defect], "Vmax")
        assert diag.hint is DefectClassHint.ADDRESS_PAIR
        assert len(diag.failing_cells) == 2


class TestChip1Narrative:
    """The paper's Section 4.1 diagnosis chain, reproduced exactly."""

    @pytest.fixture(scope="class")
    def diag(self, geom, analyzer):
        cell = geom.cell_index(3, 1)
        defect = bridge(BridgeSite.CELL_NODE_RAIL, 150e3, cell=cell,
                        polarity=1)
        return run_and_diagnose(geom, analyzer, [defect], "VLV")

    def test_three_failing_march_elements(self, diag):
        notations = {s.notation for s in diag.element_signatures}
        assert notations == {"{R0W1}", "{R1W0R0}", "{R0W1R1}"}

    def test_all_fails_reading_zero(self, diag):
        assert diag.read_value_bias == 0

    def test_summary_concludes_stuck_at_1(self, diag):
        assert "stuck-at-1" in diag.summary
        assert "single-bit" in diag.summary


class TestStructuralClasses:
    def _fails_at(self, cells):
        return [AteFailRecord(i, 1, 0, addr, bit, 0, 1)
                for i, (addr, bit) in enumerate(cells)]

    def test_row_failure(self, geom, analyzer):
        # All cells of physical row 2: word addresses 4,5 with all bits.
        cells = [(2 * geom.columns + c, b)
                 for c in range(geom.columns)
                 for b in range(geom.bits_per_word)]
        diag = analyzer.diagnose(self._fails_at(cells))
        assert diag.hint is DefectClassHint.ROW_FAILURE
        assert diag.failing_rows == {2}

    def test_column_failure(self, geom, analyzer):
        # Same bitline across all rows: column 1, bit 2.
        cells = [(r * geom.columns + 1, 2) for r in range(geom.rows)]
        diag = analyzer.diagnose(self._fails_at(cells))
        assert diag.hint is DefectClassHint.COLUMN_FAILURE
        assert len(diag.failing_bitlines) == 1

    def test_scattered(self, geom, analyzer):
        cells = [(0, 0), (3, 1), (5, 3), (7, 2)]
        diag = analyzer.diagnose(self._fails_at(cells))
        assert diag.hint is DefectClassHint.SCATTERED

    def test_mixed_read_values_no_bias(self, analyzer):
        fails = [
            AteFailRecord(0, 1, 0, 0, 0, 0, 1),
            AteFailRecord(1, 1, 0, 0, 0, 1, 0),
        ]
        diag = analyzer.diagnose(fails)
        assert diag.read_value_bias is None

"""Tests for repro.experiment.veqtor."""

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import BridgeSite, bridge
from repro.experiment.veqtor import VeqtorChip, VeqtorTestBench
from repro.march.library import TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.stress import production_conditions
from repro.tester.ate import VirtualTester


@pytest.fixture(scope="module")
def bench():
    return VeqtorTestBench(
        VirtualTester(DefectBehaviorModel(CMOS018)),
        geometry=MemoryGeometry(8, 2, 4),
    )


@pytest.fixture(scope="module")
def conds():
    return production_conditions(CMOS018)


class TestVeqtorChip:
    def test_four_instances(self):
        chip = VeqtorChip(0)
        assert len(chip.defects) == 4
        assert not chip.is_defective

    def test_add_defect(self):
        chip = VeqtorChip(0)
        chip.add_defect(2, bridge(BridgeSite.CELL_NODE_RAIL, 1e3))
        assert chip.is_defective
        assert len(chip.all_defects) == 1

    def test_instance_range_checked(self):
        chip = VeqtorChip(0)
        with pytest.raises(ValueError):
            chip.add_defect(4, bridge(BridgeSite.CELL_NODE_RAIL, 1e3))

    def test_wrong_defect_list_count(self):
        with pytest.raises(ValueError):
            VeqtorChip(0, defects=[[], []])


class TestBench:
    def test_clean_chip_passes(self, bench, conds):
        assert not bench.chip_fails(VeqtorChip(0), TEST_11N, conds["Vnom"])

    def test_any_instance_fails_the_part(self, bench, conds):
        chip = VeqtorChip(0)
        chip.add_defect(3, bridge(BridgeSite.CELL_NODE_RAIL, 20.0))
        assert bench.chip_fails(chip, TEST_11N, conds["Vnom"])

    def test_vlv_only_defect_signature(self, bench, conds):
        chip = VeqtorChip(0)
        chip.add_defect(0, bridge(BridgeSite.CELL_NODE_RAIL, 150e3))
        sig = {name: bench.chip_fails(chip, TEST_11N, cond)
               for name, cond in conds.items()}
        assert sig == {"VLV": True, "Vmin": False, "Vnom": False,
                       "Vmax": False, "at-speed": False}

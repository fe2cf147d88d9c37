"""Tests for repro.tester.iddq and repro.tester.movi."""

import pytest

from repro.circuit.technology import CMOS013, CMOS018
from repro.defects.models import BridgeSite, OpenSite, bridge, open_defect
from repro.march.library import MARCH_CM, MATS_PLUS_PLUS, TEST_11N
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.tester.iddq import IddqSettings, IddqTester
from repro.tester.movi import MoviExecutor


@pytest.fixture(scope="module")
def iddq():
    return IddqTester(CMOS018, VEQTOR4_INSTANCE)


class TestIddqPhysics:
    def test_hard_bridge_detected(self, iddq):
        assert iddq.detects(bridge(BridgeSite.CELL_NODE_RAIL, 100.0))

    def test_opens_invisible(self, iddq):
        """The classic Iddq blind spot: opens draw no extra current."""
        assert not iddq.detects(open_defect(OpenSite.DECODER_INPUT, 1e5))
        assert iddq.defect_current(
            open_defect(OpenSite.BITLINE_SEGMENT, 1e3)) == 0.0

    def test_equivalent_node_bridges_invisible(self, iddq):
        assert not iddq.detects(bridge(BridgeSite.EQUIVALENT_NODE, 10.0))

    def test_defect_current_inverse_in_r(self, iddq):
        i1 = iddq.defect_current(bridge(BridgeSite.CELL_NODE_RAIL, 1e3))
        i2 = iddq.defect_current(bridge(BridgeSite.CELL_NODE_RAIL, 2e3))
        assert i1 == pytest.approx(2.0 * i2)

    def test_background_scales_with_size_and_temp(self, iddq):
        small = IddqTester(CMOS018, MemoryGeometry(64, 4, 8))
        assert iddq.background_current() > small.background_current()
        assert (iddq.background_current(85.0)
                > 10.0 * iddq.background_current(25.0))

    def test_threshold_shrinks_when_hot(self, iddq):
        """Hot chips leak more -> Iddq resolution collapses."""
        assert (iddq.detection_threshold(85.0)
                < iddq.detection_threshold(25.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            IddqSettings(threshold_factor=1.0)
        with pytest.raises(ValueError):
            IddqSettings(bias_fraction=0.0)


class TestIddqVsVlv:
    """[Kruseman 02]: Iddq loses reach as background leakage grows."""

    def test_iddq_catches_midrange_bridges_at_018um(self, iddq):
        d = bridge(BridgeSite.CELL_NODE_RAIL, 50e3)
        assert iddq.detects(d)

    def test_scaling_kills_iddq(self):
        """At the leakier 0.13 um corner the same bridge escapes Iddq
        (background swamps it) while VLV still catches it."""
        leaky = IddqSettings(leakage_per_cell_25c=2e-9)
        iddq_013 = IddqTester(CMOS013, VEQTOR4_INSTANCE, leaky)
        d = bridge(BridgeSite.CELL_NODE_RAIL, 50e3)
        assert not iddq_013.detects(d)

        from repro.defects.behavior import DefectBehaviorModel
        from repro.stress import production_conditions
        behavior = DefectBehaviorModel(CMOS018)
        conds = production_conditions(CMOS018)
        assert behavior.fails_condition(d, conds["VLV"])

    def test_coverage_over_population(self, iddq):
        defects = [bridge(BridgeSite.CELL_NODE_RAIL, r)
                   for r in (10, 100, 1e3, 1e4, 1e5, 1e6, 1e7)]
        cov = iddq.coverage(defects)
        assert 0.0 < cov < 1.0
        assert iddq.coverage([]) == 1.0


class TestMoviExecutor:
    def test_fault_free_passes_all_rotations(self):
        ex = MoviExecutor(4)
        result = ex.run(MARCH_CM)
        assert not result.detected
        assert len(result.runs) == 4

    def test_total_operations_accounting(self):
        ex = MoviExecutor(4)
        result = ex.run(TEST_11N)
        # Full procedure: address_bits x complexity x N.
        assert result.total_operations == 4 * 11 * 16

    def test_stop_at_first_detection(self):
        from repro.faults.address_delay import AddressTransitionDelayFault

        ex = MoviExecutor(4)
        fault = AddressTransitionDelayFault(bit=0, rising=True,
                                            address_bits=4)
        result = ex.run(TEST_11N, fault, stop_at_first_detection=True)
        assert result.detected
        assert len(result.runs) <= 4

    def test_detects_classical_faults_too(self):
        from repro.faults.models import StuckAtFault

        ex = MoviExecutor(4)
        result = ex.run(MARCH_CM, StuckAtFault(5, 1))
        assert result.detected
        # A stuck-at is order-insensitive: every rotation sees it.
        assert [r.fast_bit for r in result.runs if r.detected] == [0, 1, 2, 3]

    def test_each_rotation_visits_every_address(self):
        from repro.faults.models import StuckAtFault

        ex = MoviExecutor(3)
        for fast_bit in range(3):
            clean = ex.run_rotation(MATS_PLUS_PLUS, None, fast_bit)
            assert clean.fast_bit == fast_bit
            assert clean.log.cycles_run == 6 * 8
            for address in range(8):
                run = ex.run_rotation(MATS_PLUS_PLUS,
                                      StuckAtFault(address, 1), fast_bit)
                assert run.log.fails[0].address == address

    def test_validation(self):
        with pytest.raises(ValueError):
            MoviExecutor(0)

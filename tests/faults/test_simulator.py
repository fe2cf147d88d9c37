"""Tests for repro.faults.simulator."""

import pytest

from repro.faults.models import StuckAtFault, TransitionFault
from repro.faults.simulator import FunctionalFaultSimulator
from repro.march.library import MARCH_CM, MATS_PLUS_PLUS, TEST_11N
from repro.march.sequencer import DataBackground


class TestFaultFreeRuns:
    @pytest.mark.parametrize("test", [MATS_PLUS_PLUS, MARCH_CM, TEST_11N],
                             ids=lambda t: t.name)
    def test_fault_free_passes(self, test):
        sim = FunctionalFaultSimulator(16)
        log = sim.run(test)
        assert not log.detected
        assert log.cycles_run == test.complexity * 16

    def test_fault_free_all_backgrounds(self):
        sim = FunctionalFaultSimulator(16)
        for bg in DataBackground:
            assert not sim.run(MARCH_CM, background=bg).detected, bg


class TestFailLog:
    def test_sa0_fail_details(self):
        sim = FunctionalFaultSimulator(8)
        log = sim.run(TEST_11N, StuckAtFault(3, 0))
        assert log.detected
        first = log.fails[0]
        assert first.address == 3
        assert first.expected == 1
        assert first.actual == 0
        assert {f.address for f in log.fails} == {3}

    def test_sa1_fails_on_r0(self):
        sim = FunctionalFaultSimulator(8)
        log = sim.run(TEST_11N, StuckAtFault(3, 1))
        assert all(f.expected == 0 for f in log.fails)

    def test_stop_at_first_fail(self):
        sim = FunctionalFaultSimulator(8)
        full = sim.run(TEST_11N, StuckAtFault(0, 0))
        early = sim.run(TEST_11N, StuckAtFault(0, 0), stop_at_first_fail=True)
        assert len(early) == 1
        assert len(full) > 1
        assert early.fails[0] == full.fails[0]

    def test_element_attribution(self):
        """SA1 at cell 3: every read-0 op of every element fails."""
        sim = FunctionalFaultSimulator(8)
        log = sim.run(TEST_11N, StuckAtFault(3, 1))
        # 11N reads 0 in elements 1 (r0), 2 (..r0), 3 (r0..).
        assert {f.element_index for f in log.fails} == {1, 2, 3}

    def test_cycle_indices_match_op_stream(self):
        sim = FunctionalFaultSimulator(4)
        log = sim.run(MATS_PLUS_PLUS, StuckAtFault(2, 0))
        for f in log.fails:
            assert 0 <= f.cycle < 6 * 4


class TestTransitionDetection:
    def test_tf_up_detected_by_11n(self):
        sim = FunctionalFaultSimulator(8)
        assert sim.detects(TEST_11N, TransitionFault(4, rising=True))

    def test_tf_down_detected_by_11n(self):
        sim = FunctionalFaultSimulator(8)
        assert sim.detects(TEST_11N, TransitionFault(4, rising=False))


class TestInitialBits:
    def test_initial_bits_override(self):
        sim = FunctionalFaultSimulator(4)
        log = sim.run(MARCH_CM, initial_bits=1)
        assert not log.detected  # test initialises anyway

"""Tests for repro.memory.sram (the device under test)."""

import math

import pytest

from repro.circuit.technology import CMOS018
from repro.faults.models import StuckAtFault
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.memory.timing import TimingModel


@pytest.fixture
def sram():
    return Sram(MemoryGeometry(8, 2, 4), CMOS018)


class TestTimingModel:
    def test_access_time_nominal_anchor(self):
        tm = TimingModel()
        t = tm.access_time(1.8, 1.8)
        # Paper: the memories run at 5..10 ns.
        assert 5e-9 < t < 10e-9

    def test_access_time_monotone_decreasing_in_vdd(self):
        tm = TimingModel()
        ts = [tm.access_time(v, 1.8) for v in (1.0, 1.2, 1.65, 1.8, 1.95)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_infinite_below_path_threshold(self):
        tm = TimingModel()
        assert math.isinf(tm.access_time(0.5, 1.8))


class TestShmooAnchors:
    """Figure 3 anchors: the fault-free device's pass region."""

    def test_passes_vlv_at_slow_period(self, sram):
        assert sram.meets_timing(1.0, 100e-9)

    def test_passes_nominal_at_speed(self, sram):
        assert sram.meets_timing(1.8, 15e-9)

    def test_fails_vlv_at_speed(self, sram):
        assert not sram.meets_timing(1.0, 15e-9)

    def test_min_period_monotone(self, sram):
        timing, nominal = sram.timing, sram.tech.vdd_nominal
        assert timing.min_period(1.0, nominal) > timing.min_period(1.8, nominal)


class TestFunctionalFace:
    def test_word_roundtrip(self, sram):
        sram.power_cycle()
        sram.write_word(5, 0b1100)
        assert sram.read_word(5) == 0b1100

    def test_word_range_checked(self, sram):
        sram.power_cycle()
        with pytest.raises(ValueError):
            sram.write_word(0, 1 << 4)

    def test_fault_changes_read(self, sram):
        cell = sram.geometry.cell_index(5, 2)
        sram.attach_fault(StuckAtFault(cell, 0))
        sram.power_cycle()
        sram.write_word(5, 0b1111)
        assert sram.read_word(5) == 0b1011

    def test_power_cycle_resets_state(self, sram):
        sram.power_cycle()
        sram.write_word(0, 0b0001)
        sram.power_cycle()
        # Unknown cells read as -1 internally -> bit not set.
        assert sram.read_word(0) == 0

    def test_clear_faults(self, sram):
        sram.attach_fault(StuckAtFault(0, 0))
        sram.clear_faults()
        assert not sram.faults

    def test_repr_mentions_geometry(self, sram):
        assert "8R" in repr(sram)


class TestMultiFaultComposition:
    def test_non_mutating_fault_not_masked(self, sram):
        """A stuck-open's stale view must survive a second attached
        fault reading the stored state (the two-tier consistency
        contract for multi-defect devices)."""
        from repro.faults.models import StuckAtFault, StuckOpenFault

        victim = sram.geometry.cell_index(3, 1)
        other = sram.geometry.cell_index(6, 0)
        stride = sram.geometry.bitlines_per_block
        sram.clear_faults()
        sram.attach_fault(StuckOpenFault(victim, column_stride=stride))
        sram.attach_fault(StuckAtFault(other, 0))
        sram.power_cycle()
        # Prime the victim's bit line with the opposite data, then write
        # the victim (lost) and read it back: the stale 0 must surface.
        sram.write_word(2, 0b0000)
        sram.read_word(2)
        sram.write_word(3, 0b1111)   # write to victim word is lost
        assert (sram.read_word(3) >> 1) & 1 == 0
        sram.clear_faults()

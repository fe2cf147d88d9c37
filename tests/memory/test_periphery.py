"""Tests for the sense amp and precharge models."""

import pytest

from repro.circuit.technology import CMOS018
from repro.memory.precharge import Precharge
from repro.memory.senseamp import SenseAmp


class TestSenseAmp:
    @pytest.fixture
    def sa(self):
        return SenseAmp(CMOS018)

    def test_differential_grows_with_time(self, sa):
        assert (sa.differential(1e-6, 100e-9)
                > sa.differential(1e-6, 10e-9))

    def test_differential_clamped_to_swing(self, sa):
        assert sa.differential(1.0, 1e-3) <= CMOS018.vdd_max

    def test_resolves_threshold(self, sa):
        i_min = sa.minimum_current(20e-9)
        assert not sa.resolves(0.9 * i_min, 20e-9)
        assert sa.resolves(1.1 * i_min, 20e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            SenseAmp(CMOS018, v_offset=0.0)
        with pytest.raises(ValueError):
            SenseAmp(CMOS018, develop_fraction=1.5)
        sa = SenseAmp(CMOS018)
        with pytest.raises(ValueError):
            sa.differential(-1.0, 1e-9)
        with pytest.raises(ValueError):
            sa.develop_time(0.0)


class TestPrecharge:
    @pytest.fixture
    def pc(self):
        return Precharge(CMOS018)

    def test_complete_at_slow_period(self, pc):
        assert pc.is_complete(1.8, 100e-9)

    def test_residual_decays_with_period(self, pc):
        r1 = pc.residual_differential(1.8, 5e-9, 1.8)
        r2 = pc.residual_differential(1.8, 50e-9, 1.8)
        assert r2 < r1

    def test_series_resistance_slows_precharge(self, pc):
        tau0 = pc.time_constant(1.8)
        tau1 = pc.time_constant(1.8, series_resistance=1e6)
        assert tau1 > tau0

    def test_incomplete_with_big_open_at_speed(self, pc):
        assert not pc.is_complete(1.8, 5e-9, series_resistance=1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            Precharge(CMOS018, precharge_fraction=1.0)
        with pytest.raises(ValueError):
            Precharge(CMOS018).residual_differential(1.8, 0.0, 1.0)

"""Tests for repro.stress (the condition vocabulary)."""

import pytest

from repro.circuit.technology import CMOS013, CMOS018
from repro.stress import (
    ATSPEED_PERIOD,
    SLOW_PERIOD,
    StressCondition,
    production_conditions,
    standard_conditions,
)


class TestStressCondition:
    def test_frequency(self):
        c = StressCondition("x", 1.8, 100e-9)
        assert c.frequency == pytest.approx(10e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            StressCondition("x", 0.0, 1e-9)
        with pytest.raises(ValueError):
            StressCondition("x", 1.8, 0.0)

    def test_str_formats_units(self):
        text = str(StressCondition("VLV", 1.0, 100e-9))
        assert "1.00 V" in text and "100 ns" in text and "10 MHz" in text

    def test_default_temperature(self):
        assert StressCondition("x", 1.8, 1e-8).temperature == 25.0

    def test_frozen(self):
        c = StressCondition("x", 1.8, 1e-8)
        with pytest.raises(Exception):
            c.vdd = 2.0


class TestProductionSuite:
    def test_five_conditions(self):
        suite = production_conditions(CMOS018)
        assert set(suite) == {"VLV", "Vmin", "Vnom", "Vmax", "at-speed"}

    def test_paper_values(self):
        suite = production_conditions(CMOS018)
        assert suite["VLV"].vdd == pytest.approx(1.0)
        assert suite["VLV"].period == pytest.approx(SLOW_PERIOD)
        assert suite["at-speed"].period == pytest.approx(ATSPEED_PERIOD)
        assert suite["Vmax"].vdd == pytest.approx(1.95)

    def test_at_speed_runs_at_nominal_supply(self):
        """The Venn-disjointness reading documented in the module."""
        suite = production_conditions(CMOS018)
        assert suite["at-speed"].vdd == pytest.approx(
            CMOS018.vdd_nominal)

    def test_scales_with_technology(self):
        suite = production_conditions(CMOS013)
        assert suite["VLV"].vdd == pytest.approx(0.8)
        assert suite["Vnom"].vdd == pytest.approx(1.2)

    def test_custom_periods(self, monkeypatch):
        monkeypatch.setattr("repro.stress.SLOW_PERIOD", 200e-9)
        monkeypatch.setattr("repro.stress.ATSPEED_PERIOD", 10e-9)
        suite = production_conditions(CMOS018)
        assert suite["Vnom"].period == pytest.approx(200e-9)
        assert suite["at-speed"].period == pytest.approx(10e-9)


class TestStandardSuite:
    def test_subset_of_production(self):
        std = standard_conditions(CMOS018)
        assert set(std) == {"Vmin", "Vnom", "Vmax"}
        prod = production_conditions(CMOS018)
        for name, cond in std.items():
            assert cond == prod[name]

    def test_paper_constants(self):
        assert SLOW_PERIOD == pytest.approx(100e-9)   # 10 MHz
        assert ATSPEED_PERIOD == pytest.approx(15e-9)  # tester limit

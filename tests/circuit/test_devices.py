"""Tests for repro.circuit.devices (compact models)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.devices import (
    Capacitor,
    Mosfet,
    MosType,
    Resistor,
    VoltageSource,
)
from repro.circuit.technology import CMOS018


def nmos(width=1.0):
    return Mosfet("m", MosType.NMOS, "d", "g", "s", width, CMOS018)


def pmos(width=1.0):
    return Mosfet("m", MosType.PMOS, "d", "g", "s", width, CMOS018)


def ids(m, vgs, vds):
    """Drain-source current (positive into the drain for NMOS)."""
    return m.ids_and_conductances(vgs, vds)[0]


class TestMosfetSaturation:
    """Saturation current at ``Vds = Vdsat``, where channel-length
    modulation adds nothing: the alpha-power law itself."""

    def test_off_below_threshold(self):
        assert ids(nmos(), 0.2, 1.8) < 1e-4 * ids(nmos(), 1.8, 1.8)

    def test_on_above_threshold(self):
        assert ids(nmos(), 1.8, 1.8) > 0.0

    def test_width_scaling(self):
        i1 = ids(nmos(1.0), 1.8, 1.8)
        i2 = ids(nmos(2.0), 1.8, 1.8)
        assert i2 == pytest.approx(2.0 * i1)

    def test_alpha_power_law(self):
        tech = CMOS018
        vov = 1.8 - tech.vth_n
        expected = tech.k_n * vov ** tech.alpha
        assert ids(nmos(), 1.8, vov) == pytest.approx(expected)

    @given(st.floats(min_value=0.5, max_value=2.1),
           st.floats(min_value=0.01, max_value=0.3))
    def test_monotone_in_vgs(self, vgs, dv):
        assert ids(nmos(), vgs + dv, 2.5) >= ids(nmos(), vgs, 2.5)


class TestMosfetIv:
    def test_current_zero_at_vds_zero(self):
        i = ids(nmos(), 1.8, 0.0)
        assert abs(i) < 1e-9

    def test_triode_saturation_continuity(self):
        m = nmos()
        vov = 1.8 - CMOS018.vth_n
        i_below = ids(m, 1.8, vov - 1e-6)
        i_above = ids(m, 1.8, vov + 1e-6)
        assert i_below == pytest.approx(i_above, rel=1e-3)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=60)
    def test_nmos_current_non_negative(self, vgs, vds):
        assert ids(nmos(), vgs, vds) >= -1e-12

    @given(st.floats(min_value=0.2, max_value=2.0),
           st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=60)
    def test_pmos_mirrors_nmos(self, vgs, vds):
        """PMOS conducting current is the mirror image of NMOS."""
        i_n = ids(nmos(), vgs, vds)
        i_p = ids(pmos(), -vgs, -vds)
        # Same magnitude scaled by k_p/k_n, opposite sign.
        scale = CMOS018.k_p / CMOS018.k_n
        assert i_p == pytest.approx(-i_n * scale, rel=1e-6, abs=1e-12)

    def test_conductances_match_finite_difference(self):
        m = nmos()
        vgs, vds, eps = 1.5, 0.7, 1e-7
        _, gm, gds = m.ids_and_conductances(vgs, vds)
        gm_fd = (ids(m, vgs + eps, vds) - ids(m, vgs, vds)) / eps
        gds_fd = (ids(m, vgs, vds + eps) - ids(m, vgs, vds)) / eps
        assert gm == pytest.approx(gm_fd, rel=1e-3)
        assert gds == pytest.approx(gds_fd, rel=1e-3)


class TestValidation:
    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            Mosfet("m", MosType.NMOS, "d", "g", "s", 0.0, CMOS018)

    def test_non_positive_resistance_rejected(self):
        with pytest.raises(ValueError):
            Resistor("r", "a", "b", 0.0)
        with pytest.raises(ValueError):
            Resistor("r", "a", "b", -5.0)

    def test_resistor_conductance(self):
        assert Resistor("r", "a", "b", 200.0).conductance == pytest.approx(
            0.005)

    def test_capacitor_validation(self):
        with pytest.raises(ValueError):
            Capacitor("c", "a", "b", 0.0)


class TestVoltageSource:
    def test_dc_value(self):
        v = VoltageSource("v", "p", "0", 1.8)
        assert v.voltage_at(0.0) == 1.8
        assert v.voltage_at(1e-6) == 1.8

    def test_waveform_overrides_value(self):
        v = VoltageSource("v", "p", "0", 1.8, waveform=lambda t: 2.0 * t)
        assert v.voltage_at(0.5) == pytest.approx(1.0)

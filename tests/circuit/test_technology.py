"""Tests for repro.circuit.technology."""

import dataclasses

import pytest

from repro.circuit.technology import CMOS013, CMOS018, LayerInfo, Technology


class TestTechnologyValidation:
    def test_default_is_valid(self):
        tech = Technology()
        assert tech.vdd_nominal == pytest.approx(1.8)

    def test_corner_ordering_enforced(self):
        with pytest.raises(ValueError, match="supply corners"):
            Technology(vdd_min=1.9)

    def test_vlv_above_vt_enforced(self):
        with pytest.raises(ValueError, match="VLV"):
            Technology(vdd_vlv=0.4, vth_n=0.45)

    def test_negative_vth_rejected(self):
        with pytest.raises(ValueError):
            Technology(vth_n=-0.1)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            Technology(alpha=2.5)
        with pytest.raises(ValueError, match="alpha"):
            Technology(alpha=0.8)

    def test_transconductance_positive(self):
        with pytest.raises(ValueError):
            Technology(k_n=0.0)


class TestSupplyCorners:
    def test_corner_values_match_paper(self):
        assert CMOS018.vdd_vlv == pytest.approx(1.0)
        assert CMOS018.vdd_min == pytest.approx(1.65)
        assert CMOS018.vdd_nominal == pytest.approx(1.8)
        assert CMOS018.vdd_max == pytest.approx(1.95)

    def test_vlv_in_recommended_window(self):
        # The paper: 1.0 V is within 2..2.5 x VT for VT = 0.45.
        assert 2.0 * CMOS018.vth_n <= CMOS018.vdd_vlv <= 2.5 * CMOS018.vth_n

    def test_vmin_vmax_are_pm_10_percent(self):
        assert CMOS018.vdd_min == pytest.approx(0.917 * CMOS018.vdd_nominal,
                                                rel=0.01)
        assert CMOS018.vdd_max == pytest.approx(1.083 * CMOS018.vdd_nominal,
                                                rel=0.01)


class TestLayers:
    def test_default_layer_stack(self):
        assert {"poly", "metal1", "metal2", "via", "contact"} <= set(
            CMOS018.layers)

    def test_layer_info_fields(self):
        m1 = CMOS018.layers["metal1"]
        assert isinstance(m1, LayerInfo)
        assert m1.sheet_resistance > 0
        assert m1.min_spacing > 0


class TestReplace:
    def test_replace_overrides(self):
        hot = dataclasses.replace(CMOS018, temperature=125.0)
        assert hot.temperature == 125.0
        assert hot.vdd_nominal == CMOS018.vdd_nominal

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            dataclasses.replace(CMOS018, vdd_vlv=2.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CMOS018.vdd_nominal = 2.0


class TestCmos013:
    def test_is_valid_corner(self):
        assert CMOS013.vdd_nominal == pytest.approx(1.2)
        assert CMOS013.feature_size < CMOS018.feature_size

    def test_faster_devices(self):
        # Smaller node -> higher transconductance per unit width.
        assert CMOS013.k_n > CMOS018.k_n

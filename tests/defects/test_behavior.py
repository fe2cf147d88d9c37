"""Tests for repro.defects.behavior -- the stress-manifestation engine.

Locks in every electrical mechanism the paper's conclusions rest on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel, FaultMode
from repro.defects.models import (
    SITE_CODE,
    SITE_CODES,
    BridgeSite,
    Defect,
    DefectKind,
    OpenSite,
    bridge,
    open_defect,
)
from repro.stress import (
    ATSPEED_PERIOD,
    SLOW_PERIOD,
    StressCondition,
    production_conditions,
)


@pytest.fixture(scope="module")
def model():
    return DefectBehaviorModel(CMOS018)


@pytest.fixture(scope="module")
def conds():
    return production_conditions(CMOS018)


class TestRailBridgeClass:
    """Section 4.1: the voltage-divider mechanism."""

    def test_critical_resistance_decreases_with_vdd(self, model):
        rs = [model.bridge_critical_resistance(BridgeSite.CELL_NODE_RAIL, v)
              for v in (1.0, 1.65, 1.8, 1.95)]
        assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_vlv_detects_several_times_higher_r(self, model):
        """Kruseman 02 / Section 4.1: VLV reaches ~5x the resistance of
        nominal-voltage testing."""
        r_vlv = model.bridge_critical_resistance(BridgeSite.CELL_NODE_RAIL, 1.0)
        r_nom = model.bridge_critical_resistance(BridgeSite.CELL_NODE_RAIL, 1.8)
        assert 4.0 < r_vlv / r_nom < 12.0

    def test_chip1_signature_vlv_only(self, model, conds):
        """A high-ohmic rail bridge fails only the VLV condition."""
        d = bridge(BridgeSite.CELL_NODE_RAIL, 150e3, polarity=1)
        fails = {n: model.fails_condition(d, c) for n, c in conds.items()}
        assert fails == {"VLV": True, "Vmin": False, "Vnom": False,
                         "Vmax": False, "at-speed": False}

    def test_low_ohmic_bridge_fails_everywhere(self, model, conds):
        d = bridge(BridgeSite.CELL_NODE_RAIL, 20.0)
        assert all(model.fails_condition(d, c) for c in conds.values())

    def test_manifests_as_cell_stuck_with_polarity(self, model, conds):
        d = bridge(BridgeSite.CELL_NODE_RAIL, 150e3, polarity=1, cell=42)
        m = model.manifestation(d, conds["VLV"])
        assert m.mode is FaultMode.CELL_STUCK
        assert m.stuck_value == 1          # Chip-1: stuck-at-1 behaviour
        assert m.cell == 42

    def test_strength_scales_threshold(self, model):
        r1 = model.bridge_critical_resistance(BridgeSite.CELL_NODE_RAIL,
                                              1.8, strength=1.0)
        r2 = model.bridge_critical_resistance(BridgeSite.CELL_NODE_RAIL,
                                              1.8, strength=2.0)
        assert r2 == pytest.approx(2.0 * r1)

    @given(st.floats(min_value=0.85, max_value=2.2),
           st.floats(min_value=0.01, max_value=0.3))
    @settings(max_examples=50)
    def test_monotone_everywhere(self, vdd, dv):
        model = DefectBehaviorModel(CMOS018)
        site = BridgeSite.CELL_NODE_RAIL
        assert (model.bridge_critical_resistance(site, vdd)
                >= model.bridge_critical_resistance(site, vdd + dv))


class TestOtherBridgeClasses:
    def test_snm_class_vlv_window(self, model):
        r_vlv = model.bridge_critical_resistance(BridgeSite.CELL_NODE_NODE, 1.0)
        r_nom = model.bridge_critical_resistance(BridgeSite.CELL_NODE_NODE, 1.8)
        assert r_vlv > 50 * r_nom

    def test_wordline_class_vlv_only(self, model, conds):
        d = bridge(BridgeSite.WORDLINE_CELL, 20.0)
        assert model.fails_condition(d, conds["VLV"])
        assert not model.fails_condition(d, conds["Vmin"])

    def test_equivalent_node_never_detected(self, model, conds):
        d = bridge(BridgeSite.EQUIVALENT_NODE, 1.0)
        assert not any(model.fails_condition(d, c) for c in conds.values())

    def test_bitline_masked_at_high_vdd(self, model):
        d = bridge(BridgeSite.BITLINE_BITLINE, 1e3)
        slow = 100e-9
        assert model.fails_condition(
            d, StressCondition("lo", 1.0, slow))
        assert not model.fails_condition(
            d, StressCondition("hi", 2.1, slow))

    def test_periphery_needs_hard_short(self, model, conds):
        hard = bridge(BridgeSite.PERIPHERY_METAL, 20.0)
        soft = bridge(BridgeSite.PERIPHERY_METAL, 10e3)
        assert model.fails_condition(hard, conds["Vnom"])
        assert not model.fails_condition(soft, conds["Vnom"])


class TestOpenDelayClasses:
    """Section 4.3 / Figure 8: frequency-dependent open detection."""

    def test_figure8_anchors(self, model):
        """4 Mohm floor at 50 MHz, 1.5 Mohm at 100 MHz."""
        r50 = model.open_detection_threshold(period=20e-9)
        r100 = model.open_detection_threshold(period=10e-9)
        assert r50 == pytest.approx(4e6, rel=0.05)
        assert r100 == pytest.approx(1.5e6, rel=0.05)

    def test_threshold_decreases_with_frequency(self, model):
        periods = [40e-9, 20e-9, 10e-9, 7e-9]
        ths = [model.open_detection_threshold(p) for p in periods]
        assert all(a > b for a, b in zip(ths, ths[1:]))

    def test_open_between_thresholds_escapes_slow_test(self, model):
        """A 2.5 Mohm open escapes at 50 MHz but is caught at 100 MHz --
        the paper's argument for testing at (or above) specified speed."""
        d = open_defect(OpenSite.BITLINE_SEGMENT, 2.5e6)
        at_50 = StressCondition("50MHz", 1.8, 20e-9)
        at_100 = StressCondition("100MHz", 1.8, 10e-9)
        assert not model.fails_condition(d, at_50)
        assert model.fails_condition(d, at_100)

    def test_chip3_near_vertical_boundary(self, model):
        """Bitline-segment opens: pass/fail period almost independent of
        supply in the operating range (Chip-3's shmoo)."""
        d = open_defect(OpenSite.BITLINE_SEGMENT, 3e6)
        failing_periods = {}
        for vdd in (1.5, 1.8, 2.1):
            for period in (20e-9, 17e-9, 16e-9, 14e-9):
                c = StressCondition("p", vdd, period)
                failing_periods.setdefault(vdd, set())
                if model.fails_condition(d, c):
                    failing_periods[vdd].add(period)
        assert failing_periods[1.5] == failing_periods[1.8] == \
            failing_periods[2.1]

    def test_periphery_boundary_moves_with_voltage(self, model):
        """Chip-4: the delay scales with gate delay -> voltage dependent."""
        d = open_defect(OpenSite.PERIPHERY_PATH, 3e6)
        period = 12e-9
        low = StressCondition("lo", 1.4, period)
        high = StressCondition("hi", 2.0, period)
        assert model.fails_condition(d, low)
        assert not model.fails_condition(d, high)


class TestDecoderOpenClass:
    """Section 4.2 / Figures 5-7: the Vmax-only class."""

    def test_detection_voltage_decreases_with_resistance(self, model):
        v1 = model.decoder_open_detection_voltage(
            open_defect(OpenSite.DECODER_INPUT, 1e5))
        v2 = model.decoder_open_detection_voltage(
            open_defect(OpenSite.DECODER_INPUT, 1e7))
        assert v1 > v2

    def test_chip2_signature_vmax_only_any_frequency(self, model, conds):
        d = open_defect(OpenSite.DECODER_INPUT, 5e5)
        v_det = model.decoder_open_detection_voltage(d)
        assert 1.8 < v_det <= 1.95
        assert model.fails_condition(d, conds["Vmax"])
        assert not model.fails_condition(d, conds["Vnom"])
        assert not model.fails_condition(d, conds["VLV"])
        # Frequency independence: Vmax at speed also fails.
        assert model.fails_condition(
            d, StressCondition("fast-vmax", 1.95, 15e-9))

    def test_wrong_site_rejected(self, model):
        with pytest.raises(ValueError):
            model.decoder_open_detection_voltage(
                open_defect(OpenSite.CELL_ACCESS, 1e6))

    def test_manifests_as_address_hazard(self, model, conds):
        d = open_defect(OpenSite.DECODER_INPUT, 2e6, cell=9)
        m = model.manifestation(d, conds["Vmax"])
        assert m.mode is FaultMode.ADDRESS_HAZARD


class TestPullupOpenClass:
    """The VLV+Vmax overlap class of Figure 11."""

    def test_large_open_fails_vlv_and_vmax_only(self, model, conds):
        d = open_defect(OpenSite.CELL_PULLUP, 10e6)
        fails = {n: model.fails_condition(d, c) for n, c in conds.items()}
        assert fails["VLV"] and fails["Vmax"]
        assert not fails["Vmin"] and not fails["Vnom"]

    def test_moderate_open_vlv_only(self, model, conds):
        d = open_defect(OpenSite.CELL_PULLUP, 3e6)
        fails = {n: model.fails_condition(d, c) for n, c in conds.items()}
        assert fails["VLV"]
        assert not fails["Vmax"]

    def test_small_open_silent(self, model, conds):
        d = open_defect(OpenSite.CELL_PULLUP, 1e5)
        assert not any(model.fails_condition(d, c) for c in conds.values())


class TestThresholdApi:
    def test_zero_when_no_slack(self, model):
        # At an absurdly short period even R=0 has no slack.
        assert model.open_detection_threshold(1e-10) == 0.0


class TestDecoderOpenDelayMechanism:
    """The [Azimane 04] link: decoder opens as address-delay faults."""

    def test_manifests_only_at_speed(self, model, conds):
        d = open_defect(OpenSite.DECODER_INPUT, 3e6)
        assert model.decoder_open_delay_manifests(d, conds["at-speed"])
        assert not model.decoder_open_delay_manifests(d, conds["Vnom"])

    def test_small_open_never_lags(self, model, conds):
        d = open_defect(OpenSite.DECODER_INPUT, 1e5)
        assert not model.decoder_open_delay_manifests(d, conds["at-speed"])

    def test_wrong_site_rejected(self, model, conds):
        with pytest.raises(ValueError):
            model.decoder_open_delay_manifests(
                open_defect(OpenSite.CELL_ACCESS, 1e6), conds["at-speed"])

    def test_rendered_fault_needs_movi(self, model, conds):
        """End to end: the rendered delay fault escapes linear marching
        on its bit but falls to the rotation."""
        from repro.defects.injection import decoder_open_to_delay_fault
        from repro.march.library import TEST_11N
        from repro.tester.movi import MoviExecutor

        d = open_defect(OpenSite.DECODER_INPUT, 3e6, cell=6, polarity=1)
        fault = decoder_open_to_delay_fault(d, conds["at-speed"],
                                            address_bits=4, behavior=model)
        assert fault is not None and fault.bit == 2
        executor = MoviExecutor(4)
        assert not executor.linear_reference(TEST_11N, fault).detected
        assert executor.run(TEST_11N, fault).detected

    def test_none_below_budget(self, model, conds):
        from repro.defects.injection import decoder_open_to_delay_fault

        d = open_defect(OpenSite.DECODER_INPUT, 1e5)
        assert decoder_open_to_delay_fault(
            d, conds["at-speed"], 4, model) is None


def _kernel_conditions():
    """The production suite, temperature corners and sub-threshold supplies."""
    vt_path = DefectBehaviorModel(CMOS018).timing.vt_path
    corners = []
    for temp in (-40.0, 125.0):
        corners += [
            StressCondition(f"VLV@{temp:g}C", CMOS018.vdd_vlv, SLOW_PERIOD,
                            temp),
            StressCondition(f"Vmax@{temp:g}C", CMOS018.vdd_max, SLOW_PERIOD,
                            temp),
            StressCondition(f"at-speed@{temp:g}C", CMOS018.vdd_nominal,
                            ATSPEED_PERIOD, temp),
        ]
    return [*production_conditions(CMOS018).values(), *corners,
            StressCondition("at-vt-path", vt_path, SLOW_PERIOD),
            StressCondition("sub-vt-path", 0.9 * vt_path, ATSPEED_PERIOD)]


KERNEL_CONDITIONS = _kernel_conditions()


def _critical_resistances(model, site, strength, cond):
    """The resistances where the class's scalar verdict flips."""
    p = model.params
    if isinstance(site, BridgeSite):
        found = [model.bridge_critical_resistance(
            site, cond.vdd, strength, cond.temperature)]
        if site is BridgeSite.BITLINE_BITLINE:
            found.append(p.bitline_atspeed_r * strength)
        return found
    if site is OpenSite.CELL_PULLUP:
        leak = model._temp_leak_factor(cond.temperature)
        return [p.pullup_r_vlv * strength / leak,
                p.pullup_r_vmax * strength / leak]
    if site is OpenSite.DECODER_INPUT:
        v = p.dec_v_base + p.dec_v_spread * math.log(strength) / 0.5
        return [p.dec_r_ref * 10.0 ** ((v - cond.vdd) / p.dec_v_slope)]
    scale = model._delay_scale(cond.vdd, cond.temperature)
    if site is OpenSite.BITLINE_SEGMENT:
        return [(cond.period - p.seg_t0) / (p.seg_c * strength)]
    if site is OpenSite.CELL_ACCESS:
        develop = p.access_t0 * scale
        if cond.vdd <= CMOS018.vdd_vlv + 0.15:
            develop *= p.access_vlv_blowup
        return [(0.35 * cond.period - develop) / (p.access_c * strength)]
    return [(cond.period - p.periphery_t0 * scale)
            / (p.periphery_c * strength * scale)]


def _boundary_grid(model, site, strength, cond):
    """Each critical resistance and one ulp either side (positive only)."""
    out = [1e3]
    for r in _critical_resistances(model, site, strength, cond):
        if math.isfinite(r) and r > 0:
            out += [math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)]
    return out


class TestElementwiseKernel:
    """``evaluate_elements`` is ``fails_condition``, bit for bit."""

    @pytest.mark.parametrize("site", SITE_CODES, ids=lambda s: s.value)
    @given(strengths=st.lists(st.floats(min_value=0.2, max_value=5.0),
                              min_size=1, max_size=4),
           cond=st.sampled_from(KERNEL_CONDITIONS))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_at_critical_resistances(self, site, strengths,
                                                    cond):
        model = DefectBehaviorModel(CMOS018)
        kind = (DefectKind.BRIDGE if isinstance(site, BridgeSite)
                else DefectKind.OPEN)
        elements = [(k, r) for k in strengths
                    for r in _boundary_grid(model, site, k, cond)]
        codes = np.full(len(elements), SITE_CODE[site], dtype=np.intp)
        ks = np.array([k for k, _ in elements])
        rs = np.array([r for _, r in elements])
        got = model.evaluate_elements(codes, ks, rs, cond)
        expected = [model.fails_condition(Defect(kind, site, r, strength=k),
                                          cond)
                    for k, r in elements]
        assert got.tolist() == expected

    @given(cond=st.sampled_from(KERNEL_CONDITIONS),
           picks=st.lists(st.tuples(st.sampled_from(SITE_CODES),
                                    st.floats(min_value=0.2, max_value=5.0),
                                    st.floats(min_value=1.0, max_value=1e8)),
                          min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_mixed_classes_in_one_call(self, cond, picks):
        model = DefectBehaviorModel(CMOS018)
        defects = [Defect(DefectKind.BRIDGE if isinstance(s, BridgeSite)
                          else DefectKind.OPEN, s, r, strength=k)
                   for s, k, r in picks]
        got = model.evaluate_elements(
            np.array([SITE_CODE[d.site] for d in defects], dtype=np.intp),
            np.array([d.strength for d in defects]),
            np.array([d.resistance for d in defects]), cond)
        assert got.tolist() == [model.fails_condition(d, cond)
                                for d in defects]

    @pytest.mark.parametrize("cond", KERNEL_CONDITIONS,
                             ids=lambda c: c.name)
    def test_grid_shape_equals_element_shape(self, model, cond):
        sites = [Defect(DefectKind.BRIDGE if isinstance(s, BridgeSite)
                        else DefectKind.OPEN, s, 1e3, strength=k)
                 for s in SITE_CODES for k in (0.5, 1.0, 2.0)]
        grid = [10.0 ** e for e in np.linspace(1.0, 8.0, 29).tolist()]
        matrix = model.evaluate_batch(
            np.array([SITE_CODE[d.site] for d in sites], dtype=np.intp),
            np.array([d.strength for d in sites]), grid, cond)
        codes = np.repeat([SITE_CODE[d.site] for d in sites], len(grid))
        ks = np.repeat([d.strength for d in sites], len(grid))
        rs = np.tile(grid, len(sites))
        flat = model.evaluate_elements(codes, ks, rs, cond)
        assert np.array_equal(matrix.ravel(), flat)

    def test_empty_population(self, model, conds):
        empty = np.zeros(0)
        got = model.evaluate_elements(np.zeros(0, dtype=np.intp), empty,
                                      empty, conds["VLV"])
        assert got.shape == (0,) and got.dtype == bool

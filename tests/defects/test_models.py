"""Tests for repro.defects.models."""

import numpy as np
import pytest

from repro.defects.models import (
    SITE_CODES,
    BridgeSite,
    Defect,
    DefectArrays,
    DefectKind,
    OpenSite,
    bridge,
    open_defect,
)


class TestDefectValidation:
    def test_bridge_constructor(self):
        d = bridge(BridgeSite.CELL_NODE_RAIL, 1e3, cell=5, polarity=1)
        assert d.kind is DefectKind.BRIDGE
        assert d.resistance == 1e3
        assert d.cell == 5

    def test_open_constructor(self):
        d = open_defect(OpenSite.DECODER_INPUT, 1e6)
        assert d.kind is DefectKind.OPEN

    def test_kind_site_mismatch_rejected(self):
        with pytest.raises(TypeError):
            Defect(DefectKind.BRIDGE, OpenSite.CELL_ACCESS, 1e3)
        with pytest.raises(TypeError):
            Defect(DefectKind.OPEN, BridgeSite.CELL_NODE_RAIL, 1e3)

    def test_non_positive_resistance_rejected(self):
        with pytest.raises(ValueError):
            bridge(BridgeSite.CELL_NODE_RAIL, 0.0)

    def test_bad_strength_rejected(self):
        with pytest.raises(ValueError):
            bridge(BridgeSite.CELL_NODE_RAIL, 1e3, strength=0.0)

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError):
            bridge(BridgeSite.CELL_NODE_RAIL, 1e3, polarity=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            bridge(BridgeSite.CELL_NODE_RAIL, 1e3, weight=-1.0)


class TestWithResistance:
    def test_copy_semantics(self):
        d = bridge(BridgeSite.CELL_NODE_NODE, 1e3, strength=2.0, cell=7)
        d2 = d.with_resistance(5e4)
        assert d2.resistance == 5e4
        assert d2.strength == 2.0 and d2.cell == 7
        assert d.resistance == 1e3  # original untouched

    def test_str_contains_site_and_r(self):
        d = open_defect(OpenSite.BITLINE_SEGMENT, 2e6)
        assert "bitline_segment" in str(d)
        assert "2,000,000" in str(d)


class TestTaxonomy:
    def test_bridge_sites_cover_paper_mechanisms(self):
        names = {s.name for s in BridgeSite}
        assert "CELL_NODE_RAIL" in names       # VLV divider class
        assert "EQUIVALENT_NODE" in names      # never-detected floor

    def test_open_sites_cover_paper_mechanisms(self):
        names = {s.name for s in OpenSite}
        assert "DECODER_INPUT" in names        # Figures 5/6, Chip-2
        assert "BITLINE_SEGMENT" in names      # Figure 8 / Chip-3
        assert "PERIPHERY_PATH" in names       # Chip-4


class TestDefectArrays:
    def test_site_codes_cover_every_class_once(self):
        assert set(SITE_CODES) == set(BridgeSite) | set(OpenSite)
        assert len(SITE_CODES) == len(BridgeSite) + len(OpenSite)

    def test_round_trip_through_arrays(self):
        defects = [bridge(BridgeSite.WORDLINE_CELL, 2e5, strength=1.5,
                          cell=9, polarity=1),
                   open_defect(OpenSite.CELL_PULLUP, 3e6, strength=0.7,
                               cell=4)]
        arrays = DefectArrays.from_defects(defects)
        assert len(arrays) == 2
        assert [arrays.defect(i) for i in range(2)] == defects

    @pytest.mark.parametrize("field, value, match", [
        ("resistances", 0.0, "resistance"),
        ("strengths", -1.0, "strength"),
        ("polarities", 0, "polarity"),
        ("codes", len(SITE_CODES), "site code"),
    ])
    def test_value_checks_are_array_wise(self, field, value, match):
        good = dict(codes=np.array([0, 1]), strengths=np.ones(2),
                    resistances=np.full(2, 1e3),
                    cells=np.zeros(2, dtype=np.int64),
                    polarities=np.array([-1, 1]))
        good[field] = good[field].copy()
        good[field][1] = value
        with pytest.raises(ValueError, match=match):
            DefectArrays(**good)

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            DefectArrays(np.array([0]), np.ones(2), np.ones(2),
                         np.zeros(2, dtype=np.int64), np.ones(2))

    def test_interleave_and_concatenate_keep_element_order(self):
        bridges = DefectArrays.from_defects([
            bridge(BridgeSite.CELL_NODE_RAIL, 1e3, cell=1),
            bridge(BridgeSite.BITLINE_BITLINE, 2e3, cell=2, polarity=1)])
        opens = DefectArrays.from_defects([
            open_defect(OpenSite.DECODER_INPUT, 3e6, cell=3)])
        mask = np.array([False, True, True])
        merged = DefectArrays.interleave(mask, bridges, opens)
        assert [merged.defect(i) for i in range(3)] == [
            opens.defect(0), bridges.defect(0), bridges.defect(1)]
        joined = DefectArrays.concatenate([merged, opens])
        assert [joined.defect(i) for i in range(4)] == [
            *(merged.defect(i) for i in range(3)), opens.defect(0)]

    def test_merges_do_not_check_their_checked_inputs_again(
            self, monkeypatch):
        parts = [DefectArrays.from_defects([
            bridge(BridgeSite.CELL_NODE_RAIL, r)]) for r in (1e3, 2e3)]
        checks = []
        original = DefectArrays.__post_init__

        def counted(self):
            checks.append(len(self))
            original(self)

        monkeypatch.setattr(DefectArrays, "__post_init__", counted)
        DefectArrays.interleave(np.array([True, False]), *parts)
        DefectArrays.concatenate(parts)
        assert checks == []

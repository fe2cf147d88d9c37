"""Tests for repro.ifa.extraction."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.defects.distribution import (
    default_bridge_distribution,
    default_open_distribution,
)
from repro.defects.models import SITE_CODES, BridgeSite, DefectKind, OpenSite
from repro.defects.sampling import sample_resistances_reference
from repro.ifa import critical_area
from repro.ifa import layout as ifa_layout
from repro.ifa.critical_area import AdjacentPair
from repro.ifa.extraction import (
    BRIDGE_SITE_MIX,
    OPEN_SITE_MIX,
    STRENGTH_SIGMA,
    IfaExtractor,
    classify_bridge_pair,
    sample_defects_reference,
)
from repro.ifa.layout import Rect
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry


@pytest.fixture(scope="module")
def extractor():
    return IfaExtractor(MemoryGeometry(8, 2, 4))


def pair(net_a, net_b):
    a = Rect("metal1", 0.0, 0.0, 1.0, 1.0, net_a)
    b = Rect("metal1", 1.2, 0.0, 2.2, 1.0, net_b)
    return AdjacentPair(a, b, 0.2, 1.0)


class TestClassification:
    @pytest.mark.parametrize("nets,expected", [
        (("cell[0,0].t", "vdd"), BridgeSite.CELL_NODE_RAIL),
        (("cell[0,0].c", "gnd"), BridgeSite.CELL_NODE_RAIL),
        (("cell[0,0].t", "cell[0,0].c"), BridgeSite.CELL_NODE_NODE),
        (("cell[0,0].t", "cell[0,1].t"), BridgeSite.CELL_NODE_NODE),
        (("wl[3]", "cell[3,1].t"), BridgeSite.WORDLINE_CELL),
        (("bl[2]", "blb[2]"), BridgeSite.BITLINE_BITLINE),
        (("dec.nand[0]", "dec.wldrv[0]"), BridgeSite.DECODER_LOGIC),
        (("sa.in[1]", "sa.out[1]"), BridgeSite.PERIPHERY_METAL),
        (("wl[0]", "vdd"), BridgeSite.PERIPHERY_METAL),
    ])
    def test_pair_classes(self, nets, expected):
        assert classify_bridge_pair(pair(*nets)) == expected


class TestMixes:
    def test_bridge_mix_sums_to_one(self):
        assert sum(BRIDGE_SITE_MIX.values()) == pytest.approx(1.0)

    def test_open_mix_sums_to_one(self):
        assert sum(OPEN_SITE_MIX.values()) == pytest.approx(1.0)

    def test_rail_class_dominates(self):
        assert BRIDGE_SITE_MIX[BridgeSite.CELL_NODE_RAIL] > 0.5

    def test_every_class_has_strength_sigma(self):
        for site in list(BridgeSite) + list(OpenSite):
            assert site in STRENGTH_SIGMA

    def test_calibrated_classes_match_mix(self, extractor):
        classes = extractor.bridge_site_classes()
        weights = {c.site: c.weight for c in classes}
        assert weights == BRIDGE_SITE_MIX

    def test_raw_mode_uses_geometry(self):
        raw = IfaExtractor(MemoryGeometry(8, 2, 4), calibrated=False)
        classes = raw.bridge_site_classes()
        total = sum(c.weight for c in classes)
        assert total == pytest.approx(1.0)
        # Geometry independently ranks the rail class on top.
        by_weight = sorted(classes, key=lambda c: c.weight, reverse=True)
        assert by_weight[0].site in (BridgeSite.CELL_NODE_RAIL,
                                     BridgeSite.WORDLINE_CELL)

    def test_geometric_instances_found(self, extractor):
        classes = {c.site: c for c in extractor.bridge_site_classes()}
        assert classes[BridgeSite.CELL_NODE_RAIL].pair_count > 0
        assert classes[BridgeSite.BITLINE_BITLINE].pair_count > 0


class TestSampling:
    def test_sample_bridges_fields(self, extractor):
        rng = np.random.default_rng(0)
        defects = extractor.sample_bridges(200, rng)
        assert len(defects) == 200
        assert all(d.kind is DefectKind.BRIDGE for d in defects)
        assert all(0 <= d.cell < extractor.geometry.bits for d in defects)
        assert all(d.strength > 0 for d in defects)

    def test_sample_respects_mix(self, extractor):
        rng = np.random.default_rng(1)
        defects = extractor.sample_bridges(6000, rng)
        rail = sum(d.site is BridgeSite.CELL_NODE_RAIL for d in defects)
        assert rail / 6000 == pytest.approx(
            BRIDGE_SITE_MIX[BridgeSite.CELL_NODE_RAIL], abs=0.03)

    def test_sample_opens(self, extractor):
        rng = np.random.default_rng(2)
        defects = extractor.sample_opens(100, rng)
        assert all(d.kind is DefectKind.OPEN for d in defects)

    def test_resistance_sampler_used(self, extractor):
        rng = np.random.default_rng(3)
        defects = extractor.sample_bridges(
            10, rng, resistance_sampler=lambda r: 123.0)
        assert all(d.resistance == 123.0 for d in defects)

    def test_deterministic_given_seed(self, extractor):
        a = extractor.sample_bridges(20, np.random.default_rng(9))
        b = extractor.sample_bridges(20, np.random.default_rng(9))
        assert a == b

    def test_invalid_count(self, extractor):
        with pytest.raises(ValueError):
            extractor.sample_bridges(0, np.random.default_rng(0))


class TestSampleBatch:
    """The array draw: one array per attribute, no Defect objects."""

    @pytest.mark.parametrize("kind, site_type", [
        (DefectKind.BRIDGE, BridgeSite), (DefectKind.OPEN, OpenSite)])
    def test_arrays_materialise_as_defects_of_kind(self, extractor, kind,
                                                   site_type):
        arrays = extractor.sample_batch(
            300, np.random.default_rng(4), kind,
            resistance_distribution=default_open_distribution())
        assert len(arrays) == 300
        assert all(isinstance(SITE_CODES[c], site_type)
                   for c in arrays.codes.tolist())
        defects = [arrays.defect(i) for i in range(len(arrays))]
        assert all(d.kind is kind for d in defects)
        assert all(0 <= d.cell < extractor.geometry.bits for d in defects)
        assert [d.resistance for d in defects] == arrays.resistances.tolist()

    def test_deterministic_given_seed(self, extractor):
        a = extractor.sample_batch(50, np.random.default_rng(8),
                                   DefectKind.BRIDGE)
        b = extractor.sample_batch(50, np.random.default_rng(8),
                                   DefectKind.BRIDGE)
        assert all(np.array_equal(getattr(a, f), getattr(b, f))
                   for f in ("codes", "strengths", "resistances", "cells",
                             "polarities"))

    def test_empty_draw_consumes_nothing(self, extractor):
        rng = np.random.default_rng(5)
        assert len(extractor.sample_batch(0, rng, DefectKind.OPEN)) == 0
        assert rng.random() == np.random.default_rng(5).random()

    def test_rejects_non_positive_resistances(self, extractor):
        class Broken:
            def sample(self, rng, n):
                return np.zeros(n)

        with pytest.raises(ValueError, match="resistance"):
            extractor.sample_batch(5, np.random.default_rng(0),
                                   DefectKind.BRIDGE,
                                   resistance_distribution=Broken())


@pytest.fixture(scope="module")
def veqtor4_extractors():
    """A calibrated and an uncalibrated Veqtor4 extractor."""
    return {calibrated: IfaExtractor(VEQTOR4_INSTANCE, calibrated)
            for calibrated in (True, False)}


class TestDrawTableOracle:
    """The cached site and resistance CDFs draw exactly what the
    per-defect ``choice(p=...)`` oracle draws."""

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    @pytest.mark.parametrize("n", [1, 4000])
    @pytest.mark.parametrize("kind", [DefectKind.BRIDGE, DefectKind.OPEN])
    @pytest.mark.parametrize("with_resistance", [True, False])
    @pytest.mark.parametrize("calibrated", [True, False])
    def test_defects_equal_oracle(self, veqtor4_extractors, seed, n, kind,
                                  with_resistance, calibrated):
        extractor = veqtor4_extractors[calibrated]
        dist = (default_bridge_distribution() if kind is DefectKind.BRIDGE
                else default_open_distribution())
        fast_sampler = dist.sample_one if with_resistance else None
        oracle_sampler = ((lambda r: sample_resistances_reference(dist, r, 1)[0])
                          if with_resistance else None)
        sample = (extractor.sample_bridges if kind is DefectKind.BRIDGE
                  else extractor.sample_opens)
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        defects = sample(n, rng, resistance_sampler=fast_sampler)
        assert defects == sample_defects_reference(
            extractor, n, oracle, kind, resistance_sampler=oracle_sampler)
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    @pytest.mark.parametrize("kind", [DefectKind.BRIDGE, DefectKind.OPEN])
    @pytest.mark.parametrize("with_resistance", [True, False])
    def test_array_fill_equals_oracle(self, veqtor4_extractors, seed, kind,
                                      with_resistance):
        """The array fill, one ``np.exp`` over every strength, is the
        scalar oracle's population, and leaves the generator in the
        oracle's state (the 32-bit buffer of ``integers`` included)."""
        extractor = veqtor4_extractors[True]
        dist = (default_bridge_distribution() if kind is DefectKind.BRIDGE
                else default_open_distribution())
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        arrays = extractor.sample(
            20000, rng, kind, dist.sample_one if with_resistance else None)
        assert arrays.defects() == sample_defects_reference(
            extractor, 20000, oracle, kind,
            dist.sample_one if with_resistance else None)
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_calibrated_draws_do_not_scan_the_layout(self, monkeypatch):
        calls = []
        scan, build = critical_area.find_adjacent_pairs, ifa_layout.SramLayout

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(critical_area, "find_adjacent_pairs",
                            counted("scan", scan))
        monkeypatch.setattr(ifa_layout, "SramLayout", counted("layout", build))
        extractor = IfaExtractor(MemoryGeometry(8, 2, 4))
        rng = np.random.default_rng(3)
        extractor.sample_bridges(50, rng)
        extractor.sample_opens(50, rng)
        extractor.sample_batch(50, rng, DefectKind.BRIDGE)
        assert calls == []
        classes = {c.site: c for c in extractor.bridge_site_classes()}
        assert calls == ["layout", "scan"]
        assert classes[BridgeSite.CELL_NODE_RAIL].pair_count > 0
        assert {s: c.weight for s, c in classes.items()} == BRIDGE_SITE_MIX

    @pytest.mark.parametrize("kind", [DefectKind.BRIDGE, DefectKind.OPEN])
    def test_zero_total_uncalibrated_extractor_raises(self, kind,
                                                      monkeypatch):
        empty = SimpleNamespace(rects=[], vias=[])
        monkeypatch.setattr(ifa_layout, "SramLayout", lambda geometry: empty)
        extractor = IfaExtractor(MemoryGeometry(8, 2, 4), calibrated=False)
        sample = (extractor.sample_bridges if kind is DefectKind.BRIDGE
                  else extractor.sample_opens)
        with pytest.raises(ValueError) as expected:
            sample_defects_reference(extractor, 5, np.random.default_rng(0),
                                     kind)
        with pytest.raises(ValueError) as got:
            sample(5, np.random.default_rng(0))
        assert str(got.value) == str(expected.value)
        with pytest.raises(ValueError):
            extractor.sample_batch(5, np.random.default_rng(0), kind)

"""Tests for repro.defects.distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defects.distribution import (
    ChoiceTable,
    DefectDensity,
    LognormalComponent,
    ResistanceDistribution,
    default_bridge_distribution,
    default_open_distribution,
    sample_resistances_reference,
)


@pytest.fixture(scope="module")
def bridge_dist():
    return default_bridge_distribution()


@pytest.fixture(scope="module")
def open_dist():
    return default_open_distribution()


class TestComponentValidation:
    def test_negative_weight(self):
        with pytest.raises(ValueError):
            LognormalComponent(-0.1, 100.0, 1.0)

    def test_zero_median(self):
        with pytest.raises(ValueError):
            LognormalComponent(0.5, 0.0, 1.0)

    def test_empty_mixture(self):
        with pytest.raises(ValueError):
            ResistanceDistribution([])

    def test_weights_normalised(self):
        d = ResistanceDistribution([
            LognormalComponent(2.0, 100.0, 1.0),
            LognormalComponent(2.0, 1000.0, 1.0),
        ])
        assert sum(c.weight for c in d.components) == pytest.approx(1.0)


class TestCdf:
    def test_limits(self, bridge_dist):
        assert bridge_dist.cdf(0.0) == 0.0
        assert bridge_dist.cdf(1e12) == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(min_value=0.1, max_value=1e8),
           st.floats(min_value=1.01, max_value=100.0))
    @settings(max_examples=60)
    def test_monotone(self, r, factor):
        d = default_bridge_distribution()
        assert d.cdf(r * factor) >= d.cdf(r)

    def test_band_probability(self, bridge_dist):
        p = bridge_dist.band_probability(10.0, 1e3)
        assert 0.0 < p < 1.0
        assert p == pytest.approx(bridge_dist.cdf(1e3) - bridge_dist.cdf(10.0))

    def test_band_validation(self, bridge_dist):
        with pytest.raises(ValueError):
            bridge_dist.band_probability(100.0, 10.0)

    def test_pdf_integrates_to_cdf(self, bridge_dist):
        """Numeric integral of pdf over a band matches the cdf diff."""
        grid = np.logspace(1, 3, 2000)
        total = np.trapezoid([bridge_dist.pdf(r) for r in grid], grid)
        assert total == pytest.approx(bridge_dist.band_probability(10, 1e3),
                                      rel=0.01)


class TestChoiceTable:
    """The cached CDF draws what ``Generator.choice(p=...)`` draws."""

    P = np.array([0.05, 0.0, 0.6, 0.35])

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    @pytest.mark.parametrize("size", [1, 5000])
    def test_draw_equals_choice(self, seed, size):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = ChoiceTable(self.P).draw(rng, size)
        assert np.array_equal(picks, oracle.choice(4, size=size, p=self.P))
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    def test_draw_one_equals_choice(self, seed):
        table = ChoiceTable(self.P)
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            assert table.draw_one(rng) == oracle.choice(4, size=1, p=self.P)[0]
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("p", [
        [], [0.5, float("nan")], [1.5, -0.5], [0.0, 0.0], [0.5, 0.4]])
    def test_rejects_what_choice_rejects(self, p):
        with pytest.raises(ValueError) as expected:
            np.random.default_rng(0).choice(len(p), size=1, p=p)
        with pytest.raises(ValueError) as got:
            ChoiceTable(p)
        assert str(got.value) == str(expected.value)


class TestSampleOracle:
    """``sample`` and ``sample_one`` against the per-call choice(p=...)."""

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    @pytest.mark.parametrize("size", [1, 1000])
    @pytest.mark.parametrize("make", [default_bridge_distribution,
                                      default_open_distribution])
    def test_sample_equals_reference(self, seed, size, make):
        dist = make()
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(dist.sample(rng, size),
                              sample_resistances_reference(dist, oracle, size))
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    @pytest.mark.parametrize("make", [default_bridge_distribution,
                                      default_open_distribution])
    def test_sample_one_equals_sample(self, seed, make):
        dist = make()
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            value = dist.sample_one(rng)
            assert type(value) is float
            assert value == dist.sample(oracle, 1)[0]
        assert rng.random() == oracle.random()


class TestShapes:
    def test_bridges_mostly_low_ohmic(self, bridge_dist):
        """The fab-shape assumption behind Table 1's defect coverage."""
        assert bridge_dist.cdf(500.0) > 0.6
        assert bridge_dist.band_probability(30e3, 1e12) < 0.1

    def test_opens_reach_megohms(self, open_dist):
        """Figure 8's relevant range must carry real probability."""
        assert open_dist.band_probability(1.5e6, 1e12) > 0.02

    def test_sampling_matches_cdf(self, bridge_dist):
        rng = np.random.default_rng(1)
        samples = bridge_dist.sample(rng, 20000)
        empirical = float(np.mean(samples <= 1e3))
        assert empirical == pytest.approx(bridge_dist.cdf(1e3), abs=0.02)

    def test_sampling_deterministic_with_seed(self, open_dist):
        a = open_dist.sample(np.random.default_rng(7), 10)
        b = open_dist.sample(np.random.default_rng(7), 10)
        assert np.allclose(a, b)


class TestQuantileGrid:
    def test_grid_covers_bulk(self, bridge_dist):
        grid = bridge_dist.quantile_grid(32)
        assert len(grid) == 32
        assert bridge_dist.cdf(grid[0]) < 0.01
        assert bridge_dist.cdf(grid[-1]) > 0.99

    def test_grid_sorted(self, open_dist):
        grid = open_dist.quantile_grid(16)
        assert np.all(np.diff(grid) > 0)


class TestDefectDensity:
    def test_yield_formula(self):
        d = DefectDensity(d0_per_cm2=1.0)
        area_um2 = 1e8  # 1 cm^2
        assert d.yield_fraction(area_um2) == pytest.approx(math.exp(-1.0))

    def test_defects_per_chip_linear_in_area(self):
        d = DefectDensity(d0_per_cm2=2.0)
        assert d.defects_per_chip(2e6) == pytest.approx(
            2.0 * d.defects_per_chip(1e6))

    def test_validation(self):
        with pytest.raises(ValueError):
            DefectDensity(d0_per_cm2=0.0)
        with pytest.raises(ValueError):
            DefectDensity(bridge_fraction=1.5)
        with pytest.raises(ValueError):
            DefectDensity().defects_per_chip(-1.0)

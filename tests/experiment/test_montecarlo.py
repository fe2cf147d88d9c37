"""Tests for repro.experiment.montecarlo."""

import pytest

from repro.experiment.montecarlo import (
    REGIONS,
    RegionStats,
    run_monte_carlo,
)


@pytest.fixture(scope="module")
def result():
    return run_monte_carlo(n_runs=4, n_devices=2500)


class TestRunner:
    def test_run_count(self, result):
        assert result.n_runs == 4
        assert len(result.venns) == 4
        assert result.seeds == [1105, 1106, 1107, 1108]

    def test_all_regions_tracked(self, result):
        assert set(result.stats) == set(REGIONS)
        for stats in result.stats.values():
            assert len(stats.counts) == 4

    def test_stats_consistent_with_venns(self, result):
        for region in REGIONS:
            values = [getattr(v, region) for v in result.venns]
            assert result.stats[region].counts == values
            assert result.stats[region].min == min(values)
            assert result.stats[region].max == max(values)

    def test_deterministic(self):
        a = run_monte_carlo(n_runs=2, n_devices=1500)
        b = run_monte_carlo(n_runs=2, n_devices=1500)
        assert [v.as_dict() for v in a.venns] == [v.as_dict()
                                                  for v in b.venns]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_monte_carlo(n_runs=0)


class TestStability:
    def test_structural_claims_hold(self, result):
        stability = result.structural_stability()
        assert stability["vlv_only_dominates"] == 1.0
        assert stability["vmax_atspeed_and_triple_empty"] == 1.0

    def test_render(self, result):
        text = result.render()
        assert text.splitlines()[0] == "4 runs, seeds 1105-1108"
        assert "vlv_only" in text
        assert "structural stability" in text


class TestRegionStats:
    def test_empty_stats(self):
        s = RegionStats("x")
        assert s.mean == 0.0 and s.min == 0 and s.max == 0

    def test_math(self):
        s = RegionStats("x", [1, 2, 3])
        assert s.mean == pytest.approx(2.0)
        assert s.min == 1 and s.max == 3


class TestSeedRule:
    def test_seed_scheme_is_not_an_option(self):
        """Run k always draws from ``BASE_SEED + k``."""
        with pytest.raises(TypeError, match="seed_scheme"):
            run_monte_carlo(n_runs=1, n_devices=400, seed_scheme="spawn")

    def test_seeds_follow_base_seed(self, monkeypatch):
        monkeypatch.setattr("repro.experiment.montecarlo.BASE_SEED", 7)
        result = run_monte_carlo(n_runs=2, n_devices=400)
        assert result.seeds == [7, 8]


class TestRegionStatsGuards:
    """Satellite: zero-division audit of the summary statistics."""

    def test_empty_stats_are_all_zero(self):
        s = RegionStats("x")
        assert s.mean == 0.0
        assert s.std == 0.0
        assert s.min == 0
        assert s.max == 0

    def test_single_run_std_is_zero(self):
        s = RegionStats("x", [5])
        assert s.mean == 5.0
        assert s.std == 0.0

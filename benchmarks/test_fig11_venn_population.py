"""Benchmark: paper Figure 11 -- Venn diagram of failing devices.

The full silicon experiment: ~11k Veqtor4 parts, screen with the 11N
test at standard conditions, re-test survivors at VLV / Vmax / at-speed,
and account the interesting devices per stress-fail set.  Paper: 36
interesting devices -- 27 VLV-only, 3 Vmax-only, 3 at-speed-only,
2 VLV+Vmax, 1 VLV+at-speed, and both remaining regions empty.
"""

import pytest

from repro.analysis.figures import render_venn_comparison
from repro.experiment.classify import StressClassifier
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.experiment.venn import PAPER_VENN, VennCounts


@pytest.fixture(scope="module")
def experiment():
    lot = PopulationGenerator(PopulationSpec(n_devices=11000,
                                             seed=1105)).generate()
    return StressClassifier().classify(lot)


@pytest.fixture(scope="module")
def venn(experiment):
    return VennCounts.from_experiment(experiment)


def test_fig11_regeneration(benchmark):
    def run():
        lot = PopulationGenerator(
            PopulationSpec(n_devices=3000, seed=1105)).generate()
        return VennCounts.from_experiment(StressClassifier().classify(lot))
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.total >= 0


class TestFigure11Shape:
    def test_render(self, venn):
        print()
        print(render_venn_comparison(venn, PAPER_VENN))

    def test_total_same_scale_as_paper(self, venn):
        """~36 interesting parts in ~11k (a handful of per-mille)."""
        assert 15 <= venn.total <= 80

    def test_vlv_only_dominates(self, venn):
        """The paper's central experimental observation."""
        assert venn.vlv_only > venn.vmax_only
        assert venn.vlv_only > venn.atspeed_only
        assert venn.vlv_only >= 0.5 * venn.total

    def test_minor_classes_small_but_present(self, venn):
        assert 1 <= venn.vmax_only <= 10
        assert 1 <= venn.atspeed_only <= 10

    def test_overlap_structure_matches_paper(self, venn):
        """Small VLV overlaps exist; Vmax+at-speed and the triple
        region are empty, as in Figure 11."""
        assert venn.vlv_vmax >= 1
        assert venn.vmax_atspeed == 0
        assert venn.all_three == 0

    def test_accounting_is_consistent(self, experiment):
        """Standard fails and interesting parts are disjoint subsets of
        the defective parts, which are a subset of the lot."""
        assert experiment.standard_fails + experiment.interesting <= (
            experiment.defective) <= experiment.devices

    def test_vlv_escape_rate_order_of_magnitude_over_vmax(self, experiment):
        """The experimental counterpart of Table 1's ~9x DPM gap."""
        vlv = experiment.escape_dpm("VLV")
        vmax = max(experiment.escape_dpm("Vmax"), 1e-9)
        assert vlv / vmax > 3.0

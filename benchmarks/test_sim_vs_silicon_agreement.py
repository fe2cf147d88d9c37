"""Benchmark: Section 5's headline -- simulation matches silicon.

"The other highlight of this investigation is that there is a clear
matching between the simulation and the experimental results ... the
Defect Coverage and DPM Estimator has shown a difference of ~9X in DPM
level between VLV and Vmax testing, which also can be observed from the
experimental data from the Venn diagram."

The bench runs both worlds -- the estimator (IFA campaign + Williams-
Brown) and the Monte-Carlo lot -- and checks they agree on ordering and
on the order of magnitude of the VLV/Vmax gap.
"""

import pytest

from repro.core.flow import MemoryTestFlow
from repro.experiment.classify import StressClassifier
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.memory.geometry import VEQTOR4_INSTANCE


@pytest.fixture(scope="module")
def estimator_report():
    return MemoryTestFlow(VEQTOR4_INSTANCE, n_sites=4000).run().bridge_report


@pytest.fixture(scope="module")
def experiment():
    lot = PopulationGenerator(PopulationSpec(n_devices=11000,
                                             seed=1105)).generate()
    return StressClassifier().classify(lot)


def test_agreement_regeneration(benchmark):
    def both_worlds():
        report = MemoryTestFlow(VEQTOR4_INSTANCE,
                                n_sites=1000).run().bridge_report
        lot = PopulationGenerator(
            PopulationSpec(n_devices=2000, seed=1105)).generate()
        exp = StressClassifier().classify(lot)
        return report, exp
    report, exp = benchmark.pedantic(both_worlds, rounds=1, iterations=1)
    assert report.best_condition().condition == "VLV"


class TestAgreementShape:
    def test_print_comparison(self, estimator_report, experiment):
        est_ratio = estimator_report.dpm_ratio("Vmax", "VLV")
        vlv = experiment.escape_dpm("VLV")
        vmax = max(experiment.escape_dpm("Vmax"), 1e-9)
        print()
        print(f"estimator DPM ratio Vmax/VLV : {est_ratio:6.1f}x "
              "(paper: 9.3x)")
        print(f"population escape ratio      : {vlv / vmax:6.1f}x "
              "(paper Venn: 30/5 = 6x)")

    def test_both_rank_vlv_first(self, estimator_report, experiment):
        assert estimator_report.best_condition().condition == "VLV"
        assert experiment.escape_dpm("VLV") == max(
            experiment.escape_dpm(c) for c in ("VLV", "Vmax", "at-speed"))

    def test_gap_order_of_magnitude_in_both(self, estimator_report,
                                            experiment):
        est_ratio = estimator_report.dpm_ratio("Vmax", "VLV")
        pop_ratio = (experiment.escape_dpm("VLV")
                     / max(experiment.escape_dpm("Vmax"), 1e-9))
        assert 4.0 < est_ratio < 20.0
        assert 3.0 < pop_ratio < 20.0

    def test_ratios_agree_within_factor_three(self, estimator_report,
                                              experiment):
        """'Clear matching' -- the two independent numbers land within a
        small factor of each other (the paper: 9.3x vs ~9x)."""
        est_ratio = estimator_report.dpm_ratio("Vmax", "VLV")
        pop_ratio = (experiment.escape_dpm("VLV")
                     / max(experiment.escape_dpm("Vmax"), 1e-9))
        assert 1 / 3 < est_ratio / pop_ratio < 3.0

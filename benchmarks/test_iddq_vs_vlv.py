"""Extension benchmark: Iddq testing vs VLV ([Kruseman 02]).

The paper's Section 4.1 builds on Kruseman's comparison of Iddq and
very-low-voltage testing.  This bench reproduces the comparison over the
library's defect population: at the 0.18 um corner Iddq is a respectable
bridge screen, opens are invisible to it, and as background leakage
grows (scaled technology / hot testing) its reach collapses while VLV's
does not -- the reason the paper's generation leans on VLV.
"""

import numpy as np
import pytest

from repro.circuit.technology import CMOS013, CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.distribution import (
    default_bridge_distribution,
    default_open_distribution,
)
from repro.ifa.extraction import IfaExtractor
from repro.memory.geometry import VEQTOR4_INSTANCE
from repro.stress import production_conditions
from repro.tester.iddq import IddqSettings, IddqTester


@pytest.fixture(scope="module")
def populations():
    extractor = IfaExtractor(VEQTOR4_INSTANCE)
    rng = np.random.default_rng(42)
    bdist = default_bridge_distribution()
    odist = default_open_distribution()
    bridges = extractor.sample_bridges(
        1500, rng, resistance_sampler=bdist.sample_one)
    opens = extractor.sample_opens(
        500, rng, resistance_sampler=odist.sample_one)
    return bridges, opens


@pytest.fixture(scope="module")
def iddq():
    return IddqTester(CMOS018, VEQTOR4_INSTANCE)


@pytest.fixture(scope="module")
def vlv_coverage(populations):
    behavior = DefectBehaviorModel(CMOS018)
    vlv = production_conditions(CMOS018)["VLV"]
    bridges, _ = populations
    return np.mean([behavior.fails_condition(d, vlv) for d in bridges])


def test_iddq_regeneration(benchmark, populations, iddq):
    bridges, _ = populations
    cov = benchmark(iddq.coverage, bridges[:500])
    assert 0.0 <= cov <= 1.0


class TestIddqVsVlvShape:
    def test_print_comparison(self, populations, iddq, vlv_coverage):
        bridges, opens = populations
        print()
        print(f"bridge coverage:  Iddq {100 * iddq.coverage(bridges):5.1f} %"
              f"   VLV {100 * vlv_coverage:5.1f} %")
        print(f"open coverage:    Iddq {100 * iddq.coverage(opens):5.1f} %"
              "   (opens draw no quiescent current)")
        print(f"Iddq reach @25C: {iddq.detection_threshold(25.0) / 1e3:.0f}"
              f" kohm;  @85C: {iddq.detection_threshold(85.0) / 1e3:.0f}"
              " kohm")

    def test_iddq_decent_on_bridges_at_018(self, populations, iddq):
        bridges, _ = populations
        assert iddq.coverage(bridges) > 0.5

    def test_iddq_blind_to_opens(self, populations, iddq):
        _, opens = populations
        assert iddq.coverage(opens) == 0.0

    def test_iddq_competitive_at_018um(self, populations, iddq,
                                       vlv_coverage):
        """[Kruseman 02]'s finding at this generation: Iddq and VLV are
        close on the bulk bridge population."""
        bridges, _ = populations
        assert abs(iddq.coverage(bridges) - vlv_coverage) < 0.1

    def test_vlv_owns_the_high_ohmic_tail(self, populations, iddq):
        """The soft defects the paper worries about: bridges above the
        Iddq reach that VLV still detects."""
        behavior = DefectBehaviorModel(CMOS018)
        vlv = production_conditions(CMOS018)["VLV"]
        bridges, _ = populations
        ceiling = iddq.detection_threshold()
        tail = [d for d in bridges if d.resistance > 1.2 * ceiling]
        assert tail, "population should carry a high-ohmic tail"
        assert iddq.coverage(tail) == 0.0
        vlv_tail = np.mean([behavior.fails_condition(d, vlv) for d in tail])
        assert vlv_tail > 0.4

    def test_scaling_collapses_iddq_not_vlv(self, populations):
        """At a leaky 0.13 um-style corner Iddq's detectable-resistance
        ceiling drops by orders of magnitude; VLV's critical resistance
        is a drive-strength ratio and survives."""
        bridges, _ = populations
        leaky = IddqTester(CMOS013, VEQTOR4_INSTANCE,
                           IddqSettings(leakage_per_cell_25c=2e-9))
        clean = IddqTester(CMOS018, VEQTOR4_INSTANCE)
        assert (leaky.detection_threshold()
                < clean.detection_threshold() / 50.0)
        assert leaky.coverage(bridges) < clean.coverage(bridges) - 0.15

    def test_hot_testing_hurts_iddq(self, iddq):
        assert (iddq.detection_threshold(85.0)
                < iddq.detection_threshold(25.0))

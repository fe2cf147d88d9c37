"""Extension benchmark: the efficiency frontier behind the 11N choice.

The paper picked an 11N production test "a variation of MATS++,
March C- and MOVI" and closes by recommending "the best test algorithms
combined with specific stress conditions".  This bench computes the
coverage-per-operation frontier over the library's published tests and
shows the production test's position on it -- plus the complementary
weak-write screen comparison (the DFT route to cell-stability defects).
"""

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.distribution import default_open_distribution
from repro.ifa.extraction import IfaExtractor
from repro.march.compare import efficiency_frontier, render_scores, score_tests
from repro.march.library import (
    MARCH_B,
    MARCH_CM,
    MARCH_SS,
    MARCH_Y,
    MATS,
    MATS_PLUS_PLUS,
    TEST_11N,
)
from repro.memory.geometry import VEQTOR4_INSTANCE
from repro.stress import production_conditions
from repro.tester.weakwrite import WeakWriteTester

TESTS = (MATS, MATS_PLUS_PLUS, MARCH_Y, MARCH_CM, TEST_11N, MARCH_B,
         MARCH_SS)


@pytest.fixture(scope="module")
def scores():
    return score_tests(TESTS, n_cells=6)


def test_efficiency_regeneration(benchmark):
    result = benchmark.pedantic(
        score_tests, args=((MATS, MARCH_CM), ("SAF", "TF"), 6),
        rounds=1, iterations=1)
    assert len(result) == 2


class TestEfficiencyFrontier:
    def test_print_table(self, scores):
        print()
        print(render_scores(scores))
        print("frontier:",
              [s.test_name for s in efficiency_frontier(scores)])

    def test_11n_on_frontier(self, scores):
        frontier = {s.test_name for s in efficiency_frontier(scores)}
        assert "11N" in frontier

    def test_11n_dominates_march_cm(self, scores):
        """One extra op per cell buys the dynamic (w-r) coverage that
        March C- lacks entirely."""
        by_name = {s.test_name: s for s in scores}
        assert by_name["11N"].score > by_name["March C-"].score
        assert by_name["11N"].complexity == by_name["March C-"].complexity + 1

    def test_march_ss_dominated(self, scores):
        """Double the ops of 11N without more coverage on this mix."""
        by_name = {s.test_name: s for s in scores}
        assert by_name["March SS"].complexity == 2 * by_name["11N"].complexity
        assert by_name["March SS"].score <= by_name["11N"].score + 1e-9


class TestWeakWriteComplement:
    @pytest.fixture(scope="class")
    def pullup_population(self):
        extractor = IfaExtractor(VEQTOR4_INSTANCE)
        rng = np.random.default_rng(11)
        dist = default_open_distribution()
        opens = extractor.sample_opens(
            800, rng, resistance_sampler=dist.sample_one)
        from repro.defects.models import OpenSite
        return [d for d in opens if d.site is OpenSite.CELL_PULLUP]

    def test_wwtm_catches_vlv_band_at_nominal(self, pullup_population):
        """The weak-write screen reaches (part of) the VLV-only pull-up
        band without a voltage corner -- the DFT trade the industry
        made where VLV test time hurt."""
        wwtm = WeakWriteTester(CMOS018)
        behavior = DefectBehaviorModel(CMOS018)
        vlv = production_conditions(CMOS018)["VLV"]
        vlv_caught = [d for d in pullup_population
                      if behavior.fails_condition(d, vlv)]
        assert vlv_caught
        overlap = sum(1 for d in vlv_caught if wwtm.detects(d))
        assert overlap / len(vlv_caught) > 0.5

    def test_wwtm_cannot_replace_stress_suite(self, pullup_population):
        """...but WWTM alone misses every periphery/timing class."""
        from repro.defects.models import OpenSite, open_defect

        wwtm = WeakWriteTester(CMOS018)
        assert not wwtm.detects(open_defect(OpenSite.DECODER_INPUT, 5e5))
        assert not wwtm.detects(open_defect(OpenSite.BITLINE_SEGMENT, 3e6))

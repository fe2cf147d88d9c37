"""Cross-module property-based tests (hypothesis).

The module-level suites already carry local property tests; this file
holds the invariants that span subsystem boundaries -- the contracts the
whole reproduction stands on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.technology import CMOS018
from repro.core.williams_brown import defect_level, poisson_yield
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import BridgeSite, OpenSite, bridge, open_defect
from repro.march.library import STANDARD_TESTS, TEST_11N
from repro.march.sequencer import DataBackground, MarchSequencer
from repro.stress import StressCondition


@pytest.fixture(scope="module")
def behavior():
    return DefectBehaviorModel(CMOS018)


class TestStressDominance:
    """Detection must be monotone in stress for each mechanism."""

    @given(st.floats(min_value=30.0, max_value=5e5),
           st.floats(min_value=0.9, max_value=2.1),
           st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=60)
    def test_rail_bridge_lower_vdd_dominates(self, r, vdd, dv):
        """If a rail bridge manifests at some supply, it manifests at
        every lower (testable) supply too."""
        model = DefectBehaviorModel(CMOS018)
        d = bridge(BridgeSite.CELL_NODE_RAIL, r)
        period = 100e-9
        hi = StressCondition("hi", vdd + dv, period)
        lo = StressCondition("lo", vdd, period)
        if model.fails_condition(d, hi):
            assert model.fails_condition(d, lo)

    @given(st.floats(min_value=1e5, max_value=3e7),
           st.floats(min_value=6e-9, max_value=100e-9),
           st.floats(min_value=1e-9, max_value=50e-9))
    @settings(max_examples=60)
    def test_delay_open_shorter_period_dominates(self, r, period, dp):
        """If a bit-line open fails at some period, it fails at every
        shorter period (same supply)."""
        model = DefectBehaviorModel(CMOS018)
        d = open_defect(OpenSite.BITLINE_SEGMENT, r)
        slow = StressCondition("slow", 1.8, period + dp)
        fast = StressCondition("fast", 1.8, period)
        if model.fails_condition(d, slow):
            assert model.fails_condition(d, fast)

    @given(st.floats(min_value=1e4, max_value=3e7),
           st.floats(min_value=1.0, max_value=2.1),
           st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=60)
    def test_decoder_open_higher_vdd_dominates(self, r, vdd, dv):
        model = DefectBehaviorModel(CMOS018)
        d = open_defect(OpenSite.DECODER_INPUT, r)
        period = 100e-9
        lo = StressCondition("lo", vdd, period)
        hi = StressCondition("hi", vdd + dv, period)
        if model.fails_condition(d, lo):
            assert model.fails_condition(d, hi)

    @given(st.floats(min_value=10.0, max_value=1e6))
    @settings(max_examples=40)
    def test_severity_at_least_one_when_manifest(self, r):
        model = DefectBehaviorModel(CMOS018)
        d = bridge(BridgeSite.CELL_NODE_RAIL, r)
        m = model.manifestation(d, StressCondition("c", 1.0, 100e-9))
        if m is not None:
            assert m.severity >= 1.0


class TestSequencerInvariants:
    @pytest.mark.parametrize("name", sorted(STANDARD_TESTS))
    def test_cycle_stream_length_all_tests(self, name):
        test = STANDARD_TESTS[name]
        seq = MarchSequencer(8)
        stream = list(seq.run(test))
        assert len(stream) == test.complexity * 8

    @given(st.integers(min_value=1, max_value=64),
           st.sampled_from(sorted(STANDARD_TESTS)))
    @settings(max_examples=30)
    def test_every_read_preceded_by_defining_write(self, n, name):
        """In a consistent test the sequencer never emits a read of a
        cell whose current value differs from the expectation -- the
        fault-free invariant that detection rests on."""
        test = STANDARD_TESTS[name]
        state = {}
        for cop in MarchSequencer(n).run(test):
            if cop.op.is_write:
                state[cop.address] = cop.value
            else:
                assert state.get(cop.address) == cop.value, (name, cop)

    @given(st.sampled_from(list(DataBackground)),
           st.integers(min_value=2, max_value=32))
    @settings(max_examples=30)
    def test_background_consistency_under_any_pattern(self, bg, n):
        state = {}
        for cop in MarchSequencer(n, columns=4).run(TEST_11N, bg):
            if cop.op.is_write:
                state[cop.address] = cop.value
            else:
                assert state.get(cop.address) == cop.value


class TestQualityModelInvariants:
    @given(st.floats(min_value=0.01, max_value=0.999),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_better_coverage_never_worse_dpm(self, y, dc1, dc2):
        lo, hi = sorted((dc1, dc2))
        assert defect_level(y, hi) <= defect_level(y, lo) + 1e-12

    @given(st.floats(min_value=0.0, max_value=1e9),
           st.floats(min_value=0.0, max_value=1e9),
           st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=50)
    def test_yield_multiplicative_in_area(self, a1, a2, d0):
        combined = poisson_yield(a1 + a2, d0)
        product = poisson_yield(a1, d0) * poisson_yield(a2, d0)
        assert combined == pytest.approx(product, rel=1e-9)


class TestEndToEndDeterminism:
    def test_campaign_deterministic(self):
        from repro.ifa.flow import IfaCampaign
        from repro.memory.geometry import MemoryGeometry
        from repro.stress import production_conditions

        conds = [production_conditions(CMOS018)["VLV"]]
        runs = []
        for _ in range(2):
            camp = IfaCampaign(MemoryGeometry(16, 2, 4), CMOS018,
                               n_sites=300, seed=11)
            runs.append(camp.run([1e3, 90e3], conds))
        assert [(r.resistance, r.detected) for r in runs[0]] == \
            [(r.resistance, r.detected) for r in runs[1]]

    def test_full_vs_quick_never_disagree_on_population_sample(self):
        """The two-tier consistency contract, sampled."""
        import dataclasses

        from repro.experiment.population import (
            PopulationGenerator,
            PopulationSpec,
        )
        from repro.march.library import TEST_11N
        from repro.memory.geometry import MemoryGeometry
        from repro.memory.sram import Sram
        from repro.stress import production_conditions
        from repro.tester.ate import VirtualTester

        lot = PopulationGenerator(
            PopulationSpec(n_devices=400, seed=5)).generate()
        geom = MemoryGeometry(8, 2, 4)
        sram = Sram(geom, CMOS018)
        tester = VirtualTester(DefectBehaviorModel(CMOS018))
        conds = production_conditions(CMOS018)
        assert len(lot.rows) >= 12
        for chip in map(lot.chip, range(12)):
            defects = [dataclasses.replace(d, cell=d.cell % geom.bits)
                       for d in chip.all_defects]
            for cond in (conds["VLV"], conds["Vnom"], conds["at-speed"]):
                quick = tester.test_device(sram, defects, TEST_11N, cond,
                                           quick=True)
                full = tester.test_device(sram, defects, TEST_11N, cond,
                                          quick=False)
                assert quick.passed == full.passed, (chip.chip_id,
                                                     cond.name)

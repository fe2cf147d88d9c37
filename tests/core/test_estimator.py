"""Tests for repro.core.estimator and repro.core.flow."""

import pytest

from repro.core.database import CoverageDatabase
from repro.core.estimator import (
    EmptyReportError,
    EstimatorReport,
    FaultCoverageEstimator,
    normalised_dpm,
)
from repro.core.flow import MemoryTestFlow
from repro.core.records import CoverageRecord
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry


def rec(kind, r, cond, detected, total=100):
    return CoverageRecord(kind, r, cond, 1.8, 1e-7, detected, total)


@pytest.fixture(scope="module")
def flow_result():
    return MemoryTestFlow(VEQTOR4_INSTANCE, n_sites=2000).run()


class TestEstimatorReport:
    def test_vlv_best_condition(self, flow_result):
        report = flow_result.bridge_report
        assert report.best_condition().condition == "VLV"
        assert report.by_condition("VLV").dpm_normalised == pytest.approx(1.0)

    def test_dpm_ratio_order_of_magnitude(self, flow_result):
        """Paper Section 3.1: ~9.3x between Vmax and VLV."""
        ratio = flow_result.bridge_report.dpm_ratio("Vmax", "VLV")
        assert 5.0 < ratio < 20.0

    def test_defect_coverage_ordering(self, flow_result):
        report = flow_result.bridge_report
        dc = {e.condition: e.defect_coverage for e in report.estimates}
        assert dc["VLV"] > dc["Vmin"] > dc["Vmax"]

    def test_defect_coverage_near_paper(self, flow_result):
        report = flow_result.bridge_report
        assert report.by_condition("VLV").defect_coverage == pytest.approx(
            0.9892, abs=0.02)
        assert report.by_condition("Vmax").defect_coverage == pytest.approx(
            0.8976, abs=0.05)

    def test_unknown_condition(self, flow_result):
        with pytest.raises(KeyError):
            flow_result.bridge_report.by_condition("Vhuge")

    def test_open_report_prefers_stress(self, flow_result):
        """Opens: Vmax and at-speed beat Vnom (Sections 4.2/4.3)."""
        report = flow_result.open_report
        dc = {e.condition: e.defect_coverage for e in report.estimates}
        assert dc["Vmax"] > dc["Vnom"]
        assert dc["at-speed"] > dc["Vnom"]


class TestEstimatorApi:
    def test_yield_override(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        g = MemoryGeometry(4, 2, 2)
        rep = est.estimate(g, "bridge", yield_fraction=0.5)
        assert rep.yield_fraction == 0.5

    def test_yield_from_geometry(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        small = est.estimate(MemoryGeometry(4, 2, 2), "bridge")
        big = est.estimate(MemoryGeometry(512, 16, 32), "bridge")
        assert small.yield_fraction > big.yield_fraction

    def test_bigger_memory_higher_dpm(self):
        """Same coverage, larger area -> lower yield -> more escapes;
        the paper's motivation: growing memory size endangers SoC DPM."""
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        small = est.estimate(MemoryGeometry(64, 4, 8), "bridge")
        big = est.estimate(MemoryGeometry(512, 16, 32), "bridge")
        assert (big.by_condition("VLV").dpm
                > small.by_condition("VLV").dpm)

    def test_invalid_kind(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        with pytest.raises(ValueError):
            est.estimate(MemoryGeometry(4, 2, 2), "stuck")

    def test_invalid_yield(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        with pytest.raises(ValueError):
            est.estimate(MemoryGeometry(4, 2, 2), "bridge",
                         yield_fraction=1.5)

    def test_escapes_per_million(self, flow_result):
        report = flow_result.estimator.estimate(VEQTOR4_INSTANCE, "bridge")
        vlv = report.by_condition("VLV").dpm
        vmax = report.by_condition("Vmax").dpm
        assert vmax > vlv > 0.0


class TestFlowPlumbing:
    def test_database_carries_both_kinds(self, flow_result):
        assert set(flow_result.database.conditions("bridge")) == {
            "VLV", "Vmin", "Vnom", "Vmax", "at-speed"}
        assert flow_result.database.resistances("open")

    def test_flow_deterministic(self):
        g = MemoryGeometry(16, 2, 4)
        r1 = MemoryTestFlow(g, n_sites=500, seed=3).run()
        r2 = MemoryTestFlow(g, n_sites=500, seed=3).run()
        assert (r1.bridge_report.by_condition("VLV").defect_coverage
                == r2.bridge_report.by_condition("VLV").defect_coverage)

    def test_flow_validates_n_sites(self):
        with pytest.raises(ValueError):
            MemoryTestFlow(MemoryGeometry(4, 2, 2), n_sites=0)


class TestZeroDpmNormalisation:
    """Perfect-coverage suites: 0/0 DPM normalises to 1.0, never inf."""

    def test_perfect_suite_normalises_to_one(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 100),
                               rec("bridge", 1e3, "Vmax", 100)])
        rep = FaultCoverageEstimator(db).estimate(
            MemoryGeometry(4, 2, 2), "bridge")
        for e in rep.estimates:
            assert e.dpm == 0.0
            assert e.dpm_normalised == 1.0

    def test_imperfect_condition_against_perfect_best_is_inf(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 100),
                               rec("bridge", 1e3, "Vmax", 60)])
        rep = FaultCoverageEstimator(db).estimate(
            MemoryGeometry(4, 2, 2), "bridge")
        assert rep.by_condition("VLV").dpm_normalised == 1.0
        assert rep.by_condition("Vmax").dpm_normalised == float("inf")

    def test_normalised_dpm_zero_over_zero(self):
        assert normalised_dpm(0.0, 0.0) == 1.0
        assert normalised_dpm(5.0, 0.0) == float("inf")
        assert normalised_dpm(5.0, 2.5) == 2.0

    def test_dpm_ratio_both_zero_is_one(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 100),
                               rec("bridge", 1e3, "Vmax", 100)])
        rep = FaultCoverageEstimator(db).estimate(
            MemoryGeometry(4, 2, 2), "bridge")
        assert rep.dpm_ratio("Vmax", "VLV") == 1.0

    def test_dpm_ratio_nonzero_over_zero_is_inf(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 100),
                               rec("bridge", 1e3, "Vmax", 60)])
        rep = FaultCoverageEstimator(db).estimate(
            MemoryGeometry(4, 2, 2), "bridge")
        assert rep.dpm_ratio("Vmax", "VLV") == float("inf")


class TestNamedErrors:
    def test_empty_report_best_condition(self):
        report = EstimatorReport("bridge", MemoryGeometry(4, 2, 2),
                                 1.0, ())
        with pytest.raises(EmptyReportError,
                           match="no condition estimates"):
            report.best_condition()

    def test_empty_report_error_is_a_value_error(self):
        assert issubclass(EmptyReportError, ValueError)

    def test_absent_kind_raises_named_keyerror(self):
        db = CoverageDatabase([rec("bridge", 1e3, "VLV", 90)])
        est = FaultCoverageEstimator(db)
        with pytest.raises(KeyError, match="no records for kind='open'"):
            est.estimate(MemoryGeometry(4, 2, 2), "open")


class TestRelativeCoverage:
    def test_bridge_vlv_relative_near_one(self, flow_result):
        """VLV's per-R curve *is* the bridge envelope almost everywhere."""
        rel = flow_result.bridge_report.by_condition("VLV").relative_coverage
        assert rel == pytest.approx(1.0, abs=0.02)

    def test_open_relative_ranking_matches_paper_sections(self, flow_result):
        """Sections 4.2/4.3: opens belong to Vmax and at-speed; the
        detectable-relative view makes that unmistakable."""
        report = flow_result.open_report
        rel = {e.condition: e.relative_coverage for e in report.estimates}
        assert rel["at-speed"] > rel["Vnom"] > rel["Vmin"]
        assert rel["Vmax"] > rel["Vnom"]

    def test_relative_at_least_absolute(self, flow_result):
        for report in (flow_result.bridge_report, flow_result.open_report):
            for est in report.estimates:
                assert est.relative_coverage >= est.defect_coverage - 1e-9

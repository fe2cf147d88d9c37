"""Tests for repro.core.testplan."""

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.core.testplan import JointCoverageTable, TestPlanOptimizer
from repro.defects.behavior import DefectBehaviorModel
from repro.march.library import TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.perf.counting import CountingBehaviorModel
from repro.stress import production_conditions


@pytest.fixture(scope="module")
def table():
    return JointCoverageTable(
        MemoryGeometry(512, 16, 32), CMOS018,
        production_conditions(CMOS018), n_samples=1500, seed=7)


@pytest.fixture(scope="module")
def optimizer(table):
    return TestPlanOptimizer(table, TEST_11N)


class TestJointTable:
    def test_full_suite_covers_detectable_population(self, table):
        assert table.subset_coverage(tuple(table.condition_names)) == 1.0

    def test_empty_subset_zero(self, table):
        assert table.subset_coverage(()) == 0.0

    def test_union_monotone(self, table):
        c1 = table.subset_coverage(("VLV",))
        c2 = table.subset_coverage(("VLV", "Vmax"))
        c3 = table.subset_coverage(("VLV", "Vmax", "at-speed"))
        assert c1 <= c2 <= c3

    def test_vlv_is_strongest_single_voltage_condition(self, table):
        cov = {n: table.subset_coverage((n,))
               for n in ("VLV", "Vmin", "Vnom", "Vmax")}
        assert cov["VLV"] == max(cov.values())

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    def test_kernel_table_equals_scalar_oracle(self, seed, monkeypatch):
        model = DefectBehaviorModel(CMOS018)
        counted = CountingBehaviorModel(model)
        monkeypatch.setattr("repro.core.testplan.DefectBehaviorModel",
                            lambda tech: counted)
        table = JointCoverageTable(
            MemoryGeometry(512, 16, 32), CMOS018,
            production_conditions(CMOS018), n_samples=600, seed=seed)
        oracle = np.array([[model.fails_condition(defect, cond)
                            for cond in table.conditions.values()]
                           for defect in table.population.defects()])
        assert counted.calls == 0
        assert np.array_equal(table.detection, oracle)
        assert table.detection.any()

    def test_validation(self):
        with pytest.raises(ValueError):
            JointCoverageTable(MemoryGeometry(4, 2, 2), CMOS018,
                               production_conditions(CMOS018), n_samples=0)


class TestOptimizer:
    def test_condition_time_scales_with_period(self, optimizer):
        assert (optimizer.condition_time("VLV")
                > optimizer.condition_time("at-speed"))

    def test_all_plans_count(self, optimizer):
        # 5 conditions -> 2^5 - 1 subsets.
        assert len(optimizer.all_plans()) == 31

    def test_pareto_front_properties(self, optimizer):
        front = optimizer.pareto_front()
        assert front
        times = [p.test_time for p in front]
        dpms = [p.dpm for p in front]
        assert times == sorted(times)
        assert dpms == sorted(dpms, reverse=True)

    def test_full_stress_plan_on_front(self, optimizer):
        """The paper's recommended combination reaches the best DPM."""
        front = optimizer.pareto_front()
        best = front[-1]
        assert {"VLV"} <= set(best.conditions)
        assert best.dpm == min(p.dpm for p in optimizer.all_plans())

    def test_vmin_vnom_never_needed(self, optimizer):
        """Everything Vmin/Vnom catch, the stress conditions also catch:
        the non-stress corners are dominated (the insight behind the
        paper's 'specific stress conditions' recommendation)."""
        front = optimizer.pareto_front()
        for plan in front:
            assert "Vmin" not in plan.conditions
            assert "Vnom" not in plan.conditions

    def test_cheapest_meeting_target(self, optimizer):
        best_dpm = min(p.dpm for p in optimizer.all_plans())
        plan = optimizer.cheapest_meeting(best_dpm + 1.0)
        assert plan is not None
        assert plan.dpm <= best_dpm + 1.0

    def test_unreachable_target(self, optimizer):
        assert optimizer.cheapest_meeting(-1.0) is None

    def test_plan_str(self, optimizer):
        plan = optimizer.evaluate(("VLV",))
        assert "VLV" in str(plan)
        assert "DPM" in str(plan)

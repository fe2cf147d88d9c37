"""Test-plan optimisation: which stress conditions, at what cost?

The paper ends with a recommendation ("VLV at low frequency, Vnom and
Vmax at high frequency") born from the test-time pressure of running
many conditions.  This example computes the decision instead of quoting
it: the joint coverage of every stress-condition subset, the per-device
test time, the time/DPM Pareto front, and the cheapest plan meeting an
automotive-grade DPM target -- then deploys the winning plan through the
on-chip BIST engine.

Run:  python examples/test_plan_optimization.py
"""

from repro import CMOS018, DefectBehaviorModel
from repro.bist.engine import BistEngine, ResponseMode
from repro.core.testplan import JointCoverageTable, TestPlanOptimizer
from repro.core.williams_brown import required_coverage
from repro.defects.injection import to_functional_fault
from repro.defects.models import BridgeSite, bridge
from repro.march.library import TEST_11N
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.memory.sram import Sram
from repro.stress import production_conditions


def main() -> None:
    conditions = production_conditions(CMOS018)

    # 1. Joint detectability of the defect population per condition.
    print("building joint coverage table (3000 sampled defects)...")
    table = JointCoverageTable(VEQTOR4_INSTANCE, CMOS018, conditions,
                               n_samples=3000)
    print("\nsingle-condition coverage (of detectable defects):")
    for name in table.condition_names:
        print(f"  {name:>9}: {100 * table.subset_coverage((name,)):6.2f} %")

    # 2. The time/DPM Pareto front.
    optimizer = TestPlanOptimizer(table, TEST_11N)
    print("\ntime/DPM Pareto front:")
    for plan in optimizer.pareto_front():
        print(f"  {plan}")

    # 3. A quality target: how much coverage does 50 DPM take, and what
    #    is the cheapest plan that gets there?
    y = optimizer._yield
    needed = required_coverage(y, target_dpm=50.0)
    print(f"\nyield {100 * y:.2f} % -> 50 DPM needs "
          f"{100 * needed:.2f} % defect coverage")
    plan = optimizer.cheapest_meeting(50.0)
    print(f"cheapest plan meeting 50 DPM: {plan}")

    # 4. Deploy the plan on-chip: the BIST engine applies the same 11N
    #    patterns; the tester only switches conditions.
    print("\ndeploying through BIST (Chip-1-style VLV-only defect):")
    geometry = MemoryGeometry(8, 2, 4)
    sram = Sram(geometry, CMOS018)
    behavior = DefectBehaviorModel(CMOS018)
    defect = bridge(BridgeSite.CELL_NODE_RAIL, 150e3,
                    cell=geometry.cell_index(3, 1), polarity=1)
    engine = BistEngine(sram)
    for name in plan.conditions:
        sram.clear_faults()
        manifestation = behavior.manifestation(defect, conditions[name])
        if manifestation is not None:
            sram.attach_fault(
                to_functional_fault(manifestation, geometry=geometry))
        result = engine.run(TEST_11N, conditions[name], ResponseMode.MISR)
        verdict = "PASS" if result.passed else "FAIL"
        print(f"  BIST @ {name:>9}: {verdict} "
              f"(signature 0x{result.signature:04x}, "
              f"golden 0x{result.golden:04x})")
    sram.clear_faults()


if __name__ == "__main__":
    main()

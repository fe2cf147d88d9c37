"""March test design: build, validate and evaluate a custom algorithm.

Shows the march-engine side of the library: author a test in standard
notation, run the static validator, score it against the classical
functional fault classes next to the published tests, and finally see
why algorithm strength alone cannot replace stress conditions.

Run:  python examples/march_test_design.py
"""

from repro import CMOS018, DefectBehaviorModel
from repro.analysis.tables import render_coverage_matrix
from repro.defects.models import BridgeSite, bridge
from repro.faults.coverage import coverage_matrix
from repro.lint import lint_march
from repro.march.library import MARCH_CM, MATS_PLUS_PLUS, TEST_11N
from repro.march.test import MarchTest
from repro.stress import production_conditions


def main() -> None:
    # 1. Author a test in standard notation (^ up, v down, * any).
    my_test = MarchTest.parse(
        "MyMarch-9N",
        "*(w0); ^(r0,w1); ^(r1,w0); v(r0,w1); v(r1,w0,r0)",
        description="a home-grown 9N algorithm",
    )
    print(f"{my_test}")
    print(f"complexity: {my_test.complexity}N, "
          f"{my_test.read_count()} reads/cell, "
          f"{my_test.transition_count()} write transitions\n")

    # 2. Static validation catches authoring mistakes.
    print("== validator ==")
    issues = lint_march(my_test).issues
    if issues:
        for issue in issues:
            print(f"  {issue}")
    else:
        print("  clean: no errors, no warnings")

    broken = MarchTest.parse("Broken", "*(w0); ^(r1,w0)")
    print("a deliberately broken test:")
    for issue in lint_march(broken).issues:
        print(f"  {issue}")

    # 3. Classical fault-class coverage next to the published tests.
    print("\n== functional fault coverage (16-cell exhaustive) ==")
    matrix = coverage_matrix(
        [MATS_PLUS_PLUS, MARCH_CM, TEST_11N, my_test],
        ["SAF", "TF", "AF", "CFin", "CFst", "dRDF"],
        n_cells=8,
    )
    print(render_coverage_matrix(matrix))

    # 4. The paper's point: a perfect functional score still misses
    #    resistive defects without the right stress condition.
    print("\n== the stress-condition blind spot ==")
    behavior = DefectBehaviorModel(CMOS018)
    conditions = production_conditions(CMOS018)
    high_ohmic = bridge(BridgeSite.CELL_NODE_RAIL, 150e3)
    for name in ("Vnom", "VLV"):
        caught = behavior.fails_condition(high_ohmic, conditions[name])
        print(f"  150 kohm bridge under {name:>4}: "
              f"{'DETECTED (any march test)' if caught else 'ESCAPES (every march test)'}")


if __name__ == "__main__":
    main()

"""The silicon experiment: an 11k-device lot through the stress suite.

Reproduces the paper's Section 5 end to end: generate a Veqtor4 lot with
fab-sampled defects, screen with the 11N test at standard conditions,
re-test survivors at VLV / Vmax / at-speed, draw the Figure 11 Venn
diagram, and close the loop against the estimator's prediction.

Run:  python examples/silicon_experiment.py
"""

from repro import MemoryTestFlow, PopulationGenerator, PopulationSpec
from repro.analysis.figures import render_venn_comparison
from repro.experiment.classify import StressClassifier
from repro.experiment.venn import PAPER_VENN, VennCounts
from repro.memory.geometry import VEQTOR4_INSTANCE


def main() -> None:
    # 1. Build the lot: 11000 parts, four 256 Kbit instances each.
    spec = PopulationSpec(n_devices=11000, seed=1105)
    generator = PopulationGenerator(spec)
    lot = generator.generate()

    # 2. Screen-then-stress protocol.
    experiment = StressClassifier().classify(lot)
    print(f"lot: {experiment.devices} parts, {experiment.defective} carry "
          f">=1 defect (expected "
          f"{generator.expected_defective_fraction():.1%})")
    print(f"standard-test fails (yield loss): {experiment.standard_fails}")
    print(f"interesting devices (escapes of the standard flow): "
          f"{experiment.interesting}\n")

    # 3. The Venn diagram (paper Figure 11).
    venn = VennCounts.from_experiment(experiment)
    print(render_venn_comparison(venn, PAPER_VENN))

    # 4. What each stress condition is worth, in DPM.
    print("\nescape rate each stress condition would have caught:")
    for name in ("VLV", "Vmax", "at-speed"):
        print(f"  {name:>9}: {experiment.escape_dpm(name):6.0f} DPM")

    # 5. Close the loop: the estimator predicted this from layout alone.
    report = MemoryTestFlow(VEQTOR4_INSTANCE,
                            n_sites=3000).run().bridge_report
    est_ratio = report.dpm_ratio("Vmax", "VLV")
    pop_ratio = (experiment.escape_dpm("VLV")
                 / max(experiment.escape_dpm("Vmax"), 1e-9))
    print("\nsimulation vs silicon (the paper's 'clear matching'):")
    print(f"  estimator DPM ratio Vmax/VLV : {est_ratio:5.1f}x "
          "(paper: 9.3x)")
    print(f"  lot escape ratio VLV/Vmax    : {pop_ratio:5.1f}x "
          "(paper Venn: ~6x)")


if __name__ == "__main__":
    main()

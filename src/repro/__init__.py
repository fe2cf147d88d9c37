"""repro: Memory testing under different stress conditions.

A full reproduction of *"Memory Testing Under Different Stress
Conditions: An Industrial Evaluation"* (Majhi et al., DATE 2005) as a
Python library:

* :mod:`repro.circuit` -- compact-device Spice-like simulator,
* :mod:`repro.memory` -- 6T-cell SRAM model with electrical periphery,
* :mod:`repro.march` -- march test engine (MATS++ .. MOVI, the 11N test),
* :mod:`repro.faults` -- classical functional fault models + simulator,
* :mod:`repro.defects` -- resistive bridge/open models with calibrated
  stress-condition behaviour,
* :mod:`repro.ifa` -- synthetic layout + critical-area extraction,
* :mod:`repro.core` -- the fault-coverage & DPM estimator (the paper's
  contribution),
* :mod:`repro.tester` -- virtual ATE, shmoo plots, bitmap diagnosis,
* :mod:`repro.experiment` -- the simulated 11k-device silicon study,
* :mod:`repro.analysis` -- table/figure renderers.

Quickstart::

    from repro import MemoryTestFlow, MemoryGeometry
    report = MemoryTestFlow(MemoryGeometry(512, 16, 32)).run()
    print(report.bridge_report.by_condition("VLV").defect_coverage)
"""

import importlib

# Public name -> the module that defines it.  ``import repro`` loads
# none of them; ``__getattr__`` imports a module on first use (PEP 562).
_EXPORTS = {
    "BehaviorParams": "repro.defects.behavior",
    "BistEngine": "repro.bist.engine",
    "BridgeSite": "repro.defects.models",
    "CMOS013": "repro.circuit.technology",
    "CMOS018": "repro.circuit.technology",
    "CoverageDatabase": "repro.core.database",
    "Defect": "repro.defects.models",
    "DefectBehaviorModel": "repro.defects.behavior",
    "DefectKind": "repro.defects.models",
    "EstimatorReport": "repro.core.estimator",
    "FaultCoverageEstimator": "repro.core.estimator",
    "FlowResult": "repro.core.flow",
    "IddqTester": "repro.tester.iddq",
    "IfaCampaign": "repro.ifa.flow",
    "JointCoverageTable": "repro.core.testplan",
    "MarchTest": "repro.march.test",
    "MemoryGeometry": "repro.memory.geometry",
    "MemoryTestFlow": "repro.core.flow",
    "MoviExecutor": "repro.tester.movi",
    "OpenSite": "repro.defects.models",
    "PAPER_VENN": "repro.experiment.venn",
    "PopulationGenerator": "repro.experiment.population",
    "PopulationSpec": "repro.experiment.population",
    "ResponseMode": "repro.bist.engine",
    "STANDARD_TESTS": "repro.march.library",
    "ShmooRunner": "repro.tester.shmoo",
    "Sram": "repro.memory.sram",
    "StressClassifier": "repro.experiment.classify",
    "StressCondition": "repro.stress",
    "TEST_11N": "repro.march.library",
    "TestPlanOptimizer": "repro.core.testplan",
    "Technology": "repro.circuit.technology",
    "VEQTOR4_INSTANCE": "repro.memory.geometry",
    "VennCounts": "repro.experiment.venn",
    "VirtualTester": "repro.tester.ate",
    "get_test": "repro.march.library",
    "load_default_database": "repro.core.database",
    "production_conditions": "repro.stress",
}

__version__ = "1.0.0"

__all__ = [
    "BehaviorParams",
    "BistEngine",
    "BridgeSite",
    "CMOS013",
    "CMOS018",
    "CoverageDatabase",
    "Defect",
    "DefectBehaviorModel",
    "DefectKind",
    "EstimatorReport",
    "FaultCoverageEstimator",
    "FlowResult",
    "IddqTester",
    "IfaCampaign",
    "JointCoverageTable",
    "MarchTest",
    "MemoryGeometry",
    "MemoryTestFlow",
    "MoviExecutor",
    "OpenSite",
    "PAPER_VENN",
    "PopulationGenerator",
    "PopulationSpec",
    "STANDARD_TESTS",
    "ShmooRunner",
    "Sram",
    "StressClassifier",
    "StressCondition",
    "TEST_11N",
    "TestPlanOptimizer",
    "ResponseMode",
    "Technology",
    "VEQTOR4_INSTANCE",
    "VennCounts",
    "VirtualTester",
    "__version__",
    "get_test",
    "load_default_database",
    "production_conditions",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

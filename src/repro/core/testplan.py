"""Test-plan optimisation: stress conditions vs test time vs DPM.

The paper's closing recommendation: "Test time is an issue during
production when we consider the implementation of many algorithms under
various stress conditions.  Hence, it is recommended to have the best
test algorithms combined with specific stress conditions (VLV at low
frequency, Vnom and Vmax at high frequency) to reduce test escapes and
deliver high quality products."

This module turns that sentence into an optimiser:

* :class:`JointCoverageTable` -- Monte-Carlo joint detectability: which
  sampled defects each stress condition catches, so the coverage of any
  condition *subset* (the union) is computable -- something the marginal
  per-condition database cannot answer;
* a test-time model (march complexity x array size x clock period, plus
  per-condition setup overhead);
* :class:`TestPlanOptimizer` -- exhaustive search over condition subsets
  for (a) the cheapest plan meeting a DPM target and (b) the full
  time/DPM Pareto front.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.circuit.technology import Technology
from repro.core.williams_brown import dpm as williams_brown_dpm
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.distribution import (
    DefectDensity,
    ResistanceDistribution,
    default_bridge_distribution,
    default_open_distribution,
)
from repro.defects.models import DefectArrays
from repro.ifa.extraction import IfaExtractor
from repro.march.test import MarchTest
from repro.memory.geometry import MemoryGeometry
from repro.stress import StressCondition


class JointCoverageTable:
    """Per-defect detection across a condition suite.

    Args:
        geometry: Memory organisation.
        tech: Technology corner.
        conditions: Name -> condition suite to tabulate.
        behavior: Behaviour model (default built from ``tech``).
        n_samples: Monte-Carlo defect samples (site + resistance pairs).
        bridge_fraction: Defect-kind mix.
        seed: RNG seed.
    """

    def __init__(self, geometry: MemoryGeometry, tech: Technology,
                 conditions: dict[str, StressCondition],
                 behavior: DefectBehaviorModel | None = None,
                 bridge_distribution: ResistanceDistribution | None = None,
                 open_distribution: ResistanceDistribution | None = None,
                 n_samples: int = 3000,
                 bridge_fraction: float = 0.8,
                 seed: int = 2005) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        self.geometry = geometry
        self.conditions = dict(conditions)
        self.condition_names = list(conditions)
        behavior = behavior if behavior is not None else DefectBehaviorModel(tech)
        bridge_dist = bridge_distribution or default_bridge_distribution()
        open_dist = open_distribution or default_open_distribution()
        extractor = IfaExtractor(geometry)
        rng = np.random.default_rng(seed)

        n_bridges = int(round(n_samples * bridge_fraction))
        defects = extractor.sample_bridges(
            max(n_bridges, 1), rng, resistance_sampler=bridge_dist.sample_one)
        defects += extractor.sample_opens(
            max(n_samples - n_bridges, 1), rng,
            resistance_sampler=open_dist.sample_one)
        self.defects = defects

        # detection[i, j]: defect i caught by condition j -- one
        # elementwise kernel call per condition (fails_condition per
        # defect is the oracle it is tested against).
        self.detection = np.zeros((len(defects), len(self.condition_names)),
                                  dtype=bool)
        arrays = DefectArrays.from_defects(defects)
        for j, name in enumerate(self.condition_names):
            self.detection[:, j] = behavior.evaluate_elements(
                arrays.codes, arrays.strengths, arrays.resistances,
                self.conditions[name])

    # ------------------------------------------------------------------
    def subset_coverage(self, names: tuple[str, ...] | list[str]) -> float:
        """Defect coverage of a condition subset (union detection).

        Coverage is computed over the *detectable* defect population
        (defects no condition in the full suite catches are excluded:
        they are the irreducible escape floor, identical for every
        plan).
        """
        if not names:
            return 0.0
        cols = [self.condition_names.index(n) for n in names]
        any_full = self.detection.any(axis=1)
        detectable = int(any_full.sum())
        if detectable == 0:
            return 1.0
        caught = self.detection[:, cols].any(axis=1) & any_full
        return float(caught.sum()) / detectable


@dataclass(frozen=True)
class TestPlan:
    """One evaluated test plan (not a pytest class despite the name).

    Attributes:
        conditions: Chosen condition names (suite order).
        test_time: Total test time per device (s).
        defect_coverage: Union coverage over detectable defects.
        dpm: Williams-Brown defect level (PPM) at the plan's coverage.
    """

    __test__ = False  # keep pytest collection away from the Test* name

    conditions: tuple[str, ...]
    test_time: float
    defect_coverage: float
    dpm: float

    def __str__(self) -> str:
        names = "+".join(self.conditions) if self.conditions else "(none)"
        return (f"{names}: {self.test_time * 1e3:.1f} ms, "
                f"DC {100 * self.defect_coverage:.2f} %, "
                f"{self.dpm:.0f} DPM")


class TestPlanOptimizer:
    """Search condition subsets for time/quality optima.

    (Not a pytest class despite the name.)

    Args:
        table: Joint coverage table over the candidate suite.
        test: March test applied at every condition.
        density: Defect density (for yield -> DPM).
        setup_overhead: Per-condition setup time (supply settle, relearn;
            s) -- makes single-condition plans genuinely cheaper.
    """

    __test__ = False  # keep pytest collection away from the Test* name

    def __init__(self, table: JointCoverageTable, test: MarchTest,
                 density: DefectDensity | None = None,
                 setup_overhead: float = 1e-3) -> None:
        self.table = table
        self.test = test
        self.density = density if density is not None else DefectDensity()
        self.setup_overhead = setup_overhead
        self._yield = self.density.yield_fraction(
            table.geometry.array_area_um2())

    # ------------------------------------------------------------------
    def condition_time(self, name: str) -> float:
        """Test time of one condition: N x complexity x period + setup."""
        cond = self.table.conditions[name]
        ops = self.test.operation_count(self.table.geometry.words)
        return ops * cond.period + self.setup_overhead

    def evaluate(self, names: tuple[str, ...]) -> TestPlan:
        coverage = self.table.subset_coverage(names)
        time = sum(self.condition_time(n) for n in names)
        return TestPlan(tuple(names), time, coverage,
                        williams_brown_dpm(self._yield, coverage))

    def all_plans(self) -> list[TestPlan]:
        """Every non-empty condition subset, evaluated."""
        plans = []
        names = self.table.condition_names
        for r in range(1, len(names) + 1):
            for subset in itertools.combinations(names, r):
                plans.append(self.evaluate(subset))
        return plans

    def cheapest_meeting(self, target_dpm: float) -> TestPlan | None:
        """The fastest plan meeting a DPM target (None if unreachable)."""
        feasible = [p for p in self.all_plans() if p.dpm <= target_dpm]
        if not feasible:
            return None
        return min(feasible, key=lambda p: p.test_time)

    def pareto_front(self) -> list[TestPlan]:
        """Time-ascending plans not dominated in (time, dpm)."""
        plans = sorted(self.all_plans(), key=lambda p: (p.test_time, p.dpm))
        front: list[TestPlan] = []
        best_dpm = float("inf")
        for plan in plans:
            if plan.dpm < best_dpm - 1e-12:
                front.append(plan)
                best_dpm = plan.dpm
        return front

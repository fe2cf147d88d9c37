"""Stress-condition classification of a device lot.

Implements the paper's experimental protocol (Section 5): every part is
first screened with the 11N test at the *standard* conditions; parts
that pass are then re-tested at the stress conditions (VLV, Vmax,
at-speed).  A part failing at least one stress condition while passing
the standard screen is an **interesting device** -- a test escape of the
conventional flow -- and is labelled by the exact set of stress
conditions it fails, which feeds the Venn diagram of Figure 11.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.technology import CMOS018, Technology
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import DefectArrays
from repro.experiment.veqtor import VeqtorChip, VeqtorTestBench
from repro.march.library import TEST_11N
from repro.march.test import MarchTest
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.stress import StressCondition, production_conditions
from repro.tester.ate import VirtualTester

#: The stress conditions of the paper's Venn diagram.
STRESS_NAMES = ("VLV", "Vmax", "at-speed")
#: The standard screening conditions.
STANDARD_NAMES = ("Vmin", "Vnom")
#: Bit order of a part's *fail-bit word*: bit ``i`` set means the part
#: failed condition ``FAIL_BIT_NAMES[i]``.
FAIL_BIT_NAMES = STANDARD_NAMES + STRESS_NAMES
#: The standard-screen bits of a fail-bit word.
STANDARD_MASK = (1 << len(STANDARD_NAMES)) - 1


def decode_fail_bits(bits: int) -> tuple[bool, frozenset[str]]:
    """``(failed_standard, failed_stress)`` of one fail-bit word.

    Mirrors :meth:`StressClassifier.classify_chip`: a part failing the
    standard screen is never re-tested, so it carries no stress set.
    """
    if bits & STANDARD_MASK:
        return True, frozenset()
    return False, frozenset(name for i, name in enumerate(FAIL_BIT_NAMES)
                            if bits >> i & 1)


@dataclass
class DeviceRecord:
    """Classification of one part.

    Attributes:
        chip: The part.
        failed_standard: Failed the conventional screen (yield loss).
        failed_stress: The subset of stress conditions failed (empty for
            a fully good part).
    """

    chip: VeqtorChip
    failed_standard: bool
    failed_stress: frozenset[str] = frozenset()

    @property
    def interesting(self) -> bool:
        """Passed standard, failed >= 1 stress condition."""
        return not self.failed_standard and bool(self.failed_stress)


@dataclass
class ExperimentResult:
    """Outcome of classifying a lot.

    Attributes:
        n_devices: Lot size.
        records: One record per *defective* part (clean parts are
            counted, not stored).
        n_standard_fails: Parts failing the conventional screen.
    """

    n_devices: int
    records: list[DeviceRecord] = field(default_factory=list)
    n_standard_fails: int = 0

    @property
    def interesting_devices(self) -> list[DeviceRecord]:
        return [r for r in self.records if r.interesting]

    def stress_class_counts(self) -> dict[frozenset[str], int]:
        """Counts per exact stress-fail set (the Venn regions)."""
        out: dict[frozenset[str], int] = {}
        for rec in self.interesting_devices:
            out[rec.failed_stress] = out.get(rec.failed_stress, 0) + 1
        return out

    def escape_dpm(self, condition: str) -> float:
        """Escapes-per-million of the standard flow that adding one
        stress condition would have caught.

        An empty lot has no escapes by definition, so ``n_devices == 0``
        returns 0.0 instead of dividing by zero (regression-tested; the
        streaming engine can legitimately reduce empty sub-populations).
        """
        if self.n_devices <= 0:
            return 0.0
        caught = sum(1 for r in self.interesting_devices
                     if condition in r.failed_stress)
        return 1e6 * caught / self.n_devices


class StressClassifier:
    """Runs the screen-then-stress protocol over a lot.

    Args:
        tech: Technology corner.
        test: March test (the paper's production 11N by default).
        geometry: Per-instance organisation.
        behavior: Behaviour model override (shared with the estimator in
            the agreement benches).
    """

    def __init__(self, tech: Technology = CMOS018,
                 test: MarchTest = TEST_11N,
                 geometry: MemoryGeometry = VEQTOR4_INSTANCE,
                 behavior: DefectBehaviorModel | None = None) -> None:
        self.tech = tech
        self.test = test
        behavior = behavior if behavior is not None else DefectBehaviorModel(tech)
        self.bench = VeqtorTestBench(VirtualTester(behavior), geometry, tech)
        self.conditions = production_conditions(tech)

    def classify_chip(self, chip: VeqtorChip) -> DeviceRecord | None:
        """Classify one part; ``None`` for a clean (defect-free) chip.

        The scalar oracle of :meth:`fail_bits`: every verdict goes
        through the virtual tester, part by part.
        """
        if not chip.is_defective:
            return None
        failed_standard = any(
            self.bench.chip_fails(chip, self.test, self.conditions[n])
            for n in STANDARD_NAMES
        )
        if failed_standard:
            return DeviceRecord(chip, True)
        failed = frozenset(
            name for name in STRESS_NAMES
            if self.bench.chip_fails(chip, self.test, self.conditions[name])
        )
        return DeviceRecord(chip, False, failed)

    def fail_bits(self, defects: DefectArrays,
                  chip_starts: np.ndarray) -> np.ndarray:
        """Fail-bit words of defective parts given as flat defect arrays.

        Part ``k`` owns ``defects[chip_starts[k]:chip_starts[k + 1]]``
        (the last part runs to the end; every part owns at least one
        defect).  Each condition costs one elementwise kernel call over
        all defects; a part fails a condition when any of its defects
        does (``np.bitwise_or.reduceat``) or when the core misses
        timing there -- the verdicts of :meth:`classify_chip`, for
        every condition.
        """
        kernel = self.bench.tester.behavior.evaluate_elements
        per_defect = np.zeros(len(defects), dtype=np.uint8)
        timing = 0
        for bit, name in enumerate(FAIL_BIT_NAMES):
            condition = self.conditions[name]
            if not self.bench.meets_timing(condition):
                timing |= 1 << bit
                continue
            hits = kernel(defects.codes, defects.strengths,
                          defects.resistances, condition)
            per_defect |= hits.astype(np.uint8) << bit
        if len(chip_starts) == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.bitwise_or.reduceat(per_defect, chip_starts) | timing

    def chip_fail_bits(self, chips: Sequence[VeqtorChip]) -> np.ndarray:
        """Fail-bit words of defective ``chips`` (:meth:`fail_bits`)."""
        flat = [chip.all_defects for chip in chips]
        sizes = np.array([len(defects) for defects in flat], dtype=np.intp)
        return self.fail_bits(
            DefectArrays.from_defects([d for ds in flat for d in ds]),
            np.cumsum(sizes) - sizes)

    def classify(self, chips: list[VeqtorChip]) -> ExperimentResult:
        """Classify a lot; clean chips short-circuit for speed.

        The defective chips are flattened to
        :class:`~repro.defects.models.DefectArrays` and classified by
        :meth:`fail_bits`; :meth:`classify_chip` is the per-chip oracle
        the records are tested against.
        """
        result = ExperimentResult(n_devices=len(chips))
        defective = [chip for chip in chips if chip.is_defective]
        for chip, word in zip(defective,
                              self.chip_fail_bits(defective).tolist()):
            failed_standard, failed_stress = decode_fail_bits(word)
            if failed_standard:
                result.n_standard_fails += 1
            result.records.append(
                DeviceRecord(chip, failed_standard, failed_stress))
        return result

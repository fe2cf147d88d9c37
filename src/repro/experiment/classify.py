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

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.circuit.technology import CMOS018, Technology
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import DefectArrays
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.stress import production_conditions

if TYPE_CHECKING:
    from repro.experiment.diagnosis import LotDiagnostician
    from repro.experiment.population import DefectBlock
    from repro.experiment.veqtor import VeqtorChip, VeqtorTestBench
    from repro.march.test import MarchTest

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


#: Separator joining a stress-fail set into a payload key.  Condition
#: names never contain it ("at-speed" uses a hyphen), so the encoding
#: round-trips.
_REGION_SEP = "+"


def _region_key(region: frozenset[str]) -> str:
    """Canonical payload key for one exact stress-fail set."""
    return _REGION_SEP.join(sorted(region))


@dataclass
class ExperimentAccumulator:
    """Mergeable sufficient statistics of a classified (partial) lot.

    Everything the experiment reports -- Venn region counts,
    standard-screen fails, per-condition escape DPM, diagnosis hint
    histograms -- in O(classes) memory, never O(devices).  It is what
    :meth:`StressClassifier.classify` returns and the streaming
    engine's map-reduce value: each shard evaluator returns one as its
    payload, the runner merges them in shard order, and the merged
    accumulator is the lot-level result.  ``merge()`` is in place,
    field-wise additive, and commutative and associative up to the
    payload encoding (property-tested).

    ``as_payload()`` / ``from_payload()`` round-trip the accumulator
    through plain JSON-able dicts with sorted keys, so canonical-JSON
    equality of payloads is the engine's byte-identity oracle against
    the legacy path (``scheme="legacy"``, single shard).

    Attributes:
        devices: Devices covered (including clean ones).
        defective: Devices carrying at least one defect.
        standard_fails: Devices failing the conventional screen.
        errors: Devices lost to poisoned shards (counted, not
            classified; ``0`` outside fault-injection runs).
        class_counts: Exact stress-fail set -> interesting-device count
            (the Venn regions).
        hint_counts: Condition -> Counter of bitmap defect-class hint
            values (populated only when diagnosis is enabled).
    """

    devices: int = 0
    defective: int = 0
    standard_fails: int = 0
    errors: int = 0
    class_counts: dict[frozenset[str], int] = field(default_factory=dict)
    hint_counts: dict[str, Counter] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Map side
    # ------------------------------------------------------------------
    def observe_fail_bits(self, bits: np.ndarray) -> None:
        """Fold a block of defective devices' fail-bit words in.

        One ``bincount`` over the words, each distinct word decoded
        once (:func:`decode_fail_bits`).
        """
        counts = np.bincount(bits, minlength=1 << len(FAIL_BIT_NAMES))
        for word in np.flatnonzero(counts).tolist():
            failed_standard, failed_stress = decode_fail_bits(word)
            n = int(counts[word])
            self.defective += n
            if failed_standard:
                self.standard_fails += n
            elif failed_stress:
                self.class_counts[failed_stress] = (
                    self.class_counts.get(failed_stress, 0) + n)

    def observe_hints(self, hints: dict[str, Any]) -> None:
        """Fold one diagnosed device's per-condition hints in.

        Accepts :class:`~repro.tester.bitmap.DefectClassHint` values or
        their string values (the payload form).
        """
        for condition, hint in hints.items():
            value = getattr(hint, "value", hint)
            self.hint_counts.setdefault(condition, Counter())[value] += 1

    # ------------------------------------------------------------------
    # Reduce side
    # ------------------------------------------------------------------
    def merge(self, other: "ExperimentAccumulator") -> "ExperimentAccumulator":
        """Fold ``other`` in place and return self (additive merge)."""
        self.devices += other.devices
        self.defective += other.defective
        self.standard_fails += other.standard_fails
        self.errors += other.errors
        for region, n in other.class_counts.items():
            self.class_counts[region] = self.class_counts.get(region, 0) + n
        for condition, counts in other.hint_counts.items():
            self.hint_counts.setdefault(condition, Counter())
            self.hint_counts[condition] += counts
        return self

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def interesting(self) -> int:
        """Interesting devices (passed standard, failed >= 1 stress)."""
        return sum(self.class_counts.values())

    def escape_dpm(self, condition: str) -> float:
        """Escapes-per-million of the standard flow that adding one
        stress condition would have caught.

        Zero for an empty accumulator (nothing tested, nothing
        escaped), not a division by zero.
        """
        if self.devices <= 0:
            return 0.0
        caught = sum(n for region, n in self.class_counts.items()
                     if condition in region)
        return 1e6 * caught / self.devices

    def render_hints(self) -> list[str]:
        """The hint histograms as text lines, condition by condition
        (the ``--diagnose`` section of ``repro venn`` and ``repro
        experiment run``)."""
        lines = []
        for condition, counts in sorted(self.hint_counts.items()):
            lines.append(f"  hints at {condition}:")
            lines.extend(f"    {value:>20}: {counts[value]}"
                         for value in sorted(counts))
        return lines

    # ------------------------------------------------------------------
    # Payload round-trip
    # ------------------------------------------------------------------
    def as_payload(self) -> dict[str, Any]:
        """JSON-able dict with sorted keys (the checkpoint payload).

        Canonical-JSON equality of payloads is the engine's
        byte-identity oracle, so every container here is sorted.
        """
        return {
            "devices": self.devices,
            "defective": self.defective,
            "standard_fails": self.standard_fails,
            "errors": self.errors,
            "classes": {
                _region_key(region): self.class_counts[region]
                for region in sorted(self.class_counts, key=_region_key)
            },
            "hints": {
                condition: {
                    value: counts[value] for value in sorted(counts)
                }
                for condition, counts in sorted(self.hint_counts.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ExperimentAccumulator":
        """Rebuild an accumulator from :meth:`as_payload` output."""
        acc = cls(
            devices=int(payload["devices"]),
            defective=int(payload["defective"]),
            standard_fails=int(payload["standard_fails"]),
            errors=int(payload.get("errors", 0)),
        )
        for key, n in payload.get("classes", {}).items():
            acc.class_counts[frozenset(key.split(_REGION_SEP))] = int(n)
        for condition, counts in payload.get("hints", {}).items():
            acc.hint_counts[condition] = Counter(
                {value: int(n) for value, n in counts.items()})
        return acc


class StressClassifier:
    """Runs the screen-then-stress protocol over a lot.

    Verdicts come from the behaviour model and the fault-free timing
    rule of its :class:`~repro.memory.timing.TimingModel`
    (:meth:`fail_bits`).  The virtual ATE that :meth:`classify_chip`
    drives as their oracle is built on first use, so a lot that never
    calls the oracle never imports the tester, the SRAM or the march
    library.

    Args:
        tech: Technology corner.
        geometry: Per-instance organisation.
    """

    def __init__(self, tech: Technology = CMOS018,
                 geometry: MemoryGeometry = VEQTOR4_INSTANCE) -> None:
        self.tech = tech
        self.geometry = geometry
        self.behavior = DefectBehaviorModel(tech)
        self.conditions = production_conditions(tech)

    @cached_property
    def bench(self) -> VeqtorTestBench:
        """The virtual-ATE bench of :meth:`classify_chip`."""
        from repro.experiment.veqtor import VeqtorTestBench
        from repro.tester.ate import VirtualTester

        return VeqtorTestBench(VirtualTester(self.behavior), self.geometry,
                               self.tech)

    @cached_property
    def test(self) -> MarchTest:
        """The march test :meth:`classify_chip` applies: the paper's
        production 11N (a quick-mode verdict reads only its name)."""
        from repro.march.library import TEST_11N

        return TEST_11N

    def classify_chip(self, chip: VeqtorChip) -> int | None:
        """One part's fail-bit word; ``None`` for a clean chip.

        The scalar oracle of :meth:`fail_bits`: every verdict goes
        through the virtual tester, part by part, in the protocol's
        order.  Testing stops at the first standard-screen fail (such a
        part is never re-tested at stress), so the word can carry fewer
        bits than :meth:`fail_bits`'s but decodes
        (:func:`decode_fail_bits`) to the same classification.
        """
        if not chip.is_defective:
            return None
        bench, test = self.bench, self.test
        bits = 0
        for bit, name in enumerate(FAIL_BIT_NAMES):
            if bits & STANDARD_MASK:
                break
            if bench.chip_fails(chip, test, self.conditions[name]):
                bits |= 1 << bit
        return bits

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
        kernel = self.behavior.evaluate_elements
        model = self.behavior.timing
        per_defect = np.zeros(len(defects), dtype=np.uint8)
        timing = 0
        for bit, name in enumerate(FAIL_BIT_NAMES):
            condition = self.conditions[name]
            if not model.meets_timing(condition.vdd, self.tech.vdd_nominal,
                                      condition.period):
                timing |= 1 << bit
                continue
            hits = kernel(defects.codes, defects.strengths,
                          defects.resistances, condition)
            per_defect |= hits.astype(np.uint8) << bit
        if len(chip_starts) == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.bitwise_or.reduceat(per_defect, chip_starts) | timing

    def classify(self, lot: DefectBlock,
                 diagnostician: LotDiagnostician | None = None,
                 ) -> ExperimentAccumulator:
        """Classify a lot's parts into an :class:`ExperimentAccumulator`.

        One :meth:`fail_bits` call over the lot's flat defect arrays,
        folded by :meth:`ExperimentAccumulator.observe_fail_bits`; the
        clean parts are only counted (``lot.devices``).  With a
        ``diagnostician``, each interesting part -- and no other -- is
        materialised (:meth:`~repro.experiment.population.DefectBlock.
        chip`) and its bitmap hints folded in.  :meth:`classify_chip`
        is the per-part oracle.
        """
        bits = self.fail_bits(lot.defects, lot.chip_starts)
        acc = ExperimentAccumulator(devices=lot.devices)
        acc.observe_fail_bits(bits)
        if diagnostician is not None:
            for k, word in enumerate(bits.tolist()):
                failed_standard, failed_stress = decode_fail_bits(word)
                if not failed_standard and failed_stress:
                    acc.observe_hints(diagnostician.diagnose_device(
                        lot.chip(k), failed_stress))
        return acc

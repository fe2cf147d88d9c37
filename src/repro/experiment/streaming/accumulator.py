"""Sufficient statistics for the streaming experiment reduce step.

:class:`ExperimentAccumulator` is everything the experiment reports --
Venn region counts, standard-screen fails, per-condition escape/DPM
tallies, diagnosis hint histograms -- in O(classes) memory, never
O(devices).  It is the map-reduce value type: each shard evaluator
returns one as its payload, the runner merges them in shard order, and
the merged accumulator is the lot-level result.  The ``merge()``
contract mirrors :meth:`repro.obs.metrics.MetricsRegistry.merge`
(in-place, field-wise additive, commutative and associative up to the
payload encoding -- property-tested).

``as_payload()`` / ``from_payload()`` round-trip the accumulator
through plain JSON-able dicts with sorted keys, so canonical-JSON
equality of payloads is the engine's byte-identity oracle against the
legacy path (``scheme="legacy"``, single shard).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.experiment.classify import (
    FAIL_BIT_NAMES,
    DeviceRecord,
    ExperimentResult,
    decode_fail_bits,
)
from repro.experiment.diagnosis import LotDiagnosis
from repro.experiment.venn import VennCounts

#: Separator joining a stress-fail set into a payload key.  Condition
#: names never contain it ("at-speed" uses a hyphen), so the encoding
#: round-trips.
_REGION_SEP = "+"


def _region_key(region: frozenset[str]) -> str:
    """Canonical payload key for one exact stress-fail set."""
    return _REGION_SEP.join(sorted(region))


@dataclass
class ExperimentAccumulator:
    """Mergeable sufficient statistics of a (partial) experiment.

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
    def observe(self, record: DeviceRecord) -> None:
        """Fold one defective device's classification in."""
        self._count(record.failed_standard, record.failed_stress, 1)

    def observe_fail_bits(self, bits: np.ndarray) -> None:
        """Fold a block of defective devices' fail-bit words in.

        One ``bincount`` over the words (see
        :func:`~repro.experiment.classify.decode_fail_bits`); the
        result equals :meth:`observe` on each device's record.
        """
        counts = np.bincount(bits, minlength=1 << len(FAIL_BIT_NAMES))
        for word in np.flatnonzero(counts).tolist():
            failed_standard, failed_stress = decode_fail_bits(word)
            self._count(failed_standard, failed_stress, int(counts[word]))

    def _count(self, failed_standard: bool, failed_stress: frozenset[str],
               n: int) -> None:
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

    @property
    def venn(self) -> VennCounts:
        """The Venn regions of the accumulated interesting devices."""
        return VennCounts.from_class_counts(self.class_counts)

    def escape_dpm(self, condition: str) -> float:
        """Escapes-per-million one stress condition would have caught.

        Zero for an empty accumulator (nothing tested, nothing
        escaped).
        """
        if self.devices <= 0:
            return 0.0
        caught = sum(n for region, n in self.class_counts.items()
                     if condition in region)
        return 1e6 * caught / self.devices

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

    @classmethod
    def from_experiment(cls, result: ExperimentResult,
                        diagnosis: LotDiagnosis | None = None,
                        ) -> "ExperimentAccumulator":
        """Build from a legacy in-memory :class:`ExperimentResult`.

        The equivalence-oracle constructor: a ``scheme="legacy"``
        streaming run must produce a payload byte-identical (as
        canonical JSON) to this one built from
        ``classifier.classify(generator.generate())``.
        """
        acc = cls(devices=result.n_devices)
        for record in result.records:
            acc.observe(record)
        if diagnosis is not None:
            for condition, counts in diagnosis.hint_histogram.items():
                for hint, n in counts.items():
                    acc.hint_counts.setdefault(
                        condition, Counter())[hint.value] += n
        return acc

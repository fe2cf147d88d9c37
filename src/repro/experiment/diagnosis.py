"""Bitmap diagnosis of a lot's interesting devices.

The paper bitmapped its 36 interesting parts to reason about root
causes ("this points to the same address location/cell ... hence we
conclude that there could be a resistive bridge").  This module runs
the same chain over a simulated lot: every interesting device is
re-tested in full (cycle-accurate) mode at each stress condition it
fails, the fail log goes through the bitmap analyser, and the results
aggregate into per-condition defect-class histograms -- the lot-level
view behind statements like "it is also a single bit failure in the
matrix".

Full-mode simulation over a 256 Kbit instance is wasteful when the fail
signature is cell-local, so each defect is re-homed into a small
diagnosis array (the paper's bitmap viewer does the same thing: it
looks at the failing neighbourhood, not the whole die).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field

from repro.circuit.technology import CMOS018, Technology
from repro.defects.behavior import DefectBehaviorModel
from repro.experiment.classify import ExperimentResult
from repro.march.library import TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.stress import production_conditions
from repro.tester.ate import VirtualTester
from repro.tester.bitmap import BitmapAnalyzer, DefectClassHint


@dataclass
class DeviceDiagnosis:
    """Bitmap findings for one interesting device.

    Attributes:
        chip_id: The part.
        failed_stress: Conditions it fails.
        hints: Condition name -> structural classification.
        summaries: Condition name -> human-readable bitmap summary.
    """

    chip_id: int
    failed_stress: frozenset[str]
    hints: dict[str, DefectClassHint] = field(default_factory=dict)
    summaries: dict[str, str] = field(default_factory=dict)


@dataclass
class LotDiagnosis:
    """Aggregated diagnosis of a lot.

    Attributes:
        devices: Per-device findings.
        hint_histogram: Condition -> Counter of defect-class hints.
    """

    devices: list[DeviceDiagnosis] = field(default_factory=list)
    hint_histogram: dict[str, Counter] = field(default_factory=dict)

    def merge(self, other: "LotDiagnosis") -> "LotDiagnosis":
        """Fold ``other`` into this diagnosis in place and return self.

        Device lists concatenate and per-condition hint histograms add
        counter-wise, so shard-local diagnoses combine into the
        lot-level view.  The resulting histogram is order-independent
        (Counter addition is commutative and associative;
        property-tested); the device list keeps merge order, so reduce
        in shard order for deterministic rendering.
        """
        self.devices.extend(other.devices)
        for condition, counts in other.hint_histogram.items():
            self.hint_histogram.setdefault(condition, Counter())
            self.hint_histogram[condition] += counts
        return self

    def render(self) -> str:
        lines = [f"diagnosed devices: {len(self.devices)}"]
        for condition, counts in sorted(self.hint_histogram.items()):
            lines.append(f"  fails at {condition}:")
            for hint, n in counts.most_common():
                lines.append(f"    {hint.value:>20}: {n}")
        return "\n".join(lines)


#: The small array a diagnosed device's defects are re-homed into.
DIAGNOSIS_GEOMETRY = MemoryGeometry(8, 2, 4)


class LotDiagnostician:
    """Runs bitmap diagnosis over a classified lot.

    Every device is re-tested with the production 11N, its defects
    re-homed into the small :data:`DIAGNOSIS_GEOMETRY` array for
    cycle-accurate simulation.

    Args:
        tech: Technology corner.
    """

    def __init__(self, tech: Technology = CMOS018) -> None:
        self.tech = tech
        self.test = TEST_11N
        self.geometry = DIAGNOSIS_GEOMETRY
        self.tester = VirtualTester(DefectBehaviorModel(tech))
        self.analyzer = BitmapAnalyzer(self.geometry, self.test)
        self.conditions = production_conditions(tech)
        self._sram = Sram(self.geometry, tech, name="diagnosis-array")

    # ------------------------------------------------------------------
    def _rehome(self, defects):
        """Map each defect's victim cell into the diagnosis array."""
        out = []
        for d in defects:
            out.append(dataclasses.replace(
                d, cell=d.cell % self.geometry.bits))
        return out

    def diagnose_device(self, record) -> DeviceDiagnosis:
        """Full-mode re-test + bitmap for one interesting device."""
        diagnosis = DeviceDiagnosis(record.chip.chip_id,
                                    record.failed_stress)
        defects = self._rehome(record.chip.all_defects)
        for name in sorted(record.failed_stress):
            result = self.tester.test_device(
                self._sram, defects, self.test, self.conditions[name],
                quick=False)
            bitmap = self.analyzer.diagnose(result.fails)
            diagnosis.hints[name] = bitmap.hint
            diagnosis.summaries[name] = bitmap.summary
        return diagnosis

    def diagnose(self, experiment: ExperimentResult) -> LotDiagnosis:
        """Diagnose every interesting device of a classified lot."""
        lot = LotDiagnosis()
        for record in experiment.interesting_devices:
            device = self.diagnose_device(record)
            lot.devices.append(device)
            for condition, hint in device.hints.items():
                lot.hint_histogram.setdefault(
                    condition, Counter())[hint] += 1
        return lot

"""Bitmap diagnosis of a lot's interesting devices.

The paper bitmapped its 36 interesting parts to reason about root
causes ("this points to the same address location/cell ... hence we
conclude that there could be a resistive bridge").  This module runs
the same chain over a simulated lot: every interesting device is
re-tested in full (cycle-accurate) mode at each stress condition it
fails, the fail log goes through the bitmap analyser, and
:meth:`~repro.experiment.classify.StressClassifier.classify` folds the
results into the accumulator's per-condition defect-class histograms
-- the lot-level
view behind statements like "it is also a single bit failure in the
matrix".

Full-mode simulation over a 256 Kbit instance is wasteful when the fail
signature is cell-local, so each defect is re-homed into a small
diagnosis array (the paper's bitmap viewer does the same thing: it
looks at the failing neighbourhood, not the whole die).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.circuit.technology import CMOS018, Technology
from repro.defects.behavior import DefectBehaviorModel
from repro.march.library import TEST_11N
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import Sram
from repro.stress import production_conditions
from repro.tester.ate import VirtualTester
from repro.tester.bitmap import BitmapAnalyzer, DefectClassHint

if TYPE_CHECKING:
    from repro.experiment.veqtor import VeqtorChip


#: The small array a diagnosed device's defects are re-homed into.
DIAGNOSIS_GEOMETRY = MemoryGeometry(8, 2, 4)


class LotDiagnostician:
    """Bitmap diagnosis of a lot's interesting parts, one at a time.

    Every part is re-tested with the production 11N, its defects
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

    def diagnose_device(self, chip: VeqtorChip,
                        failed_stress: frozenset[str],
                        ) -> dict[str, DefectClassHint]:
        """Full-mode re-test + bitmap of one interesting part at each
        stress condition it fails: condition name -> defect-class
        hint."""
        defects = self._rehome(chip.all_defects)
        hints = {}
        for name in sorted(failed_stress):
            result = self.tester.test_device(
                self._sram, defects, self.test, self.conditions[name],
                quick=False)
            hints[name] = self.analyzer.diagnose(result.fails).hint
        return hints

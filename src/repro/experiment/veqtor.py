"""The Veqtor4 test-chip model.

"The test chip (Veqtor4; built on CMOS 0.18um technology) contains four
instances of SRAMs of 256 K bits each.  Each of the memory cores can be
accessed directly from the primary inputs/outputs through a controller.
Memory BIST was not implemented..." (paper, Section 2)

:class:`VeqtorChip` models one such part: four
:class:`~repro.memory.sram.Sram` instances sharing a technology corner,
each carrying its own defect list; the chip-level verdict at a condition
is the AND of the instance verdicts (the paper tests all four cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.circuit.technology import CMOS018, Technology
from repro.defects.models import Defect
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry
from repro.stress import StressCondition

if TYPE_CHECKING:
    from repro.march.test import MarchTest
    from repro.tester.ate import VirtualTester


@dataclass
class VeqtorChip:
    """One Veqtor4 part.

    Attributes:
        chip_id: Serial number within the experiment.
        defects: Per-instance defect lists (length = ``n_instances``).
    """

    chip_id: int
    defects: list[list[Defect]] = field(
        default_factory=lambda: [[], [], [], []])

    N_INSTANCES = 4

    def __post_init__(self) -> None:
        if len(self.defects) != self.N_INSTANCES:
            raise ValueError(
                f"Veqtor4 carries {self.N_INSTANCES} instances, got "
                f"{len(self.defects)} defect lists"
            )

    @property
    def all_defects(self) -> list[Defect]:
        return [d for inst in self.defects for d in inst]

    @property
    def is_defective(self) -> bool:
        return any(self.defects)

    def add_defect(self, instance: int, defect: Defect) -> None:
        if not 0 <= instance < self.N_INSTANCES:
            raise ValueError(f"instance out of range: {instance}")
        self.defects[instance].append(defect)


class VeqtorTestBench:
    """Tests Veqtor4 chips through the virtual ATE.

    Args:
        tester: The virtual ATE (carries the behaviour model).
        geometry: Per-instance organisation (defaults to 256 Kbit).
        tech: Technology corner.
    """

    def __init__(self, tester: VirtualTester,
                 geometry: MemoryGeometry = VEQTOR4_INSTANCE,
                 tech: Technology = CMOS018) -> None:
        from repro.memory.sram import Sram

        self.tester = tester
        self.geometry = geometry
        self.tech = tech
        # One SRAM model serves all instances (state is reset per run);
        # its timing is the tester's behaviour model's, so the bench and
        # the array kernel gate every condition with one timing model.
        self._sram = Sram(geometry, tech, name="veqtor4-core",
                          timing=tester.behavior.timing)

    def chip_fails(self, chip: VeqtorChip, test: MarchTest,
                   condition: StressCondition) -> bool:
        """Chip-level verdict: any instance failing fails the part.

        Defect-free instances are skipped once timing is known good:
        with no defects the tester's verdict is exactly the timing
        check, which is instance-independent -- so the short-circuit
        cannot change the verdict, and the streaming engine (where
        most defective chips carry a single defect in one of four
        instances) saves three no-op tester calls per chip.
        """
        if not self.meets_timing(condition):
            return True
        for instance_defects in chip.defects:
            if not instance_defects:
                continue
            result = self.tester.test_device(
                self._sram, instance_defects, test, condition, quick=True)
            if not result.passed:
                return True
        return False

    def meets_timing(self, condition: StressCondition) -> bool:
        """Fault-free timing verdict of the core at ``condition``.

        A part that misses timing fails the condition whatever its
        defects; the array classification ORs this in per condition.
        """
        return self._sram.meets_timing(condition.vdd, condition.period)

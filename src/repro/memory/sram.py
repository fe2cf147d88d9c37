"""Top-level SRAM model: functional behaviour plus electrical timing.

:class:`Sram` binds the geometry, the 6T cell and a technology corner
into one device-under-test.  Two faces:

* **functional**: word-oriented read/write with an attachable list of
  cell-level :class:`~repro.faults.models.FunctionalFault` behaviours --
  the march sequencer and virtual tester drive this face cycle by cycle;
* **electrical**: first-order access/cycle time as a function of supply
  voltage, which draws the fault-free shmoo boundary of the paper's
  Figure 3 (the reason VLV testing must run at reduced frequency,
  Section 4.1).

The access-time model itself is :class:`~repro.memory.timing.TimingModel`;
:class:`Sram` binds it to the technology's nominal supply.
"""

from __future__ import annotations

from repro.circuit.technology import Technology
from repro.faults.models import FunctionalFault, MemoryState
from repro.memory.cell import CellRatios, SixTCell
from repro.memory.geometry import MemoryGeometry
from repro.memory.timing import TimingModel


class Sram:
    """An SRAM instance (one block of the Veqtor4-style test chip).

    Args:
        geometry: Memory organisation.
        tech: Technology corner.
        timing: Calibrated critical-path model.
        name: Instance name (for reports).
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        tech: Technology,
        timing: TimingModel | None = None,
        name: str = "sram",
    ) -> None:
        self.geometry = geometry
        self.tech = tech
        self.name = name
        self.ratios = CellRatios()
        self.timing = timing if timing is not None else TimingModel()
        self.cell = SixTCell(tech, self.ratios)
        # Functional state and attached behavioural faults.
        self.state = MemoryState(geometry.bits)
        self.faults: list[FunctionalFault] = []
        self._cycle = 0

    # ------------------------------------------------------------------
    # Electrical timing
    # ------------------------------------------------------------------
    def meets_timing(self, vdd: float, period: float) -> bool:
        """Fault-free pass/fail at one (Vdd, period) shmoo point."""
        return self.timing.meets_timing(vdd, self.tech.vdd_nominal, period)

    # ------------------------------------------------------------------
    # Functional face
    # ------------------------------------------------------------------
    def attach_fault(self, fault: FunctionalFault) -> None:
        """Attach a behavioural fault (cell-level, flat index space)."""
        self.faults.append(fault)

    def clear_faults(self) -> None:
        self.faults.clear()

    def power_cycle(self) -> None:
        """Reset functional state and fault internals (new test run)."""
        self.state.reset()
        for fault in self.faults:
            fault.reset()
        self._cycle = 0

    def write_word(self, address: int, value: int) -> None:
        """Write a word through all attached fault behaviours."""
        width = self.geometry.bits_per_word
        if not 0 <= value < (1 << width):
            raise ValueError(f"word value {value} out of range")
        for bit in range(width):
            cell = self.geometry.cell_index(address, bit)
            self._apply_write(cell, (value >> bit) & 1)
        self._cycle += 1

    def read_word(self, address: int) -> int:
        """Read a word through all attached fault behaviours."""
        value = 0
        for bit in range(self.geometry.bits_per_word):
            cell = self.geometry.cell_index(address, bit)
            if self._apply_read(cell) == 1:
                value |= 1 << bit
        self._cycle += 1
        return value

    def _apply_write(self, cell: int, bit: int) -> None:
        if self.faults:
            for fault in self.faults:
                fault.write(self.state, cell, bit, self._cycle)
        else:
            self.state.set(cell, bit)
            self.state.touch(cell, self._cycle)

    def _apply_read(self, cell: int) -> int:
        if not self.faults:
            self.state.touch(cell, self._cycle)
            return self.state.get(cell)
        # Faults compose: every fault observes the access (side effects
        # run), and a faulty view wins over a clean one so that a
        # non-mutating fault (e.g. a stuck-open's stale sense data) is
        # not masked by a later fault reading the stored state.
        value = 0
        wrong: int | None = None
        for fault in self.faults:
            value = fault.read(self.state, cell, self._cycle)
            if wrong is None and value != self.state.get(cell):
                wrong = value
        return wrong if wrong is not None else value

    def __repr__(self) -> str:
        return (
            f"Sram({self.name!r}, {self.geometry}, tech={self.tech.name}, "
            f"faults={len(self.faults)})"
        )

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

The access-time model is ``t_acc(V) = t_logic(V) + t_wire`` with
``t_logic ∝ V / (V - VT_path)^alpha`` (alpha-power delay scaling of the
critical path) -- calibrated so the nominal access time matches the
paper's memory (5..10 ns at 1.8 V) and the fault-free SRAM still passes
a 100 ns cycle at the 1.0 V VLV condition, as in Figure 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuit.technology import Technology
from repro.faults.models import FunctionalFault, MemoryState
from repro.memory.cell import CellRatios, SixTCell
from repro.memory.geometry import MemoryGeometry


@dataclass(frozen=True)
class TimingModel:
    """Calibrated access-time model of the critical path.

    Attributes:
        t_logic_nominal: Logic/cell part of the access time at the
            technology's nominal supply (s).
        t_wire: Supply-independent wire-RC part (s).
        vt_path: Effective threshold of the critical path (V) -- higher
            than a single device VT because of stacking/body effect;
            controls how steeply delay grows at low Vdd.
        alpha: Alpha-power exponent of the path.
    """

    t_logic_nominal: float = 6e-9
    t_wire: float = 2e-9
    vt_path: float = 0.6
    alpha: float = 1.3

    def logic_scale(self, vdd: float, vdd_nominal: float) -> float:
        """Delay multiplier relative to nominal supply."""
        if vdd <= self.vt_path:
            return math.inf

        def shape(v: float) -> float:
            return v / (v - self.vt_path) ** self.alpha

        return shape(vdd) / shape(vdd_nominal)

    def access_time(self, vdd: float, vdd_nominal: float) -> float:
        scale = self.logic_scale(vdd, vdd_nominal)
        if math.isinf(scale):
            return math.inf
        return self.t_logic_nominal * scale + self.t_wire


class Sram:
    """An SRAM instance (one block of the Veqtor4-style test chip).

    Args:
        geometry: Memory organisation.
        tech: Technology corner.
        ratios: 6T cell sizing.
        timing: Calibrated critical-path model.
        name: Instance name (for reports).
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        tech: Technology,
        ratios: CellRatios | None = None,
        timing: TimingModel | None = None,
        name: str = "sram",
    ) -> None:
        self.geometry = geometry
        self.tech = tech
        self.name = name
        self.ratios = ratios if ratios is not None else CellRatios()
        self.timing = timing if timing is not None else TimingModel()
        self.cell = SixTCell(tech, self.ratios)
        # Functional state and attached behavioural faults.
        self.state = MemoryState(geometry.bits)
        self.faults: list[FunctionalFault] = []
        self._cycle = 0

    # ------------------------------------------------------------------
    # Electrical timing
    # ------------------------------------------------------------------
    def access_time(self, vdd: float) -> float:
        """Read access time at a supply voltage (s)."""
        return self.timing.access_time(vdd, self.tech.vdd_nominal)

    def min_period(self, vdd: float, margin: float = 1.05) -> float:
        """Shortest passing clock period at ``vdd`` (fault-free)."""
        return margin * self.access_time(vdd)

    def meets_timing(self, vdd: float, period: float) -> bool:
        """Fault-free pass/fail at one (Vdd, period) shmoo point."""
        return period >= self.min_period(vdd)

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

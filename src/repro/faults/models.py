"""Classical functional fault models.

The paper's starting point (Section 1) is that classical functional fault
models -- stuck-at, transition and coupling faults -- are *insufficient*
for the resistive (soft) defects of deep sub-micron memories.  To make
that comparison, the library implements the classical models faithfully;
:mod:`repro.defects.behavior` then adds the resistive-defect behaviours
that only manifest under stress conditions.

Every model is a :class:`FunctionalFault` with behavioural hooks called
by the simulator on each memory operation.  Models carry their fault-
primitive description (``<S/F/R>`` notation, see
:mod:`repro.faults.primitives`) for reporting.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np


class MemoryState:
    """Bit-array state of a memory under functional fault simulation.

    Cells hold 0/1; value -1 marks "unknown" (power-up, or a cell whose
    content a fault destroyed in an unmodelled way).
    """

    UNKNOWN = -1

    def __init__(self, n_cells: int) -> None:
        if n_cells <= 0:
            raise ValueError("n_cells must be positive")
        self.n_cells = n_cells
        self.bits = np.full(n_cells, self.UNKNOWN, dtype=np.int8)
        self.last_access_cycle = np.zeros(n_cells, dtype=np.int64)

    def __len__(self) -> int:
        return self.n_cells

    def get(self, address: int) -> int:
        return int(self.bits[address])

    def set(self, address: int, value: int) -> None:
        self.bits[address] = value

    def touch(self, address: int, cycle: int) -> None:
        self.last_access_cycle[address] = cycle

    def reset(self) -> None:
        self.bits.fill(self.UNKNOWN)
        self.last_access_cycle.fill(0)


class FunctionalFault(abc.ABC):
    """Base class: fault-free behaviour, to be overridden per model.

    Subclasses override :meth:`write` and/or :meth:`read`.  The simulator
    guarantees ``reset`` is called before each test run.
    """

    #: Human-readable fault class mnemonic (SAF, TF, CFin, ...).
    mnemonic: str = "NONE"

    def reset(self) -> None:
        """Clear any per-run internal state."""

    def write(self, mem: MemoryState, address: int, value: int,
              cycle: int) -> None:
        mem.set(address, value)
        mem.touch(address, cycle)

    def read(self, mem: MemoryState, address: int, cycle: int) -> int:
        mem.touch(address, cycle)
        return mem.get(address)


class FaultFree(FunctionalFault):
    """The golden model (used for reference runs)."""

    mnemonic = "GOOD"


@dataclass
class StuckAtFault(FunctionalFault):
    """SAF: the cell permanently holds ``value``.  FP: <0/1/-> or <1/0/->."""

    cell: int
    value: int
    mnemonic: str = field(default="SAF", init=False)

    def write(self, mem, address, value, cycle):
        super().write(mem, address, value, cycle)
        if address == self.cell:
            mem.set(address, self.value)

    def read(self, mem, address, cycle):
        if address == self.cell:
            mem.touch(address, cycle)
            mem.set(address, self.value)
            return self.value
        return super().read(mem, address, cycle)


@dataclass
class TransitionFault(FunctionalFault):
    """TF: the cell cannot make one of its transitions.

    ``rising=True`` blocks 0->1 (<0w1/0/->); ``rising=False`` blocks 1->0
    (<1w0/1/->).
    """

    cell: int
    rising: bool
    mnemonic: str = field(default="TF", init=False)

    def write(self, mem, address, value, cycle):
        if address == self.cell:
            old = mem.get(address)
            blocked = (
                (self.rising and old == 0 and value == 1)
                or (not self.rising and old == 1 and value == 0)
            )
            if blocked:
                mem.touch(address, cycle)
                return
        super().write(mem, address, value, cycle)


@dataclass
class StuckOpenFault(FunctionalFault):
    """SOF: the cell is disconnected (e.g. broken access path).

    Writes are lost; reads return the value left on the *cell's own*
    sense amplifier by the previous read on the same bit line (the
    classical "previous read" behaviour).  ``column_stride`` defines the
    bit-line sharing: cells whose flat indices are congruent modulo the
    stride share a sense amplifier (1 = single-column bit-level model;
    word-level models pass the array's bit-line count so sibling bits of
    a word do not refresh the victim's amplifier).  FP has no static
    <S/F/R>; SOF needs r-r sequences.
    """

    cell: int
    column_stride: int = 1
    mnemonic: str = field(default="SOF", init=False)
    _last_sensed: int = field(default=0, init=False)

    def __post_init__(self):
        if self.column_stride < 1:
            raise ValueError("column_stride must be positive")

    def _same_bitline(self, address: int) -> bool:
        return address % self.column_stride == self.cell % self.column_stride

    def reset(self):
        self._last_sensed = 0

    def write(self, mem, address, value, cycle):
        if address == self.cell:
            mem.touch(address, cycle)
            return
        super().write(mem, address, value, cycle)

    def read(self, mem, address, cycle):
        if address == self.cell:
            mem.touch(address, cycle)
            return self._last_sensed
        value = super().read(mem, address, cycle)
        if self._same_bitline(address) and value in (0, 1):
            self._last_sensed = value
        return value


@dataclass
class ReadDestructiveFault(FunctionalFault):
    """RDF: a read flips the cell and returns the flipped value.

    FPs: <0r0/1/1>, <1r1/0/0>.  One of the "soft defect" behaviours the
    paper associates with resistive bridges in the cell.
    """

    cell: int
    mnemonic: str = field(default="RDF", init=False)

    def read(self, mem, address, cycle):
        if address == self.cell:
            mem.touch(address, cycle)
            flipped = 1 - mem.get(address)
            mem.set(address, flipped)
            return flipped
        return super().read(mem, address, cycle)


@dataclass
class DeceptiveReadDestructiveFault(FunctionalFault):
    """DRDF: a read returns the correct value but flips the cell.

    FPs: <0r0/1/0>, <1r1/0/1>.  Needs a second read to detect -- which is
    why tests like March SS repeat reads.
    """

    cell: int
    mnemonic: str = field(default="DRDF", init=False)

    def read(self, mem, address, cycle):
        if address == self.cell:
            mem.touch(address, cycle)
            correct = mem.get(address)
            if correct in (0, 1):
                mem.set(address, 1 - correct)
            return correct
        return super().read(mem, address, cycle)


@dataclass
class IncorrectReadFault(FunctionalFault):
    """IRF: a read returns the complement; the cell keeps its value.

    FPs: <0r0/0/1>, <1r1/1/0>.
    """

    cell: int
    mnemonic: str = field(default="IRF", init=False)

    def read(self, mem, address, cycle):
        value = super().read(mem, address, cycle)
        if address == self.cell and value in (0, 1):
            return 1 - value
        return value


@dataclass
class WriteDisturbFault(FunctionalFault):
    """WDF: a non-transition write flips the cell.

    FPs: <0w0/1/->, <1w1/0/->.
    """

    cell: int
    mnemonic: str = field(default="WDF", init=False)

    def write(self, mem, address, value, cycle):
        if address == self.cell and mem.get(address) == value:
            mem.set(address, 1 - value)
            mem.touch(address, cycle)
            return
        super().write(mem, address, value, cycle)


@dataclass
class InversionCouplingFault(FunctionalFault):
    """CFin: a write transition on the aggressor inverts the victim.

    ``rising=True`` couples on aggressor 0->1.  FP: <0w1; x/~x/-> style.
    """

    aggressor: int
    victim: int
    rising: bool
    mnemonic: str = field(default="CFin", init=False)

    def __post_init__(self):
        if self.aggressor == self.victim:
            raise ValueError("aggressor and victim must differ")

    def write(self, mem, address, value, cycle):
        if address == self.aggressor:
            old = mem.get(address)
            transition = (
                (self.rising and old == 0 and value == 1)
                or (not self.rising and old == 1 and value == 0)
            )
            super().write(mem, address, value, cycle)
            if transition:
                v = mem.get(self.victim)
                if v in (0, 1):
                    mem.set(self.victim, 1 - v)
            return
        super().write(mem, address, value, cycle)


@dataclass
class IdempotentCouplingFault(FunctionalFault):
    """CFid: a write transition on the aggressor forces the victim to a
    fixed value.  FP: e.g. <0w1; -/forced/->."""

    aggressor: int
    victim: int
    rising: bool
    forced_value: int
    mnemonic: str = field(default="CFid", init=False)

    def __post_init__(self):
        if self.aggressor == self.victim:
            raise ValueError("aggressor and victim must differ")
        if self.forced_value not in (0, 1):
            raise ValueError("forced_value must be 0 or 1")

    def write(self, mem, address, value, cycle):
        if address == self.aggressor:
            old = mem.get(address)
            transition = (
                (self.rising and old == 0 and value == 1)
                or (not self.rising and old == 1 and value == 0)
            )
            super().write(mem, address, value, cycle)
            if transition:
                mem.set(self.victim, self.forced_value)
            return
        super().write(mem, address, value, cycle)


@dataclass
class StateCouplingFault(FunctionalFault):
    """CFst: while the aggressor holds ``aggressor_state`` the victim is
    forced to ``forced_value``.  FP: <state; ~forced/forced/->."""

    aggressor: int
    victim: int
    aggressor_state: int
    forced_value: int
    mnemonic: str = field(default="CFst", init=False)

    def __post_init__(self):
        if self.aggressor == self.victim:
            raise ValueError("aggressor and victim must differ")

    def _apply_state(self, mem: MemoryState) -> None:
        if mem.get(self.aggressor) == self.aggressor_state:
            mem.set(self.victim, self.forced_value)

    def write(self, mem, address, value, cycle):
        super().write(mem, address, value, cycle)
        self._apply_state(mem)

    def read(self, mem, address, cycle):
        self._apply_state(mem)
        return super().read(mem, address, cycle)


@dataclass
class DisturbCouplingFault(FunctionalFault):
    """CFdst: any read or write applied to the aggressor flips/forces the
    victim.  Models wordline/bitline disturb coupling."""

    aggressor: int
    victim: int
    forced_value: int
    on_read: bool = True
    on_write: bool = True
    mnemonic: str = field(default="CFdst", init=False)

    def __post_init__(self):
        if self.aggressor == self.victim:
            raise ValueError("aggressor and victim must differ")

    def write(self, mem, address, value, cycle):
        super().write(mem, address, value, cycle)
        if self.on_write and address == self.aggressor:
            mem.set(self.victim, self.forced_value)

    def read(self, mem, address, cycle):
        value = super().read(mem, address, cycle)
        if self.on_read and address == self.aggressor:
            mem.set(self.victim, self.forced_value)
        return value


@dataclass
class DataRetentionFault(FunctionalFault):
    """DRF: the cell leaks to ``decay_value`` when untouched for
    ``retention_cycles`` clock cycles.

    Classical DRF detection needs pause elements; march tests without
    delays miss it (relevant to the paper's "soft defect" discussion).
    """

    cell: int
    decay_value: int
    retention_cycles: int
    mnemonic: str = field(default="DRF", init=False)

    def __post_init__(self):
        if self.retention_cycles <= 0:
            raise ValueError("retention_cycles must be positive")

    def _decay(self, mem: MemoryState, cycle: int) -> None:
        idle = cycle - int(mem.last_access_cycle[self.cell])
        if idle >= self.retention_cycles and mem.get(self.cell) != -1:
            mem.set(self.cell, self.decay_value)

    def write(self, mem, address, value, cycle):
        if address != self.cell:
            self._decay(mem, cycle)
        super().write(mem, address, value, cycle)

    def read(self, mem, address, cycle):
        if address == self.cell:
            self._decay(mem, cycle)
        return super().read(mem, address, cycle)


# ----------------------------------------------------------------------
# Address decoder faults (AFs)
# ----------------------------------------------------------------------
@dataclass
class NoAccessFault(FunctionalFault):
    """AF type 1: the address reaches no cell.

    Writes are lost; reads return a floating-bitline value (modelled as a
    constant, typically the precharge polarity).
    """

    address: int
    float_value: int = 1
    mnemonic: str = field(default="AFna", init=False)

    def write(self, mem, address, value, cycle):
        if address == self.address:
            return
        super().write(mem, address, value, cycle)

    def read(self, mem, address, cycle):
        if address == self.address:
            return self.float_value
        return super().read(mem, address, cycle)


@dataclass
class WrongAccessFault(FunctionalFault):
    """AF type 2/3: ``address`` accesses ``actual_cell`` instead of its
    own cell (and the own cell is never accessed)."""

    address: int
    actual_cell: int
    mnemonic: str = field(default="AFwa", init=False)

    def __post_init__(self):
        if self.address == self.actual_cell:
            raise ValueError("wrong-access fault must redirect to a different cell")

    def _map(self, address: int) -> int:
        return self.actual_cell if address == self.address else address

    def write(self, mem, address, value, cycle):
        super().write(mem, self._map(address), value, cycle)

    def read(self, mem, address, cycle):
        return super().read(mem, self._map(address), cycle)


@dataclass
class MultipleAccessFault(FunctionalFault):
    """AF type 4: ``address`` additionally accesses ``extra_cells``.

    Writes go to all cells; a read wire-ANDs the values (typical of
    NMOS-pulldown bitlines where any accessed 0-cell discharges the line).
    """

    address: int
    extra_cells: tuple[int, ...]
    mnemonic: str = field(default="AFma", init=False)

    def __post_init__(self):
        if not self.extra_cells:
            raise ValueError("multiple-access fault needs at least one extra cell")
        if self.address in self.extra_cells:
            raise ValueError("extra cells must differ from the faulty address")

    def write(self, mem, address, value, cycle):
        super().write(mem, address, value, cycle)
        if address == self.address:
            for cell in self.extra_cells:
                mem.set(cell, value)
                mem.touch(cell, cycle)

    def read(self, mem, address, cycle):
        value = super().read(mem, address, cycle)
        if address == self.address:
            for cell in self.extra_cells:
                value &= super().read(mem, cell, cycle)
        return value

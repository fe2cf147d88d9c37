"""Dynamic faults and the generic fault-primitive engine.

Dynamic faults need *more than one* operation to be sensitised -- the
fault class the paper (and its reference [Borri 03]) ties to resistive
defects in deep sub-micron SRAMs.  Classic example: ``<0w1r1/0/1>`` -- a
write-1 immediately followed by a read flips the cell back, but only when
the two operations are back-to-back (at speed).

:class:`PrimitiveFault` interprets any single- or two-cell
:class:`~repro.faults.primitives.FaultPrimitive` directly, by matching
the operation history of the victim (and the state/operations of the
aggressor) against the sensitising sequence.  All static primitives work
too, so this engine doubles as a cross-check of the hand-written
classical models in :mod:`repro.faults.models` (the test suite exploits
that).

:class:`AtSpeedDynamicFault` adds the timing dimension: the primitive
only triggers when consecutive sensitising operations happen within a
maximum number of *clock cycles* of each other, modelling the
slack-dependence of resistive-open delay faults (paper Section 4.3 -- a
defect detected at 100 MHz escapes at 50 MHz).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.models import FunctionalFault, MemoryState
from repro.faults.primitives import FaultPrimitive
from repro.march.ops import Op, OpKind


@dataclass(frozen=True)
class _HistoryEntry:
    """One operation applied to a watched cell."""

    cycle: int
    op: Op
    state_before: int


@dataclass
class PrimitiveFault(FunctionalFault):
    """Interpret a fault primitive behaviourally.

    Supported shapes (covering all standard static and dynamic single-
    and two-cell FPs):

    * victim-only: ``<S_v/F/R>`` with S_v = optional initial state plus
      zero or more operations on the victim;
    * state-coupled: ``<s_a; S_v/F/R>`` -- aggressor must *hold* state
      ``s_a`` while the victim sequence completes;
    * operation-coupled: ``<s_a op_a; s_v/F/->`` -- an operation on the
      aggressor (with optional pre-state) hits a victim holding ``s_v``.

    Args:
        primitive: The ``<S/F/R>`` description.
        cell: Victim cell address.
        aggressor_cell: Aggressor address for two-cell primitives.
    """

    primitive: FaultPrimitive
    cell: int
    aggressor_cell: int | None = None
    mnemonic: str = field(default="FP", init=False)
    _history: list[_HistoryEntry] = field(default_factory=list, init=False)

    def __post_init__(self):
        if self.primitive.is_coupling and self.aggressor_cell is None:
            raise ValueError("coupling primitive needs an aggressor_cell")
        if self.aggressor_cell == self.cell:
            raise ValueError("aggressor and victim must differ")

    def reset(self):
        self._history.clear()

    # ------------------------------------------------------------------
    # Matching helpers
    # ------------------------------------------------------------------
    def _aggressor_state_ok(self, mem: MemoryState) -> bool:
        """State-only aggressor condition (operation-less S_a)."""
        agg = self.primitive.aggressor
        if agg is None or agg.operations:
            return True
        if agg.initial_state is None:
            return True
        return mem.get(self.aggressor_cell) == agg.initial_state

    def _victim_sequence_fires(self) -> bool:
        """Does the victim history end with a full sensitising window?"""
        seq = self.primitive.victim.operations
        if not seq or len(self._history) < len(seq):
            return False
        tail = self._history[-len(seq):]
        if any(h.op != want for h, want in zip(tail, seq)):
            return False
        want_state = self.primitive.victim.initial_state
        if want_state is not None and tail[0].state_before != want_state:
            return False
        return self._timing_ok(tail)

    def _timing_ok(self, tail: list[_HistoryEntry]) -> bool:
        """Hook for timing-constrained subclasses; unlimited by default."""
        return True

    def _record(self, op: Op, cycle: int, state_before: int) -> None:
        self._history.append(_HistoryEntry(cycle, op, state_before))
        if len(self._history) > 8:
            del self._history[0]

    # ------------------------------------------------------------------
    # Memory-operation hooks
    # ------------------------------------------------------------------
    def write(self, mem, address, value, cycle):
        if address == self.cell:
            state_before = mem.get(address)
            super().write(mem, address, value, cycle)
            self._record(Op(OpKind.WRITE, value), cycle, state_before)
            if self._victim_sequence_fires() and self._aggressor_state_ok(mem):
                mem.set(self.cell, self.primitive.faulty_value)
            return
        if address == self.aggressor_cell:
            state_before = mem.get(address)
            super().write(mem, address, value, cycle)
            self._aggressor_op_fires(mem, Op(OpKind.WRITE, value), state_before)
            return
        super().write(mem, address, value, cycle)

    def read(self, mem, address, cycle):
        if address == self.cell:
            state_before = mem.get(address)
            true_value = super().read(mem, address, cycle)
            observed = true_value if true_value in (0, 1) else 0
            self._record(Op(OpKind.READ, observed), cycle, state_before)
            if self._victim_sequence_fires() and self._aggressor_state_ok(mem):
                mem.set(self.cell, self.primitive.faulty_value)
                if self.primitive.read_output is not None:
                    return self.primitive.read_output
            return true_value
        if address == self.aggressor_cell:
            state_before = mem.get(address)
            value = super().read(mem, address, cycle)
            observed = value if value in (0, 1) else 0
            self._aggressor_op_fires(mem, Op(OpKind.READ, observed), state_before)
            return value
        return super().read(mem, address, cycle)

    def _aggressor_op_fires(self, mem: MemoryState, op: Op,
                            state_before: int) -> None:
        """Operation-coupled primitives: aggressor op hits the victim."""
        agg = self.primitive.aggressor
        if agg is None or not agg.operations:
            return
        # Standard two-cell FPs use a single aggressor operation.
        trigger = agg.operations[-1]
        if op != trigger:
            return
        if agg.initial_state is not None and state_before != agg.initial_state:
            return
        victim_state = self.primitive.victim.initial_state
        if victim_state is not None and mem.get(self.cell) != victim_state:
            return
        if self.primitive.victim.operations:
            # Mixed op-op two-cell dynamics are outside the standard FP
            # space; require the victim window too.
            if not self._victim_sequence_fires():
                return
        mem.set(self.cell, self.primitive.faulty_value)


@dataclass
class AtSpeedDynamicFault(PrimitiveFault):
    """A dynamic primitive that only fires back-to-back within a cycle
    window -- the functional image of a resistive-open delay fault.

    Args:
        max_gap_cycles: Maximum distance (in clock cycles) between
            consecutive sensitising operations for the fault to trigger.
            A window of 1 means strictly back-to-back at-speed operation.
    """

    max_gap_cycles: int = 1
    mnemonic: str = field(default="dynFP", init=False)

    def __post_init__(self):
        super().__post_init__()
        if self.max_gap_cycles < 1:
            raise ValueError("max_gap_cycles must be >= 1")

    def _timing_ok(self, tail):
        return all(
            tail[i + 1].cycle - tail[i].cycle <= self.max_gap_cycles
            for i in range(len(tail) - 1)
        )


def make_dynamic_rdf(cell: int, state: int = 0) -> AtSpeedDynamicFault:
    """dRDF: a write immediately followed by a read flips the cell.

    ``<0w1r1/0/1>`` for ``state=0`` (and the dual for state=1): the read
    after the write still returns the written value but the cell flips
    back -- detectable only by a *second* read, and only when the w/r
    pair runs at speed.
    """
    notation = f"<{state}w{1 - state}r{1 - state}/{state}/{1 - state}>"
    return AtSpeedDynamicFault(
        primitive=FaultPrimitive.parse(notation), cell=cell,
    )


def make_double_read_fault(cell: int, state: int = 0) -> AtSpeedDynamicFault:
    """dRDF variant sensitised by two consecutive reads:
    ``<0r0r0/1/1>`` -- the second back-to-back read disturbs the cell."""
    notation = f"<{state}r{state}r{state}/{1 - state}/{1 - state}>"
    return AtSpeedDynamicFault(
        primitive=FaultPrimitive.parse(notation), cell=cell,
    )

"""Functional fault simulator.

Runs a march test (as a cycle stream from the sequencer) against a
memory with one injected functional fault -- the behavioural counterpart
of the paper's one-defect-at-a-time analogue simulation.  The output is a
:class:`FailLog` listing every cycle where a read returned a value other
than expected; the virtual tester and bitmap-diagnosis modules consume
the same structure, so simulation and "silicon" results are directly
comparable, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.models import FaultFree, FunctionalFault, MemoryState
from repro.march.sequencer import DataBackground, MarchSequencer
from repro.march.test import MarchTest


@dataclass(frozen=True)
class FailRecord:
    """One failing read.

    Attributes:
        cycle: Clock cycle of the failing read.
        element_index: March element the read belongs to.
        op_index: Op position within the element.
        address: Logical address read.
        expected: Expected data value.
        actual: Value the memory returned.
    """

    cycle: int
    element_index: int
    op_index: int
    address: int
    expected: int
    actual: int


@dataclass
class FailLog:
    """All failing reads of one test run, plus run metadata."""

    test_name: str
    n_addresses: int
    fails: list[FailRecord] = field(default_factory=list)
    cycles_run: int = 0

    @property
    def detected(self) -> bool:
        return bool(self.fails)

    def __len__(self) -> int:
        return len(self.fails)


class FunctionalFaultSimulator:
    """Simulate march tests over a memory with an injected fault.

    Args:
        n_addresses: Memory size in cells (bit-oriented model), laid
            out as one topological row for the data backgrounds.
    """

    def __init__(self, n_addresses: int) -> None:
        self.n_addresses = n_addresses
        self.sequencer = MarchSequencer(n_addresses)

    def run(
        self,
        test: MarchTest,
        fault: FunctionalFault | None = None,
        background: DataBackground = DataBackground.SOLID,
        stop_at_first_fail: bool = False,
        initial_bits: int | None = None,
    ) -> FailLog:
        """Apply ``test`` to a memory carrying ``fault``.

        Args:
            test: The march test.
            fault: Injected fault (``None`` -> fault-free reference run).
            background: Data background resolved by the sequencer.
            stop_at_first_fail: Early-out for coverage campaigns.
            initial_bits: Power-up cell value (``None`` keeps cells
                unknown, the realistic choice; march tests must
                initialise before reading).

        Returns:
            The :class:`FailLog` of the run.
        """
        fault = fault if fault is not None else FaultFree()
        mem = MemoryState(self.n_addresses)
        if initial_bits is not None:
            mem.bits.fill(initial_bits)
        fault.reset()

        log = FailLog(test.name, self.n_addresses)
        for cop in self.sequencer.run(test, background):
            log.cycles_run = cop.cycle + 1
            if cop.op.is_write:
                fault.write(mem, cop.address, cop.value, cop.cycle)
                continue
            actual = fault.read(mem, cop.address, cop.cycle)
            if actual != cop.value:
                log.fails.append(FailRecord(
                    cycle=cop.cycle,
                    element_index=cop.element_index,
                    op_index=cop.op_index,
                    address=cop.address,
                    expected=cop.value,
                    actual=actual,
                ))
                if stop_at_first_fail:
                    return log
        return log

    def detects(self, test: MarchTest, fault: FunctionalFault,
                background: DataBackground = DataBackground.SOLID) -> bool:
        """Convenience: does the test detect the fault?"""
        return self.run(test, fault, background, stop_at_first_fail=True).detected

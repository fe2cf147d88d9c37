"""The MOVI test procedure: march-with-rotated-address execution.

The paper's production 11N test is "a variation of MATS++, March C- and
MOVI"; the MOVI ingredient (March with Overlapped Read and Inversion,
[de Jonge & Smeulders 76]) re-runs a base march test once per address
bit with that bit rotated into the fastest-toggling position.  At speed,
this exercises every address-bit transition back-to-back in both
polarities -- the sensitisation that address-decoder delay faults
require (:mod:`repro.faults.address_delay`, [Azimane 04]).

:class:`MoviExecutor` runs the procedure against a fault-carrying memory
and reports which rotation caught what -- the data behind the
methodology benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.models import FaultFree, FunctionalFault, MemoryState
from repro.faults.simulator import FailLog, FailRecord
from repro.march.sequencer import DataBackground, MarchSequencer, bit_rotation_map
from repro.march.test import MarchTest


@dataclass
class MoviRunResult:
    """Outcome of one MOVI rotation.

    Attributes:
        fast_bit: The address bit rotated into the LSB position.
        log: Fail log of the run.
    """

    fast_bit: int
    log: FailLog

    @property
    def detected(self) -> bool:
        return self.log.detected


@dataclass
class MoviResult:
    """Outcome of the full MOVI procedure.

    Attributes:
        test_name: Base march test.
        runs: One result per address bit (in schedule order).
    """

    test_name: str
    runs: list[MoviRunResult] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return any(r.detected for r in self.runs)

    @property
    def total_operations(self) -> int:
        """Test-cost bookkeeping: MOVI multiplies the base test length by
        the address width -- the test-time pressure the paper's
        conclusion weighs against coverage."""
        return sum(r.log.cycles_run for r in self.runs)


class MoviExecutor:
    """Runs the MOVI procedure on a fault-carrying memory model.

    Args:
        address_bits: Address width (memory size = 2**address_bits,
            laid out as one topological row for the data backgrounds).
    """

    def __init__(self, address_bits: int) -> None:
        if address_bits <= 0:
            raise ValueError("address_bits must be positive")
        self.address_bits = address_bits
        self.n_addresses = 1 << address_bits

    # ------------------------------------------------------------------
    def run_rotation(self, test: MarchTest, fault: FunctionalFault | None,
                     fast_bit: int) -> MoviRunResult:
        """One rotation: the base test with ``fast_bit`` toggling fastest,
        on a solid data background, stopped at its first failing read."""
        sequencer = MarchSequencer(
            self.n_addresses,
            address_map=bit_rotation_map(self.address_bits, fast_bit))
        fault = fault if fault is not None else FaultFree()
        mem = MemoryState(self.n_addresses)
        fault.reset()
        log = FailLog(f"{test.name}[MOVI bit {fast_bit}]", self.n_addresses)
        for cop in sequencer.run(test, DataBackground.SOLID):
            log.cycles_run = cop.cycle + 1
            if cop.op.is_write:
                fault.write(mem, cop.address, cop.value, cop.cycle)
                continue
            actual = fault.read(mem, cop.address, cop.cycle)
            if actual != cop.value:
                log.fails.append(FailRecord(
                    cycle=cop.cycle, element_index=cop.element_index,
                    op_index=cop.op_index, address=cop.address,
                    expected=cop.value, actual=actual))
                break
        return MoviRunResult(fast_bit, log)

    def run(self, test: MarchTest, fault: FunctionalFault | None = None,
            stop_at_first_detection: bool = False) -> MoviResult:
        """The full procedure: one rotation per address bit."""
        result = MoviResult(test.name)
        for fast_bit in range(self.address_bits):
            run = self.run_rotation(test, fault, fast_bit)
            result.runs.append(run)
            if stop_at_first_detection and run.detected:
                break
        return result

    def linear_reference(self, test: MarchTest,
                         fault: FunctionalFault | None = None,
                         ) -> MoviRunResult:
        """The non-MOVI baseline: plain linear addressing (fast bit 0)."""
        return self.run_rotation(test, fault, 0)

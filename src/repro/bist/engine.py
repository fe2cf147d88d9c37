"""Programmable memory BIST engine.

"Memory BIST was not implemented at the time of design as this test chip
was only intended for process qualification." (paper, Section 2) -- so
the paper drove every pattern from the ATE.  This module adds the BIST
the test chip lacked: a march-microcoded engine that runs inside the
device model, so the stress-condition methodology can be exercised the
way production SoCs actually deploy it (the controller applies the same
11N patterns; the tester only sweeps voltage/frequency and reads a
go/no-go or a signature).

Two response modes, as in production engines:

* **comparator** -- expected-data compare per read; first-fail address
  and cycle are latched (diagnosis-friendly, more logic);
* **misr** -- all read responses compact into a signature checked
  against the fault-free golden value at the end (cheap, with a
  2^-width aliasing risk).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.bist.misr import Misr
from repro.march.sequencer import DataBackground, MarchSequencer
from repro.march.test import MarchTest
from repro.memory.sram import Sram
from repro.stress import StressCondition

#: Signature width of the MISR response mode.
MISR_WIDTH = 16


class ResponseMode(Enum):
    """How the engine judges read responses."""

    COMPARATOR = "comparator"
    MISR = "misr"


@dataclass
class BistResult:
    """Outcome of one BIST run.

    Attributes:
        passed: Go/no-go verdict.
        mode: Response mode used.
        cycles: March cycles executed (full run for MISR; first fail
            latches but does not abort, as in real engines).
        signature: Final MISR signature (MISR mode).
        golden: Expected signature (MISR mode).
        first_fail_address / first_fail_cycle: Latched diagnosis data
            (comparator mode; -1 when clean).
        gross_timing_fail: The device missed timing outright at the
            applied condition.
    """

    passed: bool
    mode: ResponseMode
    cycles: int = 0
    signature: int | None = None
    golden: int | None = None
    first_fail_address: int = -1
    first_fail_cycle: int = -1
    gross_timing_fail: bool = False


class BistEngine:
    """March BIST controller bound to one SRAM instance.

    Args:
        sram: The device (carries its own attached faults).
    """

    def __init__(self, sram: Sram) -> None:
        self.sram = sram
        self.misr = Misr(MISR_WIDTH)
        self._golden_cache: dict[tuple[str, DataBackground], int] = {}

    # ------------------------------------------------------------------
    def run(self, test: MarchTest, condition: StressCondition,
            mode: ResponseMode = ResponseMode.COMPARATOR,
            background: DataBackground = DataBackground.SOLID) -> BistResult:
        """Execute the march microcode at a stress condition."""
        if not self.sram.meets_timing(condition.vdd, condition.period):
            return BistResult(False, mode, gross_timing_fail=True)
        if mode is ResponseMode.COMPARATOR:
            return self._run_comparator(test, background)
        return self._run_misr(test, background)

    def _run_comparator(self, test: MarchTest,
                        background: DataBackground) -> BistResult:
        sram = self.sram
        sram.power_cycle()
        width = sram.geometry.bits_per_word
        all_ones = (1 << width) - 1
        sequencer = MarchSequencer(sram.geometry.words)
        result = BistResult(True, ResponseMode.COMPARATOR)
        for cop in sequencer.run(test, background):
            result.cycles = cop.cycle + 1
            word = all_ones if cop.value else 0
            if cop.op.is_write:
                sram.write_word(cop.address, word)
                continue
            if sram.read_word(cop.address) != word:
                if result.passed:
                    result.first_fail_address = cop.address
                    result.first_fail_cycle = cop.cycle
                result.passed = False
        return result

    def _run_misr(self, test: MarchTest,
                  background: DataBackground) -> BistResult:
        golden = self._golden_signature(test, background)
        signature = self._collect_signature(test, background,
                                            faulty=True)
        result = BistResult(signature == golden, ResponseMode.MISR,
                            signature=signature, golden=golden)
        result.cycles = test.complexity * self.sram.geometry.words
        return result

    # ------------------------------------------------------------------
    def _golden_signature(self, test: MarchTest,
                          background: DataBackground) -> int:
        key = (test.name + test.notation, background)
        if key not in self._golden_cache:
            self._golden_cache[key] = self._collect_signature(
                test, background, faulty=False)
        return self._golden_cache[key]

    def _collect_signature(self, test: MarchTest,
                           background: DataBackground,
                           faulty: bool) -> int:
        sram = self.sram
        saved_faults = sram.faults
        if not faulty:
            sram.faults = []
        try:
            sram.power_cycle()
            self.misr.reset()
            width = sram.geometry.bits_per_word
            all_ones = (1 << width) - 1
            sequencer = MarchSequencer(sram.geometry.words)
            for cop in sequencer.run(test, background):
                word = all_ones if cop.value else 0
                if cop.op.is_write:
                    sram.write_word(cop.address, word)
                else:
                    self.misr.inject(sram.read_word(cop.address))
            return self.misr.signature
        finally:
            sram.faults = saved_faults

"""The virtual ATE: apply march tests to devices at stress conditions.

:class:`VirtualTester` is the library's automatic test equipment.  Given
a device (an :class:`~repro.memory.sram.Sram` plus its resistive
defects), a march test and a :class:`~repro.stress.StressCondition`, it
produces a pass/fail verdict and -- in full mode -- a cycle-accurate fail
log suitable for bitmap diagnosis, exactly the data the paper reads off
its tester ("the bitmapping result shows the failure in three clock
cycles that belong to three march elements...").

Two execution modes:

* ``quick=True`` (default): the pre-calculated behavioural path --
  fault-free timing check plus per-defect manifestation queries.  O(#
  defects); used for shmoo plots and the 11k-device population.
* ``quick=False``: the manifested defects are rendered into functional
  faults and the march test is run word-by-word through the SRAM model;
  returns every failing read with march-element attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.defects.behavior import DefectBehaviorModel, Manifestation
from repro.defects.injection import to_functional_fault
from repro.defects.models import Defect
from repro.march.sequencer import DataBackground, MarchSequencer
from repro.march.test import MarchTest
from repro.memory.sram import Sram
from repro.stress import StressCondition


@dataclass(frozen=True)
class AteFailRecord:
    """One failing bit observed by the tester comparator.

    Attributes:
        cycle: Clock cycle of the failing read.
        element_index: March element the read belongs to.
        op_index: Op position within the element.
        address: Word address.
        bit: Failing bit within the word.
        expected: Expected bit value.
        actual: Observed bit value.
    """

    cycle: int
    element_index: int
    op_index: int
    address: int
    bit: int
    expected: int
    actual: int


@dataclass
class TestResult:
    """Outcome of one test application.

    Attributes:
        passed: Verdict.
        condition: The stress condition applied.
        test_name: March test name.
        gross_timing_fail: True when the fault-free access time already
            exceeds the period (the whole shmoo region below the
            fault-free boundary).
        fails: Failing bits (full mode only; empty in quick mode).
        manifestations: The defect manifestations active at this
            condition (for diagnosis cross-checks).
    """

    passed: bool
    condition: StressCondition
    test_name: str
    gross_timing_fail: bool = False
    fails: list[AteFailRecord] = field(default_factory=list)
    manifestations: list[Manifestation] = field(default_factory=list)


class VirtualTester:
    """Applies march tests under stress conditions.

    Args:
        behavior: The defect behaviour model (shared with the estimator
            so simulation and "silicon" agree by construction, as the
            paper observes about its own flow).
    """

    def __init__(self, behavior: DefectBehaviorModel) -> None:
        self.behavior = behavior

    # ------------------------------------------------------------------
    def test_device(self, sram: Sram, defects: list[Defect],
                    test: MarchTest, condition: StressCondition,
                    quick: bool = True) -> TestResult:
        """Apply ``test`` to the device at ``condition``.

        Quick mode answers pass/fail from the behavioural model; full
        mode also simulates the march cycle stream (on a solid data
        background) and logs failing bits.
        """
        if not sram.meets_timing(condition.vdd, condition.period):
            return TestResult(False, condition, test.name,
                              gross_timing_fail=True)
        manifested = [
            m for m in (self.behavior.manifestation(d, condition)
                        for d in defects)
            if m is not None
        ]
        if quick:
            return TestResult(not manifested, condition, test.name,
                              manifestations=manifested)
        return self._full_run(sram, manifested, test, condition)

    def _full_run(self, sram: Sram, manifested: list[Manifestation],
                  test: MarchTest, condition: StressCondition) -> TestResult:
        sram.clear_faults()
        for m in manifested:
            sram.attach_fault(to_functional_fault(m, geometry=sram.geometry))
        sram.power_cycle()

        width = sram.geometry.bits_per_word
        all_ones = (1 << width) - 1
        sequencer = MarchSequencer(sram.geometry.words,
                                   columns=sram.geometry.columns)
        result = TestResult(True, condition, test.name,
                            manifestations=manifested)
        for cop in sequencer.run(test, DataBackground.SOLID):
            word_value = all_ones if cop.value else 0
            if cop.op.is_write:
                sram.write_word(cop.address, word_value)
                continue
            actual = sram.read_word(cop.address)
            if actual == word_value:
                continue
            result.passed = False
            diff = actual ^ word_value
            for bit in range(width):
                if (diff >> bit) & 1:
                    result.fails.append(AteFailRecord(
                        cycle=cop.cycle,
                        element_index=cop.element_index,
                        op_index=cop.op_index,
                        address=cop.address,
                        bit=bit,
                        expected=cop.value,
                        actual=1 - cop.value,
                    ))
        sram.clear_faults()
        return result
